import contextlib
import csv
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from conftest import small_cfg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import risbal.sim
from risbal import (
    ArrayGeometry,
    Position3D,
    RicianLinkParams,
    ScenarioConfig,
    Scheme,
    SweepParam,
    cli_main,
    gen_channel_set,
    parse_config_text,
    run_drop,
    run_sweep,
    slnr_beamformer,
    write_csv,
)
from risbal.config import _field_types
from risbal.errors import ConfigError, NormalizationError, NumericalError
from risbal.sim import Cell, SweepResult, drop_seed_for


# ----------------------------------------------------------------- run_drop

def test_run_drop_deterministic():
    cfg = small_cfg()
    a = run_drop(cfg, 123)
    b = run_drop(cfg, 123)
    assert a == b
    assert set(a) == set(Scheme)


def test_run_drop_builds_gram_totals_once(monkeypatch):
    # Proposed and ConvRis share one pair of Gram totals per drop; the
    # counter replaces every module binding of the name
    import risbal.ris_design
    import risbal.sim

    calls = []
    original = risbal.ris_design.effective_channels

    def counted(channels):
        calls.append(1)
        return original(channels)

    for mod in (risbal.ris_design, risbal.sim):
        monkeypatch.setattr(mod, "effective_channels", counted, raising=False)
    run_drop(small_cfg(), 3)
    assert len(calls) == 1


needs_openblas = pytest.mark.skipif(
    not risbal.sim._openblas_setters(),
    reason="no loaded OpenBLAS exports openblas_set_num_threads_local",
)


def _blas_threads():
    """This process's OpenBLAS thread count, read by setting and restoring it
    under the lock that guards the drops' own changes to it."""
    setter = risbal.sim._openblas_setters()[0]
    with risbal.sim._blas_lock:
        count = setter(1)
        setter(count)
    return count


@needs_openblas
def test_run_drop_runs_on_one_blas_thread(monkeypatch):
    seen = []
    original = risbal.sim.effective_channels

    def recorded(channels):
        seen.append(_blas_threads())
        return original(channels)

    def failing(channels):
        seen.append(_blas_threads())
        raise NumericalError("injected")

    setter = risbal.sim._openblas_setters()[0]
    before = setter(2)
    try:
        monkeypatch.setattr(risbal.sim, "effective_channels", recorded)
        run_drop(small_cfg(), 3)
        assert seen == [1] and _blas_threads() == 2
        monkeypatch.setattr(risbal.sim, "effective_channels", failing)
        with pytest.raises(NumericalError, match="injected"):
            run_drop(small_cfg(), 4)
        assert seen == [1, 1] and _blas_threads() == 2
    finally:
        setter(before)


@needs_openblas
def test_concurrent_drops_restore_the_callers_blas_threads(monkeypatch):
    # the count is one per process, so a drop that ends while another runs
    # must neither raise it under the other nor leave the other's 1 behind
    seen = []
    original = risbal.sim.effective_channels

    def recorded(channels):
        seen.append(_blas_threads())
        return original(channels)

    def drops(first_seed):
        for seed in range(first_seed, first_seed + 5):
            run_drop(small_cfg(), seed)

    monkeypatch.setattr(risbal.sim, "effective_channels", recorded)
    setter = risbal.sim._openblas_setters()[0]
    before, interval = setter(2), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=drops, args=(10 * i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert seen == [1] * 20 and _blas_threads() == 2
    finally:
        sys.setswitchinterval(interval)
        setter(before)


# a library caller's two ways into a drop; each must fail as the CLI does
_ENTRY_POINTS = {
    "run_drop": lambda cfg: run_drop(cfg, 7),
    "run_sweep": lambda cfg: run_sweep(cfg, SweepParam.LAMBDA_DB, [0.0]),
}


@contextlib.contextmanager
def _callers_blas_threads_kept():
    """Run the block at 2 OpenBLAS threads, where a setter is found, and
    check that the block leaves that count in place."""
    setters = risbal.sim._openblas_setters()
    before = setters[0](2) if setters else None
    try:
        yield
        assert not setters or _blas_threads() == 2
    finally:
        if setters:
            setters[0](before)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_library_overflow_raises_numerical_error_without_a_warning(entry):
    # the CLI's huge-power case: 10^307 W passes the range check and the
    # rates overflow, which a library caller gets as the CLI's error, not as
    # numpy warnings and inf rows
    cfg = replace(ScenarioConfig(), num_drops=2, p_t_dbm=3100.0)
    with _callers_blas_threads_kept(), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^overflow encountered in divide$"):
            _ENTRY_POINTS[entry](cfg)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_library_failed_factorization_raises_numerical_error(entry, monkeypatch):
    # the channel draw's QR has no wrap of its own; the drop reports its failure
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "qr", fail)
    with _callers_blas_threads_kept():
        with pytest.raises(NumericalError, match="^injected$") as info:
            _ENTRY_POINTS[entry](small_cfg(num_drops=2))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_run_drop_solves_no_surface_sized_eigenproblem(monkeypatch):
    # the warm starts come from the drop's Gram core: every eigensolve, which
    # all go through one entry point, is core-sized, none M x M
    import risbal.ris_design

    cfg = ScenarioConfig(ris_array=ArrayGeometry(16, 32))
    sizes = []
    original = risbal.ris_design._top_eigenpair

    def recorded(K):
        sizes.append(K.shape[-1])
        return original(K)

    monkeypatch.setattr(risbal.ris_design, "_top_eigenpair", recorded)
    run_drop(cfg, 5)
    assert len(sizes) == 2  # one warm start per design: Proposed and ConvRis
    assert cfg.ris_array.size not in sizes


def test_run_drop_forms_no_surface_sized_balance_matrix(monkeypatch):
    # each design gets the drop's Gram factor B (M, c) and c real weights,
    # never an M x M balance matrix
    import risbal.sim

    cfg = ScenarioConfig(ris_array=ArrayGeometry(16, 32))
    M = cfg.ris_array.size
    shapes = []
    original = risbal.sim.design_balanced

    def recorded(gram, d, *args, **kwargs):
        shapes.append((gram.B.shape, gram.T.shape, d.shape))
        return original(gram, d, *args, **kwargs)

    monkeypatch.setattr(risbal.sim, "design_balanced", recorded)
    run_drop(cfg, 5)
    assert len(shapes) == 2  # Proposed and ConvRis
    for (rows, c), t_shape, d_shape in shapes:
        assert rows == M and c < M
        assert t_shape == (c, c) and d_shape == (c,)


@pytest.mark.parametrize("zeroed", [("G1",), ("G1", "G2")], ids=["G1", "G1-G2"])
def test_run_drop_zero_gains_raise_normalization_error(monkeypatch, zeroed):
    # an all-zero channel, with its range factor, gives a zero Gram total,
    # so it ends in the weights' NormalizationError (exit 3)
    import risbal.sim

    original = risbal.sim.gen_channel_set

    def silent(cfg, rng):
        cs = original(cfg, rng)
        return replace(cs, **{name: np.zeros_like(getattr(cs, name))
                              for G in zeroed for name in (G, f"{G}_range")})

    monkeypatch.setattr(risbal.sim, "gen_channel_set", silent)
    with pytest.raises(NormalizationError):
        run_drop(small_cfg(), 1)


def test_run_drop_no_ris_uses_direct_rows_only():
    cfg = small_cfg()
    res = run_drop(cfg, 5)
    assert res[Scheme.NO_RIS][0] == 0.0
    # recompute the cell-2 direct-only rate independently
    chan_ss, _ = np.random.SeedSequence(5).spawn(2)
    cs = gen_channel_set(cfg, np.random.default_rng(chan_ss))
    from risbal import evaluate

    F2 = slnr_beamformer(cs.h_d2, cfg.transmit_power_w, cs.noise_var)
    assert res[Scheme.NO_RIS][1] == pytest.approx(
        evaluate(cs.h_d2, F2, cs.noise_var).sum_rate, rel=1e-12
    )


def test_run_drop_shares_a_drop_within_one_scenario_only():
    # a reused map serves a config that differs only in the swept weight or
    # power; any other field draws the drop anew
    a = small_cfg()
    for b in (replace(a, ris_array=ArrayGeometry(4, 4), users_per_cell=3),
              replace(a, noise_dbm=-80.0)):
        shared = {}
        run_drop(a, 5, shared)
        assert run_drop(b, 5, shared) == run_drop(b, 5)
    shared = {}
    run_drop(a, 5, shared)
    drop = shared[5]
    swept = replace(a, lambda_db=0.0, p_t_dbm=20.0)
    assert run_drop(swept, 5, shared) == run_drop(swept, 5)
    assert shared[5] is drop


def test_zero_weight_proposed_equals_conventional():
    # lambda_db = -inf puts the balancing weight at exactly zero
    cfg = small_cfg(lambda_db=-math.inf)
    for seed in (1, 2, 3):
        res = run_drop(cfg, seed)
        assert res[Scheme.PROPOSED] == res[Scheme.CONV_RIS]


def test_no_ris_invariant_to_surface_config():
    base = small_cfg()
    reference = run_drop(base, 77)[Scheme.NO_RIS]
    variants = [
        replace(base, ris_array=ArrayGeometry(4, 4)),
        replace(base, ris_pos=Position3D(10.0, 5.0, 12.0)),
        replace(base, theta_rad=1.1),
        replace(base, lambda_db=0.0),
        replace(base, bs_ris_link=replace(base.bs_ris_link, rician_factor_db=9.0)),
        replace(base, ris_user_link=replace(base.ris_user_link, nlos_path_count=2)),
    ]
    for cfg in variants:
        assert run_drop(cfg, 77)[Scheme.NO_RIS] == reference


def test_bs2_information_barrier():
    # the cell-2 precoder is built from direct rows only: zeroing the
    # surface-side fields cannot change it
    cfg = small_cfg()
    cs = gen_channel_set(cfg, np.random.default_rng(9))
    f_full = slnr_beamformer(cs.h_d2, cfg.transmit_power_w, cs.noise_var)
    cs_blind = replace(cs, G2=np.zeros_like(cs.G2), h_r2=np.zeros_like(cs.h_r2))
    f_blind = slnr_beamformer(cs_blind.h_d2, cfg.transmit_power_w, cs_blind.noise_var)
    np.testing.assert_array_equal(f_full, f_blind)


def test_reference_operating_point_rates_are_sane():
    cfg = ScenarioConfig()  # N = 4x4, M = 8x16, K = 4, 30 dBm, lambda 20 dB
    res = run_drop(cfg, 2024)
    for scheme in Scheme:
        r1, r2 = res[scheme]
        assert np.isfinite(r1) and np.isfinite(r2)
        assert r2 > 0
        if scheme is not Scheme.NO_RIS:
            assert r1 > 0


# ---------------------------------------------------------------- run_sweep

def test_sweep_single_value_single_drop_matches_run_drop():
    cfg = small_cfg(num_drops=1)
    results = run_sweep(cfg, SweepParam.LAMBDA_DB, [20.0])
    drop = run_drop(replace(cfg, lambda_db=20.0), drop_seed_for(cfg.seed, 0, 0))
    for r in results:
        assert r.std_err == 0.0
        assert r.num_drops == 1
        idx = 0 if r.cell is Cell.CELL1 else 1
        assert r.mean_sum_rate == pytest.approx(drop[r.scheme][idx], rel=1e-12)


def test_sweep_crn_reuses_drops_across_values():
    assert drop_seed_for(7, 0, 3, crn=True) == drop_seed_for(7, 5, 3, crn=True)
    assert drop_seed_for(7, 0, 3) != drop_seed_for(7, 1, 3)


def test_sweep_rejects_empty_values():
    with pytest.raises(ConfigError):
        run_sweep(small_cfg(), SweepParam.LAMBDA_DB, [])


def _per_cell_results(cfg, sweep, values, crn):
    """The sweep's rows rebuilt from one standalone run_drop per (value, drop)."""
    field = "p_t_dbm" if sweep is SweepParam.TRANSMIT_POWER_DBM else "lambda_db"
    expected = []
    for si, value in enumerate(values):
        cfg_v = replace(cfg, **{field: value})
        drops = [run_drop(cfg_v, drop_seed_for(cfg.seed, si, d, crn))
                 for d in range(cfg.num_drops)]
        for scheme in Scheme:
            for cell, idx in ((Cell.CELL1, 0), (Cell.CELL2, 1)):
                samples = np.array([d[scheme][idx] for d in drops])
                expected.append(SweepResult(
                    scheme=scheme,
                    sweep_value=value,
                    cell=cell,
                    mean_sum_rate=float(samples.mean()),
                    std_err=float(samples.std(ddof=1) / np.sqrt(samples.size)),
                    num_drops=cfg.num_drops,
                ))
    return expected


@pytest.mark.parametrize("sweep, values, crn", [
    (SweepParam.LAMBDA_DB, [-math.inf, 0.0, 10.0, 20.0], True),
    (SweepParam.TRANSMIT_POWER_DBM, [20.0, 30.0, 40.0], True),
    (SweepParam.LAMBDA_DB, [0.0, 20.0], False),
])
def test_drop_major_sweep_equals_per_cell_runs(sweep, values, crn):
    # what a sweep shares between values must not depend on the swept field,
    # so every row equals, bit for bit, the one built from standalone drops
    cfg = small_cfg(num_drops=3)
    assert run_sweep(cfg, sweep, values, crn=crn) == _per_cell_results(cfg, sweep, values, crn)


@pytest.mark.parametrize("sweep, values, designs_per_drop", [
    # ConvRis plus the distinct positive weights; -inf dB is weight 0
    (SweepParam.LAMBDA_DB, [-math.inf, 0.0, 10.0, 20.0], 4),
    # the balance matrix does not depend on power: ConvRis plus one Proposed
    (SweepParam.TRANSMIT_POWER_DBM, [20.0, 30.0, 40.0], 2),
])
def test_crn_sweep_draws_each_drop_once(monkeypatch, sweep, values, designs_per_drop):
    import risbal.beamform
    import risbal.channel
    import risbal.metrics
    import risbal.ris_design
    import risbal.sim

    calls = {"gen_channel_set": 0, "effective_channels": 0, "design_balanced": 0, "run_drop": 0,
             "slnr_beamformer": 0, "evaluate": 0}
    for name in calls:
        original = getattr(risbal.sim, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in (risbal.beamform, risbal.channel, risbal.metrics, risbal.ris_design, risbal.sim):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    drops = 3
    run_sweep(small_cfg(num_drops=drops), sweep, values, crn=True)
    # per (drop, power): F2 and the ConvRis and RandRis precoders, and the
    # rates of both cells under ConvRis and RandRis plus NoRis' cell 2; per
    # cell: the Proposed precoder and its two rates
    powers = len(values) if sweep is SweepParam.TRANSMIT_POWER_DBM else 1
    assert calls == {
        "gen_channel_set": drops,
        "effective_channels": drops,
        "design_balanced": drops * designs_per_drop,
        # one call per (value, drop) cell, which a tracer counts on
        "run_drop": len(values) * drops,
        "slnr_beamformer": drops * (3 * powers + len(values)),
        "evaluate": drops * (5 * powers + 2 * len(values)),
    }


@pytest.mark.parametrize("values", [[10.0, 10.0], [20.0, 10.0, 20.0000000001], [-0.0, 0.0]])
def test_sweep_rejects_duplicate_values(monkeypatch, values):
    # values that print alike would write conflicting CSV rows; no drop runs
    import risbal.sim

    def no_drop(*args, **kwargs):
        raise AssertionError("a drop ran before the duplicate check")

    monkeypatch.setattr(risbal.sim, "run_drop", no_drop)
    with pytest.raises(ConfigError, match="duplicate sweep values"):
        run_sweep(small_cfg(), SweepParam.LAMBDA_DB, values)


# ------------------------------------------------------------- csv and config

def test_write_csv_format(tmp_path):
    cfg = small_cfg(num_drops=2)
    results = run_sweep(cfg, SweepParam.LAMBDA_DB, [10.0, 0.0])
    out = tmp_path / "res.csv"
    write_csv(results, str(out), SweepParam.LAMBDA_DB)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scheme", "cell", "sweep_param", "sweep_value",
                       "mean_sum_rate_bps_hz", "std_err", "num_drops"]
    body = rows[1:]
    assert len(body) == 2 * len(Scheme) * 2
    keys = [(float(r[3]), r[0], r[1]) for r in body]
    assert keys == sorted(keys)
    assert all(r[2] == "lambda" for r in body)
    assert all(r[6] == "2" for r in body)
    # 9 significant digits
    mean = float(body[0][4])
    assert body[0][4] == f"{mean:.9g}"


def test_config_text_round_trip():
    text = """
    # scenario overrides
    ris_array = 4x8@0.5
    bs1_array = 2x2
    bs1_pos = 1,2,10
    cell1_center = 40,12
    cell1_radius = 8
    direct_link = 4.0,3,6,12
    p_t_dbm = 24
    lambda_db = 10
    users_per_cell = 3
    num_drops = 9
    seed = 42
    """
    cfg = parse_config_text(text)
    assert cfg.ris_array == ArrayGeometry(4, 8, 0.5)
    assert cfg.bs1_array == ArrayGeometry(2, 2)
    assert cfg.bs1_pos == Position3D(1.0, 2.0, 10.0)
    assert cfg.cell1_center == (40.0, 12.0)
    assert cfg.cell1_radius == 8.0
    assert cfg.direct_link.path_loss_exponent == 4.0
    assert cfg.direct_link.angular_spread_deg == 12.0
    assert cfg.p_t_dbm == 24.0
    assert cfg.users_per_cell == 3
    assert cfg.num_drops == 9
    assert cfg.seed == 42


# one non-default value per ScenarioConfig field, in config-file syntax
_FIELD_CASES = [
    ("bs1_array", "2x2", ArrayGeometry(2, 2)),
    ("bs2_array", "4x2@0.25", ArrayGeometry(4, 2, 0.25)),
    ("ris_array", "16X32 @ 0.4", ArrayGeometry(16, 32, 0.4)),
    ("bs1_pos", "1,2,10", Position3D(1.0, 2.0, 10.0)),
    ("bs2_pos", "70.5, -3, 12", Position3D(70.5, -3.0, 12.0)),
    ("ris_pos", "40,30,8", Position3D(40.0, 30.0, 8.0)),
    ("cell1_center", "40,12", (40.0, 12.0)),
    ("cell1_radius", "8", 8.0),
    ("cell2_center", "70, -5", (70.0, -5.0)),
    ("cell2_radius", "12.5", 12.5),
    ("user_height", "1.5", 1.5),
    ("users_per_cell", "3", 3),
    ("direct_link", "4.0,3,6,12", RicianLinkParams(4.0, 3.0, 6, 12.0)),
    ("ris_user_link", "2.2, 6, 3", RicianLinkParams(2.2, 6.0, 3)),
    ("bs_ris_link", "2.6,10,0,0", RicianLinkParams(2.6, 10.0, 0, 0.0)),
    ("pathloss_ref_db", "-35", -35.0),
    ("pathloss_ref_distance_m", "2", 2.0),
    ("p_t_dbm", "24", 24.0),
    ("noise_dbm", "-100", -100.0),
    ("theta_rad", "0.25", 0.25),
    ("lambda_db", "-inf", -math.inf),
    ("num_drops", "9", 9),
    ("seed", "42", 42),
]


def test_config_field_cases_cover_every_field():
    keys = [key for key, _, _ in _FIELD_CASES]
    assert sorted(keys) == sorted(f.name for f in fields(ScenarioConfig))


@pytest.mark.parametrize("key,text,expected", _FIELD_CASES, ids=[c[0] for c in _FIELD_CASES])
def test_config_every_field_round_trips(key, text, expected):
    # repr tells an int count from a float and each dataclass's field types
    assert getattr(ScenarioConfig(), key) != expected
    cfg = parse_config_text(f"{key} = {text}  # overrides one default\n")
    assert repr(getattr(cfg, key)) == repr(expected)
    assert cfg == replace(ScenarioConfig(), **{key: expected})


def test_config_repeated_key_rejected():
    with pytest.raises(ConfigError, match=r"^line 2: key 'seed' given twice$"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_config_array_at_needs_spacing():
    for text in ("4x4@", "4x4 @ ", "4x4@  # no spacing"):
        with pytest.raises(ConfigError, match="ris_array: expected a number, got ''"):
            parse_config_text(f"ris_array = {text}")


def test_config_counts_must_be_integers():
    for build in (
        lambda: replace(ScenarioConfig(), num_drops=2.5),
        lambda: replace(ScenarioConfig(), users_per_cell=2.5),
        lambda: replace(ScenarioConfig(), users_per_cell=True),
        lambda: replace(ScenarioConfig(), seed=1.5),
        lambda: replace(ScenarioConfig(), seed=np.float64(1.0)),
        lambda: ArrayGeometry(2.5, 4),
        lambda: ArrayGeometry(2, np.bool_(True)),
        lambda: RicianLinkParams(4.2, 3.0, 2.5),
        lambda: RicianLinkParams(4.2, 3.0, False),
    ):
        with pytest.raises(ConfigError, match="must be an integer"):
            build()


def test_config_accepts_numpy_integer_counts():
    i = np.int64
    link = RicianLinkParams(4.2, 3.0, i(2))
    cfg = small_cfg(users_per_cell=i(2), num_drops=i(2), seed=i(7),
                    ris_array=ArrayGeometry(i(2), i(4)), direct_link=link)
    expected = small_cfg(num_drops=2, direct_link=RicianLinkParams(4.2, 3.0, 2))
    assert run_sweep(cfg, SweepParam.LAMBDA_DB, [10.0]) == run_sweep(
        expected, SweepParam.LAMBDA_DB, [10.0]
    )


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("bogus_key = 3")


def test_config_validation_rejects_degenerate_values():
    nan = math.nan
    for bad in (
        dict(users_per_cell=0),
        dict(num_drops=0),
        dict(cell1_radius=0.0),
        dict(seed=-1),
        dict(lambda_db=math.inf),
        dict(lambda_db=nan),
        dict(lambda_db=1e308),
        dict(p_t_dbm=nan),
        dict(p_t_dbm=math.inf),
        dict(p_t_dbm=1e308),
        dict(p_t_dbm=-1e308),
        dict(noise_dbm=nan),
        dict(noise_dbm=1e308),
        # 0 W as used, though 10^(x/10) of the dB value alone is positive
        dict(p_t_dbm=-3220.0),
        dict(noise_dbm=-3220.0),
        dict(theta_rad=math.inf),
        dict(cell1_radius=nan),
        dict(cell2_center=(75.0, nan)),
    ):
        with pytest.raises(ConfigError):
            replace(ScenarioConfig(), **bad)
    # a nested config checks itself, so building it raises
    for build in (
        lambda: replace(ScenarioConfig(), ris_pos=Position3D(40.0, nan, 10.0)),
        lambda: replace(ScenarioConfig(), ris_array=ArrayGeometry(2, 4, nan)),
        lambda: replace(ScenarioConfig(), direct_link=RicianLinkParams(4.2, nan, 8)),
    ):
        with pytest.raises(ConfigError):
            build()
    replace(ScenarioConfig(), lambda_db=-math.inf)


def test_rician_link_checks_its_own_factor():
    # a link config is valid on its own: a factor whose linear value overflows
    # is rejected when the link is built, not by the scenario holding it
    with pytest.raises(ConfigError, match="rician_factor_db = 4000.0"):
        RicianLinkParams(2.5, 4000.0, 8)
    with pytest.raises(ConfigError, match="^direct_link: rician_factor_db"):
        parse_config_text("direct_link = 4.2,4000,8")
    RicianLinkParams(2.5, 3000.0, 8)  # 10^300 is finite
    RicianLinkParams(2.5, -4000.0, 8)  # a factor of 0: a Rayleigh link


_CONFIG_CLASSES = (ArrayGeometry, Position3D, RicianLinkParams, ScenarioConfig)
# (class, field, declared type) of every field of every config class, from the
# map the configs check themselves by, so a new field is covered without an edit
_TYPED_FIELDS = [(cls, name, tp) for cls in _CONFIG_CLASSES for name, tp in _field_types(cls).items()]


def _valid_instance(cls):
    cfg = ScenarioConfig()
    return {ArrayGeometry: cfg.ris_array, Position3D: cfg.ris_pos,
            RicianLinkParams: cfg.direct_link, ScenarioConfig: cfg}[cls]


def _wrong_typed(name, tp):
    """Values a field of declared type tp rejects: other types, and numbers
    that are not finite as a float."""
    floats = st.floats(-1e3, 1e3)
    wrong = [st.text(max_size=4), st.complex_numbers(), st.booleans(), st.just(np.bool_(True)),
             st.none(), st.lists(floats, max_size=3), st.just(math.nan), st.just(np.float32("nan"))]
    if tp is int:
        wrong += [st.floats(), st.just(np.float64(2.0))]
    elif tp is float:
        wrong += [st.just(math.inf), st.just(10**400)]
        if name != "lambda_db":  # the one field that may be -inf
            wrong.append(st.just(-math.inf))
    elif tp == tuple[float, float]:
        wrong += [st.tuples(floats), st.tuples(floats, floats, floats),
                  st.tuples(floats, st.just(math.nan)), st.tuples(floats, st.just(True))]
    else:  # a nested config: its values, not an instance
        wrong.append(st.just(astuple(_valid_instance(tp))))
    return st.one_of(wrong)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_config_wrong_typed_value_is_config_error(data):
    # every field of every config class, each with a value of a wrong type
    for cls, name, tp in _TYPED_FIELDS:
        bad = data.draw(_wrong_typed(name, tp), label=f"{cls.__name__}.{name}")
        with pytest.raises(ConfigError, match=name):
            replace(_valid_instance(cls), **{name: bad})


def test_config_accepts_python_and_numpy_numbers():
    for cls, name, tp in _TYPED_FIELDS:
        base = _valid_instance(cls)
        value = getattr(base, name)
        if tp is int:
            kinds = [int, np.int64, np.int32, np.uint16]
        elif tp is float or tp == tuple[float, float]:
            kinds = [float, np.float64, np.float32]
            if np.all(np.mod(value, 1) == 0):  # a whole value may also be an integer
                kinds += [int, np.int64]
        else:
            continue  # a nested config's fields are cases of their own
        for kind in kinds:
            v = tuple(map(kind, value)) if isinstance(value, tuple) else kind(value)
            got = getattr(replace(base, **{name: v}), name)
            assert got == v, (name, kind)
            # stored as the field's Python type, whatever number type came in
            stored = got if isinstance(got, tuple) else (got,)
            assert {type(x) for x in stored} == {int if tp is int else float}, (name, kind)


def test_config_float32_settings_compute_as_python_floats(tmp_path):
    # a numpy number is kept as the Python number it equals, so a float32
    # setting writes the CSV bytes of that float instead of computing in float32
    f32 = np.float32
    plain = {"p_t_dbm": 27.3, "noise_dbm": -101.7, "theta_rad": 0.7, "pathloss_ref_db": -31.3}
    link = (2.3, 4.7, 3, 12.3)  # exponent, Rician factor dB, paths, spread deg

    def csv_bytes(num, name):
        cfg = small_cfg(num_drops=2, ris_user_link=RicianLinkParams(
            num(link[0]), num(link[1]), link[2], num(link[3])),
            **{key: num(value) for key, value in plain.items()})
        out = tmp_path / name
        write_csv(run_sweep(cfg, SweepParam.LAMBDA_DB, [10.0]), str(out), SweepParam.LAMBDA_DB)
        return out.read_bytes()

    assert csv_bytes(f32, "f32.csv") == csv_bytes(lambda v: float(f32(v)), "py.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        power = replace(ScenarioConfig(), p_t_dbm=f32(500.0)).transmit_power_w
        assert power == ScenarioConfig(p_t_dbm=500.0).transmit_power_w
        with pytest.raises(ConfigError, match="p_t_dbm = 4000.0 is out of range"):
            replace(ScenarioConfig(), p_t_dbm=f32(4000.0))


def test_sweep_validates_each_value():
    with pytest.raises(ConfigError):
        run_sweep(small_cfg(), SweepParam.TRANSMIT_POWER_DBM, [30.0, math.inf])


def test_write_csv_refuses_nonfinite_rows(tmp_path):
    results = run_sweep(small_cfg(num_drops=2), SweepParam.LAMBDA_DB, [10.0])
    results[3] = replace(results[3], mean_sum_rate=math.nan)
    out = tmp_path / "res.csv"
    with pytest.raises(NumericalError):
        write_csv(results, str(out), SweepParam.LAMBDA_DB)
    assert not out.exists()


def test_write_csv_failure_keeps_existing_file(tmp_path, monkeypatch):
    results = run_sweep(small_cfg(num_drops=2), SweepParam.LAMBDA_DB, [10.0])
    out = tmp_path / "res.csv"
    out.write_bytes(b"earlier results\n")
    real_writer = csv.writer

    class FailAfterHeader:
        def __init__(self, fh):
            self._writer = real_writer(fh)
            self._rows = 0

        def writerow(self, row):
            if self._rows:
                raise OSError("disk full")
            self._rows += 1
            self._writer.writerow(row)

    monkeypatch.setattr(csv, "writer", FailAfterHeader)
    with pytest.raises(OSError):
        write_csv(results, str(out), SweepParam.LAMBDA_DB)
    assert out.read_bytes() == b"earlier results\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["res.csv"]


def test_config_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("users_per_cell = many")


# ----------------------------------------------------------------------- cli

CFG_TEXT = """
bs1_array = 2x2
bs2_array = 2x2
ris_array = 2x4
users_per_cell = 2
num_drops = 3
seed = 11
"""


def test_cli_end_to_end(tmp_path):
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text(CFG_TEXT)
    out = tmp_path / "results.csv"
    code = cli_main([
        "--config", str(cfg_file), "--sweep", "lambda",
        "--values", "0,10,20", "--out", str(out),
    ])
    assert code == 0
    first = out.read_bytes()
    code = cli_main([
        "--config", str(cfg_file), "--sweep", "lambda",
        "--values", "0,10,20", "--out", str(out),
    ])
    assert code == 0
    assert out.read_bytes() == first
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3 * len(Scheme) * 2


def _run_python(*args, **env):
    """Run the interpreter on args with this checkout's risbal importable,
    with env's variables set."""
    import risbal

    src = os.path.dirname(os.path.dirname(risbal.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120,
    )


def test_cli_help_prints_the_epilog():
    proc = _run_python("-m", "risbal", "--help")
    assert proc.returncode == 0, proc.stderr
    epilog = risbal.sim._build_parser().epilog
    assert " ".join(epilog.split()) in " ".join(proc.stdout.split())


@needs_openblas
def test_cli_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    # on a 512-element surface some of a drop's BLAS and LAPACK calls round
    # differently on one and two threads, so without the one-thread drop the
    # Proposed rows at 20 dB differ
    cfg_file = tmp_path / "m512.cfg"
    cfg_file.write_text("ris_array = 16x32\n")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        proc = _run_python(
            "-m", "risbal", "--config", str(cfg_file), "--sweep", "lambda",
            "--values", "0,20", "--drops", "6", "--seed", "5", "--out", str(out),
            OPENBLAS_NUM_THREADS=threads,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_python_m_risbal_runs_without_warnings(tmp_path):
    out = tmp_path / "results.csv"
    proc = _run_python(
        "-W", "error::RuntimeWarning", "-m", "risbal",
        "--sweep", "lambda", "--values", "0", "--drops", "1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert out.read_text().startswith("scheme,cell,")


@pytest.mark.parametrize("pathloss_ref_db", [1000, 2000, 3000])
def test_cli_overflowing_gain_norm_prints_one_line(tmp_path, pathloss_ref_db):
    # the norm overflow is reported by the exit-3 message alone, without a
    # numpy warning ahead of it
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text(CFG_TEXT + f"pathloss_ref_db = {pathloss_ref_db}\n")
    out = tmp_path / "x.csv"
    proc = _run_python(
        "-m", "risbal", "--config", str(cfg_file), "--sweep", "lambda",
        "--values", "20", "--drops", "1", "--out", str(out),
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("risbal: numerical failure: gain-total norms")
    assert not out.exists()


_INF_DISTANCE = "path-loss gain 0 at inf m is not in (0, inf)"


@pytest.mark.parametrize("lines, value, message", [
    ("ris_pos = 1e200,25,10", "20", _INF_DISTANCE),  # the squared distance overflows
    ("cell1_radius = 1e300", "20", _INF_DISTANCE),
    ("bs1_pos = 1e308,0,15\nris_pos = -1e308,25,10", "20", _INF_DISTANCE),  # the offset overflows
    ("", "2000", "Hessian product returned non-finite values"),  # Hessian products overflow
    # a power or noise of 10^307 W passes the range check; the rates or the precoder overflow
    ("p_t_dbm = 3100", "20", "overflow encountered in divide"),
    ("noise_dbm = 3100", "20", "degenerate beam direction"),
], ids=["far-surface", "huge-cell", "offset-overflow", "huge-weight", "huge-power", "huge-noise"])
def test_cli_overflow_exits_3_with_one_line(tmp_path, lines, value, message):
    # the overflow is reported by the exit-3 message alone, without numpy's
    # floating-point warnings ahead of it
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text(CFG_TEXT + lines + "\n")
    out = tmp_path / "x.csv"
    proc = _run_python(
        "-m", "risbal", "--config", str(cfg_file), "--sweep", "lambda",
        "--values", value, "--drops", "1", "--out", str(out),
    )
    assert proc.returncode == 3
    assert proc.stderr == f"risbal: numerical failure: {message}\n"
    assert not out.exists()


def test_cli_clamped_distances_warn_once(tmp_path):
    # every link is shorter than the reference distance; the warning's text
    # names no distance, so the default filter prints it once per run
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text(CFG_TEXT + "pathloss_ref_distance_m = 1000\n")
    out = tmp_path / "x.csv"
    proc = _run_python(
        "-m", "risbal", "--config", str(cfg_file), "--sweep", "lambda",
        "--values", "0,20", "--drops", "20", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("RuntimeWarning") == 1, proc.stderr


def test_cli_coincident_nodes_exit_2_with_one_line(tmp_path):
    # BS1 on the surface: the coincidence is reported before any path loss
    # is clamped, so no warning precedes the exit-2 message
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text(CFG_TEXT + "bs1_pos = 40,25,10\nris_pos = 40,25,10\n")
    out = tmp_path / "x.csv"
    proc = _run_python(
        "-m", "risbal", "--config", str(cfg_file), "--sweep", "lambda",
        "--values", "20", "--drops", "1", "--out", str(out),
    )
    assert proc.returncode == 2
    assert proc.stderr == "risbal: config error: coincident points have no direction\n"
    assert not out.exists()


def test_cli_seed_flag_overrides(tmp_path):
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text(CFG_TEXT)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert cli_main([
            "--config", str(cfg_file), "--sweep", "txpower",
            "--values", "30", "--drops", "2", "--seed", "7", "--out", str(out),
        ]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code = cli_main([
        "--config", str(missing), "--sweep", "lambda", "--values", "0",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_cli_undecodable_config_exits_2(tmp_path, capsys):
    # bytes that are not UTF-8 are a config error, not a traceback; a leading
    # byte-order mark is not part of the first key
    out = tmp_path / "x.csv"
    argv = ["--sweep", "lambda", "--values", "0", "--out", str(out)]
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"seed = 1\nnum_drops = 2 # \xff\n")
    assert cli_main(["--config", str(bad), *argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("risbal: config error:")
    assert not out.exists()
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbfseed = 1\nnum_drops = 1\n")
    assert cli_main(["--config", str(bom), *argv]) == 0
    assert out.exists()


def test_cli_unknown_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    code = cli_main([
        "--config", str(bad), "--sweep", "lambda", "--values", "0",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "nonsense" in capsys.readouterr().err


def test_cli_repeated_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed = 1\nseed = 2\n")
    out = tmp_path / "x.csv"
    code = cli_main([
        "--config", str(bad), "--sweep", "lambda", "--values", "0", "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "risbal: config error: line 2: key 'seed' given twice"
    ]
    assert not out.exists()


def test_cli_bad_values_exit_2(tmp_path, capsys):
    code = cli_main([
        "--sweep", "lambda", "--values", "0,banana",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "banana" in capsys.readouterr().err

    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text(CFG_TEXT)
    # -3220 dBm is 0 W as used, though 10^(x/10) of the dB value alone is positive
    for sweep, values in (("txpower", "inf"), ("txpower", "1e308"), ("txpower", "nan"),
                          ("txpower", "-3220"), ("lambda", "1e308"), ("lambda", "10,0,10")):
        out = tmp_path / "v.csv"
        code = cli_main([
            "--config", str(cfg_file), "--sweep", sweep, "--values", values,
            "--out", str(out),
        ])
        assert code == 2, (sweep, values)
        assert capsys.readouterr().err.count("\n") == 1, (sweep, values)
        assert not out.exists()
    for line in ("theta_rad = inf", "p_t_dbm = nan", "noise_dbm = nan", "ris_pos = 40,nan,10",
                 "p_t_dbm = -3220", "noise_dbm = -3220",
                 "pathloss_ref_db = 5000", "pathloss_ref_db = -5000",
                 "direct_link = 4.2,5000,8", "direct_link = 4.2,4000,8"):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CFG_TEXT + line + "\n")
        out = tmp_path / "x.csv"
        code = cli_main([
            "--config", str(bad), "--sweep", "lambda", "--values", "0",
            "--out", str(out),
        ])
        assert code == 2, line
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and line.split()[0] in err, line
        assert not out.exists(), line


def test_cli_vanishing_path_loss_exits_3(tmp_path, capsys):
    # a gain the numbers cannot carry is a numerical failure, not a config error
    for line, message in (
        # a legal exponent whose gain underflows to 0
        ("direct_link = 1000,3,8", "path-loss gain"),
        # a reference gain so small that both Gram totals underflow to 0
        ("pathloss_ref_db = -1000", "gain-total norms"),
        # finite Gram totals whose Frobenius norms overflow to inf
        ("pathloss_ref_db = 1000", "gain-total norms"),
    ):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CFG_TEXT + line + "\n")
        out = tmp_path / "x.csv"
        code = cli_main([
            "--config", str(bad), "--sweep", "lambda", "--values", "20",
            "--out", str(out),
        ])
        assert code == 3, line
        assert message in capsys.readouterr().err, line
        assert not out.exists(), line


def test_cli_large_weight_runs(tmp_path):
    # the Hermitian check scales with R, which grows with the weight; at
    # 200 dB the gradient tolerance is out of reach, and the solver must
    # still end without an overflow or NaN
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text(CFG_TEXT)
    out = tmp_path / "x.csv"
    code = cli_main([
        "--config", str(cfg_file), "--sweep", "lambda", "--values", "60,100,200",
        "--drops", "2", "--out", str(out),
    ])
    assert code == 0
    with open(out, newline="") as fh:
        body = list(csv.reader(fh))[1:]
    assert len(body) == 3 * 2 * len(Scheme)
    assert all(math.isfinite(float(r[4])) for r in body)


def _run_cli_expect_contract(cfg_text, sweep, value):
    """Run one single-drop sweep value on cfg_text; the CLI must return 0
    with finite rows, or 2/3 without writing a CSV, and print no numpy
    floating-point warning."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_file = os.path.join(tmp, "scenario.cfg")
        out = os.path.join(tmp, "out.csv")
        with open(cfg_file, "w") as fh:
            fh.write(cfg_text)
        with warnings.catch_warnings():
            # the documented clamp warning may print; a numpy floating-point
            # warning would print ahead of the exit line, so it fails the run
            warnings.filterwarnings("error", ".*encountered in", RuntimeWarning)
            warnings.filterwarnings("ignore", "distance below reference", RuntimeWarning)
            code = cli_main([
                "--config", cfg_file, "--sweep", sweep, f"--values={value!r}",
                "--drops", "1", "--out", out,
            ])
        assert code in (0, 2, 3)
        if code == 0:
            with open(out, newline="") as fh:
                body = list(csv.reader(fh))[1:]
            assert len(body) == 2 * len(Scheme)
            assert all(math.isfinite(float(r[4])) and math.isfinite(float(r[5])) for r in body)
        else:
            assert not os.path.exists(out)


@settings(max_examples=30, deadline=None)
@given(
    sweep=st.sampled_from(["txpower", "lambda"]),
    value=st.floats(allow_nan=True, allow_infinity=True),
)
@example("txpower", -3220.0)  # 10^(x/10) is positive, the watts are 0
@example("txpower", 3100.0)  # a finite 10^307 W whose rates overflow
def test_cli_any_sweep_value_keeps_exit_contract(sweep, value):
    # a parsed float either gives finite rows or a documented exit code;
    # an escaping exception fails the test
    _run_cli_expect_contract(CFG_TEXT, sweep, value)


_EXTREME = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-308, 300.0, -300.0,
                     -3220.0, 3100.0]),
    st.floats(),
)
_LINKS = ("direct_link", "ris_user_link", "bs_ris_link")
_LINK_PARTS = ("exponent", "rician_db")  # a link field's overridable values, 3 when not drawn
_RIS_POS = ("ris_x", "ris_y", "ris_z")


@settings(max_examples=30, deadline=None)
@given(overrides=st.dictionaries(
    st.sampled_from(("pathloss_ref_db", "p_t_dbm", "noise_dbm", "lambda_db", "theta_rad")
                    + tuple(f"{link}.{part}" for link in _LINKS for part in _LINK_PARTS)
                    + _RIS_POS),
    _EXTREME,
    min_size=1,
    max_size=3,
))
@example({"p_t_dbm": -3220.0})  # 0 W as used
@example({"p_t_dbm": 3100.0})  # a finite 10^307 W whose rates overflow
def test_cli_any_parsed_config_keeps_exit_contract(overrides):
    # up to three physical fields of a config file take extreme values (a
    # link field its path-loss exponent or Rician factor, ris_x/y/z one
    # surface coordinate); the rest keep their defaults so the numerical
    # path is reached too
    lines = [f"{key} = {v!r}" for key, v in overrides.items()
             if "." not in key and key not in _RIS_POS]
    for link in _LINKS:
        keys = [f"{link}.{part}" for part in _LINK_PARTS]
        if any(key in overrides for key in keys):
            exponent, rician_db = (overrides.get(key, 3.0) for key in keys)
            lines.append(f"{link} = {exponent!r},{rician_db!r},2")
    if any(key in overrides for key in _RIS_POS):
        pos = (overrides.get(key, d) for key, d in zip(_RIS_POS, (40.0, 25.0, 10.0)))
        lines.append("ris_pos = " + ",".join(repr(v) for v in pos))
    _run_cli_expect_contract(CFG_TEXT + "\n".join(lines) + "\n", "lambda", 0.0)
