"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured margins.
"""

import time
from dataclasses import replace

import numpy as np
from conftest import (
    cascade,
    dense_totals,
    grid_min_objective,
    project_to_tangent,
    quadform,
    random_hermitian,
    random_phi,
    random_tangent,
    tangency_error,
    total_gain_matrix,
)

from risbal import (
    RcgConfig,
    ScenarioConfig,
    Scheme,
    SweepParam,
    balance_matrix,
    design_balanced,
    design_eigen,
    gen_channel_set,
    p1_problem,
    rcg_minimize,
    retract_point,
    run_drop,
    run_sweep,
    write_csv,
)
from risbal.manifold import unit_modulus_error
from risbal.sim import Cell, drop_seed_for


def _pipeline_balance(seed, lam=100.0, cfg=None):
    """Balance matrix from one channel draw at the reference operating point."""
    cfg = cfg if cfg is not None else ScenarioConfig()
    cs = gen_channel_set(cfg, np.random.default_rng(seed))
    return balance_matrix(*dense_totals(cs), lam)


def _se(samples):
    return samples.std(ddof=1) / np.sqrt(samples.size)


def test_manifold_correctness_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    count = 0
    for M in (2, 4, 8, 16):
        for _ in range(50):
            R = random_hermitian(M, rng)
            phi = random_phi(M, rng)
            egrad = -2.0 * (R @ phi)           # true ambient gradient of -phi^H R phi
            g = project_to_tangent(egrad, phi)
            assert tangency_error(g, phi) < 1e-10
            np.testing.assert_allclose(project_to_tangent(g, phi), g, atol=1e-10)
            x = rng.standard_normal(M) + 1j * rng.standard_normal(M)
            assert unit_modulus_error(retract_point(x)) < 1e-12
            t = random_tangent(phi, rng)
            t /= np.linalg.norm(t)
            h = 1e-5
            fd = (-quadform(phi + h * t, R) + quadform(phi - h * t, R)) / (2 * h)
            exact = float(np.real(np.vdot(g, t)))
            assert abs(fd - exact) < 1e-6 * max(abs(exact), 1e-12)
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 200
    assert elapsed < 10.0
    print(f"PASS manifold correctness: 200 instances, {elapsed:.2f}s")


def test_oracle_optimality_m3_grid():
    start = time.perf_counter()
    hits = 0
    n = 50
    for s in range(n):
        rng = np.random.default_rng(1000 + s)
        R = random_hermitian(3, rng)
        f_grid = grid_min_objective(R, levels=24)  # 13824 candidates
        _, trace = design_balanced(R, np.eye(3))
        gap = (trace.objective_values[-1] - f_grid) / abs(f_grid)
        if gap <= 0.02:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 0.95 * n
    assert elapsed < 60.0
    print(f"PASS oracle optimality: {hits}/{n} within 2% of grid optimum, {elapsed:.1f}s")


def test_descent_and_gradient_convergence_m128():
    start = time.perf_counter()
    n = 100
    converged = 0
    cfg = RcgConfig(max_iters=2000)
    grad_tol = 1e-6 * 128
    for s in range(n):
        _, trace = design_balanced(_pipeline_balance(2000 + s, lam=100.0), np.eye(128), cfg)
        assert np.all(np.diff(trace.objective_values) <= 0.0)
        if trace.final_grad_norm < grad_tol:
            converged += 1
    elapsed = time.perf_counter() - start
    assert converged >= 0.99 * n
    assert elapsed < 120.0
    print(f"PASS descent: {converged}/{n} below grad tol at M=128, {elapsed:.1f}s")


def test_theta_invariance_of_uncontrolled_gain():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(7)
    for s in range(50):
        cs = gen_channel_set(cfg, np.random.default_rng(3000 + s))
        A2 = [cascade(h, cs.G2) for h in cs.h_r2]
        _, At2 = dense_totals(cs)
        ref = total_gain_matrix(A2)
        assert np.linalg.norm(At2 - ref) <= 1e-12 * np.linalg.norm(ref)
        phi = random_phi(cs.G2.shape[0], rng)
        base = quadform(phi, At2)
        for theta in (0.0, np.pi / 6, np.pi / 2, np.pi):
            rotated = total_gain_matrix([np.exp(1j * theta) * A for A in A2])
            assert abs(quadform(phi, rotated) - base) <= 1e-10 * abs(base)
    print("PASS theta invariance: 50 instances, 4 offsets, rel err < 1e-10")


def test_trend_reproduction_at_operating_point():
    start = time.perf_counter()
    cfg = ScenarioConfig(num_drops=100, seed=20260810)

    # fixed point: P_T = 30 dBm, lambda = 20 dB
    point = run_sweep(cfg, SweepParam.TRANSMIT_POWER_DBM, [30.0])
    stats = {(r.scheme, r.cell): r for r in point}

    m2 = {s: stats[(s, Cell.CELL2)].mean_sum_rate for s in Scheme}
    e2 = {s: stats[(s, Cell.CELL2)].std_err for s in Scheme}
    m1 = {s: stats[(s, Cell.CELL1)].mean_sum_rate for s in Scheme}
    e1 = {s: stats[(s, Cell.CELL1)].std_err for s in Scheme}

    def comb(a, b):
        return float(np.hypot(a, b))

    # (a) the balanced design recovers cell-2 rate over the conventional design
    gap_a = m2[Scheme.PROPOSED] - m2[Scheme.CONV_RIS]
    se_a = comb(e2[Scheme.PROPOSED], e2[Scheme.CONV_RIS])
    assert gap_a > 2.0 * se_a

    # (b) the surface-free case stays an upper reference for cell 2
    se_b = comb(e2[Scheme.NO_RIS], e2[Scheme.PROPOSED])
    assert m2[Scheme.NO_RIS] >= m2[Scheme.PROPOSED] - se_b

    # (c) cell-1 ordering with gaps reported
    gap_c1 = m1[Scheme.CONV_RIS] - m1[Scheme.PROPOSED]
    gap_c2 = m1[Scheme.PROPOSED] - m1[Scheme.RAND_RIS]
    assert m1[Scheme.CONV_RIS] >= m1[Scheme.PROPOSED]
    assert m1[Scheme.PROPOSED] >= m1[Scheme.RAND_RIS]

    # (d) weight sweep with common random numbers across values
    lam_values = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    sweep = run_sweep(cfg, SweepParam.LAMBDA_DB, lam_values, crn=True)
    prop2 = [r for r in sweep if r.scheme is Scheme.PROPOSED and r.cell is Cell.CELL2]
    prop1 = [r for r in sweep if r.scheme is Scheme.PROPOSED and r.cell is Cell.CELL1]
    prop2.sort(key=lambda r: r.sweep_value)
    prop1.sort(key=lambda r: r.sweep_value)
    for lo, hi in zip(prop2, prop2[1:]):
        assert hi.mean_sum_rate >= lo.mean_sum_rate - comb(lo.std_err, hi.std_err)
    for lo, hi in zip(prop1, prop1[1:]):
        assert hi.mean_sum_rate <= lo.mean_sum_rate + comb(lo.std_err, hi.std_err)

    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    print(
        "PASS trend reproduction: "
        f"(a) cell-2 gain {gap_a:.2f} > 2x{se_a:.2f}; "
        f"(b) NoRis {m2[Scheme.NO_RIS]:.2f} vs Proposed {m2[Scheme.PROPOSED]:.2f} (se {se_b:.2f}); "
        f"(c) cell-1 gaps {gap_c1:.2f} (se {comb(e1[Scheme.CONV_RIS], e1[Scheme.PROPOSED]):.2f}), "
        f"{gap_c2:.2f} (se {comb(e1[Scheme.PROPOSED], e1[Scheme.RAND_RIS]):.2f}); "
        f"(d) weight sweep monotone; {elapsed:.0f}s"
    )


def test_power_sweep_no_ris_stays_above_conventional():
    # the surface-free cell-2 rate acts as an upper reference at every power
    start = time.perf_counter()
    cfg = ScenarioConfig(num_drops=100, seed=20260810)
    res = run_sweep(cfg, SweepParam.TRANSMIT_POWER_DBM, [20.0, 30.0, 40.0])
    gaps = []
    for v in (20.0, 30.0, 40.0):
        sub = {(r.scheme, r.cell): r for r in res if r.sweep_value == v}
        no_ris = sub[(Scheme.NO_RIS, Cell.CELL2)].mean_sum_rate
        conv = sub[(Scheme.CONV_RIS, Cell.CELL2)].mean_sum_rate
        assert no_ris > conv
        gaps.append(no_ris - conv)
    elapsed = time.perf_counter() - start
    print(
        "PASS power sweep: NoRis above ConvRis for cell 2 at 20/30/40 dBm, gaps "
        + ", ".join(f"{g:.2f}" for g in gaps)
        + f"; {elapsed:.0f}s"
    )


def test_design_quality_solve_keeps_what_it_buys():
    # paired on 20 CRN drops of the suite's master seed: the Proposed design
    # against design_eigen of the same core (its own warm start), both rated
    # with the drop's F2. Measured at the default config: Cell2 +3.02 (SE
    # 0.84, 17 of 20 drops positive) at 10 dB and +4.58 (SE 1.15, 20 of 20) at
    # 20 dB; Cell1 +0.07 (SE 0.63) and +0.28 (SE 0.66). Floors leave a margin:
    # three drops fewer, the mean less two SEs rounded down, and Cell1 within
    # two SEs below zero.
    # A solve stopped after one outer iteration keeps 9 of 20 and +0.98 at 20 dB.
    start = time.perf_counter()
    cfg = ScenarioConfig()
    power = cfg.transmit_power_w

    def warm_start_rates(drop, lam):
        """(R1, R2) of design_eigen on the drop's core at linear weight lam."""
        phi = design_eigen(balance_matrix(drop.K1, drop.K2, lam), drop.basis)
        return np.array(drop.rates(phi, power, drop.weight_free(power)[0]))

    floors = {10.0: (14, 1.0), 20.0: (17, 2.0)}  # weight dB: (drops with a gain, mean)
    gains = {lam_db: [] for lam_db in (*floors, "ConvRis")}  # (Cell1, Cell2) per drop
    for d in range(20):
        seed, shared = drop_seed_for(20260810, 0, d, crn=True), {}
        for lam_db in floors:
            rates = run_drop(replace(cfg, lambda_db=lam_db), seed, shared)
            warm = warm_start_rates(shared[seed], 10.0 ** (lam_db / 10.0))
            gains[lam_db].append(rates[Scheme.PROPOSED] - warm)
        gains["ConvRis"].append(rates[Scheme.CONV_RIS] - warm_start_rates(shared[seed], 0.0))
    report = []
    for lam_db, g in gains.items():
        g = np.array(g)
        mean, se = g.mean(axis=0), g.std(axis=0, ddof=1) / np.sqrt(len(g))
        positive = int(np.count_nonzero(g[:, 1] > 0.0))
        label = f"{lam_db:g} dB" if lam_db in floors else lam_db
        report.append(f"{label}: Cell2 {mean[1]:+.2f} (se {se[1]:.2f}, {positive}/20 > 0), "
                      f"Cell1 {mean[0]:+.2f} (se {se[0]:.2f})")
        if lam_db in floors:
            assert positive >= floors[lam_db][0], report[-1]
            assert mean[1] >= floors[lam_db][1], report[-1]
            assert mean[0] >= -2.0 * se[0], report[-1]
    elapsed = time.perf_counter() - start
    print(f"PASS design quality over the warm start: {'; '.join(report)}; {elapsed:.2f}s")


def test_equivalence_and_information_barrier():
    from risbal import run_drop, slnr_beamformer

    cfg = replace(ScenarioConfig(), lambda_db=-np.inf)
    for seed in range(10):
        res = run_drop(cfg, 4000 + seed)
        assert res[Scheme.PROPOSED] == res[Scheme.CONV_RIS]

    base = ScenarioConfig()
    cs = gen_channel_set(base, np.random.default_rng(11))
    f_full = slnr_beamformer(cs.h_d2, base.transmit_power_w, cs.noise_var)
    cs_blind = replace(cs, G2=np.zeros_like(cs.G2), h_r2=np.zeros_like(cs.h_r2))
    f_blind = slnr_beamformer(cs_blind.h_d2, base.transmit_power_w, cs_blind.noise_var)
    np.testing.assert_array_equal(f_full, f_blind)
    print("PASS equivalence: zero-weight design identical to ConvRis; BS2 precoder blind to surface fields")


class _CallBudgetSpent(Exception):
    pass


def _seconds_per_grad_call(R, basis, phi0, budget=200):
    """Best of 5 solves cut after budget gradient calls: seconds per call.
    The problem is built once, before the timed solves."""
    objective, euclid_grad = p1_problem(R, basis)
    cfg = RcgConfig(max_iters=500, grad_tol=0.0)
    best = np.inf
    for _ in range(5):
        calls = 0

        def grad(p):
            nonlocal calls
            if calls == budget:
                raise _CallBudgetSpent
            calls += 1
            return euclid_grad(p)

        t0 = time.perf_counter()
        try:
            rcg_minimize(objective, grad, phi0, cfg)
        except _CallBudgetSpent:
            pass
        elapsed = time.perf_counter() - t0
        assert calls == budget
        best = min(best, elapsed / calls)
    return best


def test_complexity_quadratic_in_surface_size():
    # the trust-region solve spends 1 to M gradient calls per outer
    # iteration, so the work unit timed here is the gradient call:
    # a solve cut after a fixed number of calls, divided by the calls made,
    # must grow no faster than M^2; a dense R is its own core in the identity
    # basis, where a call is two M x M matvecs
    sizes = [64, 128, 256, 512]
    budget = 200
    per_call = []
    for M in sizes:
        rng = np.random.default_rng(M)
        R = random_hermitian(M, rng)
        phi0 = random_phi(M, rng)
        per_call.append(_seconds_per_grad_call(R, np.eye(M), phi0, budget=budget))
    slope = np.polyfit(np.log2(sizes), np.log2(per_call), 1)[0]
    assert slope <= 2.3
    print(
        f"PASS complexity: solve time per gradient call over {budget} calls "
        + ", ".join(f"M={m}: {t*1e6:.1f}us" for m, t in zip(sizes, per_call))
        + f"; log-log slope {slope:.2f} <= 2.3"
    )


def test_complexity_linear_in_surface_size_in_factor_form():
    # with a basis U (M, r) and an r x r core, a gradient call is
    # (-2 U core) (U^H phi), O(M r): from M = 512 to 2048 its time must grow
    # less than 8x, between linear (4x) and quadratic (16x, a dense matvec)
    r = 72
    rng = np.random.default_rng(r)
    core = random_hermitian(r, rng)
    sizes = [512, 2048]
    per_call = []
    for M in sizes:
        U, _ = np.linalg.qr(rng.standard_normal((M, r)) + 1j * rng.standard_normal((M, r)))
        per_call.append(_seconds_per_grad_call(core, U, random_phi(M, rng)))
    growth = per_call[1] / per_call[0]
    assert growth <= 8.0
    print(
        f"PASS factor-form complexity: solve time per gradient call, r={r}, "
        + ", ".join(f"M={m}: {t*1e6:.1f}us" for m, t in zip(sizes, per_call))
        + f"; growth {growth:.1f}x <= 8x"
    )


def test_csv_byte_determinism(tmp_path):
    from conftest import small_cfg

    cfg = small_cfg(num_drops=5)
    blobs = []
    for run in range(2):
        results = run_sweep(cfg, SweepParam.LAMBDA_DB, [0.0, 10.0])
        out = tmp_path / f"run{run}.csv"
        write_csv(results, str(out), SweepParam.LAMBDA_DB)
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    print("PASS determinism: identical CSV bytes from two runs of the same sweep")
