"""Monte Carlo harness: per-drop evaluation of all schemes, sweeps, CSV, CLI.

Schemes per drop, all sharing one channel realization (the two designs
also share its Gram factor, built once, on which each design poses its
balance matrix by weights alone):

  Proposed : balancing design at the configured weight
  ConvRis  : balancing design with weight 0 (serving cell only)
  RandRis  : uniform random phases
  NoRis    : cell 2 sees the direct links only; cell 1, being fully blocked,
             is reported as rate 0

Per-drop seeds are a fixed hash-mix of (master seed, sweep index, drop
index); with CRN the sweep index is left out. A sweep runs drop-major, in
one process: each drop index runs every sweep value in turn, and values
with the same drop seed share the drop's channels, Gram factor, RandRis
phases and balanced designs (keyed by linear weight), and per transmit
power the direct-link precoder and the ConvRis, RandRis and NoRis rates. So
a CRN txpower sweep designs once for all powers, and a cell of a CRN lambda
sweep computes only its Proposed design and rates.
A drop runs on one thread of numpy's OpenBLAS where it allows that, one drop
at a time, and the first drop sets a heap policy under which the next drops
reuse the blocks it frees (see the README).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import math
import os
import sys
import threading
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from ._openblas import openblas_function
from .beamform import composite_cell1, composite_cell2, slnr_beamformer
from .channel import gen_channel_set
from .config import ScenarioConfig, _fits, load_config
from .errors import ConfigError, NumericalError, RisbalError
from .metrics import evaluate
from .ris_design import design_balanced, design_random, effective_channels

__all__ = [
    "Scheme",
    "Cell",
    "SweepParam",
    "SweepResult",
    "run_drop",
    "run_sweep",
    "write_csv",
    "cli_main",
]


class Scheme(Enum):
    PROPOSED = "Proposed"
    CONV_RIS = "ConvRis"
    RAND_RIS = "RandRis"
    NO_RIS = "NoRis"


class Cell(Enum):
    CELL1 = "Cell1"
    CELL2 = "Cell2"


class SweepParam(Enum):
    TRANSMIT_POWER_DBM = "txpower"
    LAMBDA_DB = "lambda"


# the config field each sweep sets; a drop serves every config that differs
# from its own in these fields only
_SWEPT_FIELDS = {SweepParam.TRANSMIT_POWER_DBM: "p_t_dbm", SweepParam.LAMBDA_DB: "lambda_db"}
_DROP_FIELDS = [f.name for f in fields(ScenarioConfig) if f.name not in _SWEPT_FIELDS.values()]


@dataclass(frozen=True)
class SweepResult:
    scheme: Scheme
    sweep_value: float
    cell: Cell
    mean_sum_rate: float
    std_err: float
    num_drops: int


@functools.cache
def _openblas_setter():
    """openblas_set_num_threads_local of numpy's OpenBLAS, looked up on first use;
    None where numpy's libraries do not export it (MKL, Accelerate, OpenBLAS < 0.3.27)."""
    return openblas_function("openblas_set_num_threads_local", [ctypes.c_int], ctypes.c_int)


# glibc's mallopt parameters (malloc.h) and the values _keep_freed_blocks sets.
# By default glibc raises its mmap threshold to the largest mapped block freed
# and trims the heap's top once more than twice that is free there. A drop at
# M = 512 frees more than that at once (with a 2 MiB trim threshold it still
# faults hundreds of pages in per cell, with 8 MiB almost none), so every drop
# gave pages back and faulted them in again. These fix the end state of glibc's
# own rule from the start: the mmap threshold at its 64-bit ceiling of 32 MiB
# (DEFAULT_MMAP_THRESHOLD_MAX), the trim threshold at twice it.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20


@functools.cache
def _keep_freed_blocks() -> bool:
    """Set glibc's mmap and trim thresholds once per process, on first use, so
    that the blocks one drop frees serve the next rather than being unmapped
    or trimmed and faulted in again; True if mallopt applied both. A no-op
    that returns False where libc has no mallopt (macOS, Windows) or a stub
    that applies nothing (musl)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD),
                mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)])


_blas_lock = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one thread of numpy's OpenBLAS, then restore the caller's
    count. The setter changes the whole process's count, so the block holds a
    lock: drops entered from several threads run one at a time."""
    setter = _openblas_setter()
    with _blas_lock:
        saved = setter(1) if setter else None
        try:
            yield
        finally:
            if setter:
                setter(saved)


class _Drop:
    """One drop's weight-free work: its draw, its balanced designs by linear
    weight and, per transmit power, the direct-link precoder F2 with the
    ConvRis, RandRis and NoRis rates."""

    def __init__(self, cfg: ScenarioConfig, drop_seed: int) -> None:
        self.cfg = cfg
        chan_ss, phase_ss = np.random.SeedSequence(int(drop_seed)).spawn(2)
        self.channels = gen_channel_set(cfg, np.random.default_rng(chan_ss))
        self.gram = effective_channels(self.channels)
        self.phi_rand = design_random(cfg.ris_array.size, np.random.default_rng(phase_ss))
        self.designs: dict[float, np.ndarray] = {}
        self.per_power: dict[float, tuple[np.ndarray, dict[Scheme, tuple[float, float]]]] = {}

    def design(self, lam: float) -> np.ndarray:
        """The balanced design at weight lam, solved on the drop's Gram factor on first use."""
        if lam not in self.designs:
            self.designs[lam] = design_balanced(self.gram, self.gram.weights(lam))[0]
        return self.designs[lam]

    def rates(self, phi: np.ndarray, power: float, F2: np.ndarray) -> tuple[float, float]:
        """(R1, R2) with phases phi: cell 1 precodes on its composite channel,
        BS 2 keeps F2, which it designed with direct-link knowledge only."""
        noise = self.channels.noise_var
        rows1 = composite_cell1(phi, self.channels)
        r1 = evaluate(rows1, slnr_beamformer(rows1, power, noise), noise).sum_rate
        return r1, evaluate(composite_cell2(phi, self.channels), F2, noise).sum_rate

    def weight_free(self, power: float) -> tuple[np.ndarray, dict[Scheme, tuple[float, float]]]:
        """F2 and the rates of every scheme but Proposed at power, on first use."""
        if power not in self.per_power:
            noise = self.channels.noise_var
            F2 = slnr_beamformer(self.channels.h_d2, power, noise)
            self.per_power[power] = F2, {
                Scheme.CONV_RIS: self.rates(self.design(0.0), power, F2),
                Scheme.RAND_RIS: self.rates(self.phi_rand, power, F2),
                # cell 1 is fully blocked without the surface
                Scheme.NO_RIS: (0.0, evaluate(self.channels.h_d2, F2, noise).sum_rate),
            }
        return self.per_power[power]


def run_drop(
    cfg: ScenarioConfig,
    drop_seed: int,
    shared: dict[int, _Drop] | None = None,
) -> dict[Scheme, tuple[float, float]]:
    """One channel realization, all four schemes; returns (R1, R2) per scheme.

    shared holds the latest draw by its seed. A sweep passes one map to all
    its calls, so values with the same seed and a config that differs only in
    lambda_db and p_t_dbm reuse the draw; any other call replaces it. Nothing
    in a draw may depend on the weight, and only its per-power entries on the
    transmit power. It runs on one BLAS thread, and a floating-point overflow
    or invalid operation, or a failed factorization, in it raises
    NumericalError, so the rates it returns are finite; a drop_seed that is not
    a nonnegative integer (a bool is not) raises ConfigError. The first call in
    a process sets the heap policy of _keep_freed_blocks.
    """
    if not _fits(drop_seed, int) or drop_seed < 0:
        raise ConfigError(f"drop seed must be a nonnegative integer, got {drop_seed!r}")
    _keep_freed_blocks()
    if shared is None:
        shared = {}
    with _one_blas_thread(), np.errstate(over="raise", invalid="raise"):
        try:
            drop = shared.get(drop_seed)
            if drop is None or any(getattr(cfg, f) != getattr(drop.cfg, f) for f in _DROP_FIELDS):
                shared.clear()
                drop = shared[drop_seed] = _Drop(cfg, drop_seed)
            F2, fixed = drop.weight_free(cfg.transmit_power_w)
            proposed = drop.rates(drop.design(cfg.lambda_linear), cfg.transmit_power_w, F2)
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            raise NumericalError(str(exc)) from exc
    return {Scheme.PROPOSED: proposed, **fixed}


def drop_seed_for(seed: int, sweep_index: int, drop_index: int, crn: bool = False) -> int:
    """Deterministic per-drop seed; with crn the sweep index is left out so
    every sweep value reuses the same drops."""
    key = [seed, drop_index] if crn else [seed, sweep_index, drop_index]
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


def run_sweep(
    cfg: ScenarioConfig,
    sweep: SweepParam,
    values: list[float],
    crn: bool = False,
) -> list[SweepResult]:
    """Run num_drops drops per sweep value and aggregate.

    Drop-major: for each drop index, every value runs in turn, all through
    one shared map (see run_drop), so with crn each drop is drawn once. Values
    that print the same in the CSV (to 9 significant digits; -0 equals 0)
    would write conflicting rows and raise ConfigError before any drop runs.
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    cfgs = [replace(cfg, **{_SWEPT_FIELDS[sweep]: float(value)}) for value in values]
    printed = [float(f"{float(value):.9g}") for value in values]
    dups = sorted({v for v in printed if printed.count(v) > 1})
    if dups:
        raise ConfigError(f"duplicate sweep values: {', '.join(f'{v:.9g}' for v in dups)}")

    drops: list[list[dict[Scheme, tuple[float, float]]]] = [[] for _ in values]
    shared: dict[int, _Drop] = {}
    for d in range(cfg.num_drops):
        for si, cfg_v in enumerate(cfgs):
            drops[si].append(run_drop(cfg_v, drop_seed_for(cfg.seed, si, d, crn), shared))

    results: list[SweepResult] = []
    for value, value_drops in zip(values, drops):
        for scheme in Scheme:
            for cell, idx in ((Cell.CELL1, 0), (Cell.CELL2, 1)):
                samples = np.array([d[scheme][idx] for d in value_drops])
                std_err = samples.std(ddof=1) / np.sqrt(samples.size) if samples.size > 1 else 0.0
                results.append(SweepResult(scheme, float(value), cell, float(samples.mean()),
                                           float(std_err), cfg.num_drops))
    return results


def write_csv(results: list[SweepResult], path: str, sweep: SweepParam) -> None:
    """Emit results sorted by (sweep_value, scheme, cell), 9 significant digits.

    Raises NumericalError, before any file is opened, if any row holds a
    non-finite rate or standard error. The rows go to ``<path>.tmp``, which
    then replaces ``path``; on any failure the temporary file is removed and
    an existing file at ``path`` is left as it was.
    """
    for r in results:
        if not (math.isfinite(r.mean_sum_rate) and math.isfinite(r.std_err)):
            raise NumericalError(
                f"non-finite result for {r.scheme.value}/{r.cell.value} at {r.sweep_value:g}"
            )
    ordered = sorted(results, key=lambda r: (r.sweep_value, r.scheme.value, r.cell.value))
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["scheme", "cell", "sweep_param", "sweep_value",
                 "mean_sum_rate_bps_hz", "std_err", "num_drops"]
            )
            for r in ordered:
                writer.writerow(
                    [
                        r.scheme.value,
                        r.cell.value,
                        sweep.value,
                        f"{r.sweep_value:.9g}",
                        f"{r.mean_sum_rate:.9g}",
                        f"{r.std_err:.9g}",
                        r.num_drops,
                    ]
                )
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risbal",
        description="Monte Carlo sum-rate sweeps for the balancing reflection design",
        epilog="The NoRis scheme reports a cell-1 sum rate of 0 (cell 1 has no "
               "direct links). Drops run in order in one process, drop-major: each "
               "drop index runs every sweep value in turn, and values that share a "
               "drop (all of them with --crn) draw its channels and designs once. "
               "A drop runs on one BLAS thread where OpenBLAS allows it (see the README).",
    )
    parser.add_argument("--config", help="scenario config file (defaults used if omitted)")
    parser.add_argument(
        "--sweep",
        required=True,
        choices=[s.value for s in SweepParam],
        help="parameter to sweep",
    )
    parser.add_argument(
        "--values",
        required=True,
        help="comma-separated sweep values (dBm for txpower, dB for lambda)",
    )
    parser.add_argument("--drops", type=int, help="Monte Carlo drops per value")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument(
        "--crn",
        action="store_true",
        help="reuse the same drops across sweep values (variance reduction)",
    )
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ScenarioConfig()
        overrides = {"num_drops": args.drops, "seed": args.seed}
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"--values must be a comma-separated number list, got {args.values!r}")
        sweep = SweepParam(args.sweep)
        write_csv(run_sweep(cfg, sweep, values, crn=args.crn), args.out, sweep)
    except NumericalError as exc:
        print(f"risbal: numerical failure: {exc}", file=sys.stderr)
        return 3
    except RisbalError as exc:
        print(f"risbal: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"risbal: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0
