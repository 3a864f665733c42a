"""The workload process: runs one workload's sweep passes through risbal's
public entry points and prints one JSON result as its last stdout line.

    python3 perfbench/sweep.py run --workload W --seed S --outdir D
        (--seconds T | --passes P) [--record]
    python3 perfbench/sweep.py probe --workload W --config FILE

``run`` repeats the sweep with fresh seeds for about T seconds (or exactly P
passes), timing only run_sweep + write_csv, and checks every CSV against the
stored reference after the timer stops; ``--record`` skips that comparison
and returns every pass's rows instead, to build a reference. ``probe``
imports risbal, loads and validates the workload's config, prints "ready"
and exits; the orchestrator times it from process start as the set-up cost.

With ``tracer.TRACE_DIR_ENV`` set, a tracer is installed at import, before
any sweep runs. Worker processes that import this script as their main
module (spawn, forkserver) install their own; see tracer.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import risbal  # noqa: E402
import risbal.config  # noqa: E402
import risbal.sim  # noqa: E402

from checks import Pool, check_csv, load_reference, paired_deviation, rate_deviation  # noqa: E402
from proctree import tree_cpu_seconds  # noqa: E402
from tracer import TRACE_DIR_ENV, Tracer  # noqa: E402
from workloads import WORKLOADS, pass_seed  # noqa: E402

TRACER = None
if os.environ.get(TRACE_DIR_ENV):
    TRACER = Tracer(os.environ[TRACE_DIR_ENV], worker=__name__ != "__main__")
    TRACER.install()


def load_pass_config(w, outdir: Path, master_seed: int):
    """Write the pass's config file and load it as the CLI would."""
    path = outdir / f"pass-{master_seed}.cfg"
    path.write_text(w.config_text(master_seed), encoding="utf-8")
    cfg = risbal.config.load_config(str(path))
    path.unlink()
    return cfg


def calibration() -> dict[str, float]:
    """Fixed pure-Python and numpy timings (median of 7, ms). They do not
    depend on risbal, so comparing them between two runs tells a change of
    machine speed from a change of the program."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((128, 128)) * (1 + 1j)
    herm = a @ a.conj().T

    def timed(fn) -> float:
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            fn()
            times.append(1e3 * (time.perf_counter() - t0))
        return statistics.median(times)

    return {
        "py_loop_ms": timed(lambda: sum(i * i for i in range(200_000))),
        "np_eigh128_ms": timed(lambda: np.linalg.eigh(herm)),
    }


def environment() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: deps[k].get(f) for f in ("name", "version")}
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = {}
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RISBAL_THREADS")},
        "calibration": calibration(),
    }


class RateChecks:
    """Compares each pass's rows with the reference (see checks.py) and
    counts the cells of every sweep value that fails."""

    def __init__(self, w, seed: int) -> None:
        self.w = w
        self.ref = load_reference(w)
        same = self.ref["seed"] == seed and self.ref["drops_per_value"] == w.drops
        self.ref_passes = self.ref["passes"] if same else []
        self.pool = Pool()
        self.paired = 0
        self.paired_dev = 0.0

    def add(self, index: int, rows: dict) -> tuple[int, list[str]]:
        """Check one pass's good rows; returns (failed cells, errors)."""
        if index >= len(self.ref_passes):
            self.pool.add(rows)
            return 0, []
        dev, bad, errors = paired_deviation(rows, self.ref_passes[index])
        self.paired += 1
        self.paired_dev = max(self.paired_dev, dev)
        return len(bad) * self.w.drops, errors

    def finish(self) -> tuple[int, list[str], dict]:
        """Pooled test of the passes the reference does not cover; returns
        (failed cells, errors, summary)."""
        pooled = self.pool.pooled()
        dev, bad, errors = rate_deviation(pooled, self.ref) if pooled else (0.0, set(), [])
        failed = sum(self.pool.passes_of(v) for v in bad) * self.w.drops
        summary = {"paired_passes": self.paired, "paired_dev_se_max": self.paired_dev,
                   "rate_dev_se_max": dev}
        return failed, errors, summary


def run(args) -> dict:
    w = WORKLOADS[args.workload]
    outdir = Path(args.outdir)
    sweep = risbal.sim.SweepParam(w.sweep)
    values = list(w.values)
    env = environment()

    # Untimed warm-up: one drop of the first value, so lazy library set-up
    # and first-call costs are not charged to the first timed pass.
    warm_cfg = load_pass_config(w, outdir, pass_seed(args.seed, 10**6))
    risbal.sim.run_sweep(replace(warm_cfg, num_drops=1), sweep, values[:1], crn=w.crn)

    rates = None if args.record else RateChecks(w, args.seed)
    sweep_s: list[float] = []       # run_sweep + write_csv wall time per pass
    cpu_s: list[float] = []         # CPU of the whole process tree per pass
    passes = cells = failed = 0
    errors: list[str] = []
    digests: list[str] = []
    pass_rows: list[dict] = []
    started_ns = time.perf_counter_ns()
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if args.passes is not None and passes >= args.passes:
            break
        # Start another pass only if, at the average pass length so far, it
        # should end less than half a pass after the budget. A run then
        # measures about T seconds, give or take half a pass.
        if args.passes is None and passes and elapsed * (passes + 0.5) / passes > args.seconds:
            break
        master = pass_seed(args.seed, passes)
        cfg = load_pass_config(w, outdir, master)
        csv_path = outdir / f"pass-{master}.csv"
        cpu0 = tree_cpu_seconds()
        t0 = time.perf_counter()
        try:
            results = risbal.sim.run_sweep(cfg, sweep, values, crn=w.crn)
            risbal.sim.write_csv(results, str(csv_path), sweep)
        except Exception as exc:  # a failing cell must count, not end the run
            errors.append(f"pass {passes}: {type(exc).__name__}: {exc}")
            failed += w.cells_per_pass
            digests.append("error")
            data = None
        else:
            data = csv_path.read_bytes()
        sweep_s.append(time.perf_counter() - t0)
        cpu_s.append(tree_cpu_seconds() - cpu0)
        index = passes
        passes += 1
        cells += w.cells_per_pass
        if data is None:
            continue
        digests.append(hashlib.sha256(data).hexdigest())
        csv_path.unlink()
        rows, bad, errs = check_csv(data, w)
        failed += w.cells_per_pass if "*" in bad else len(bad) * w.drops
        if rates is None:
            pass_rows.append(rows)
        else:
            bad_cells, more = rates.add(index, rows)
            failed += bad_cells
            errs += more
        errors += [f"pass {index}: {e}" for e in errs]

    result = {
        "passes": passes,
        "cells": cells,
        "since_ns": started_ns,
        "sweep_s": sweep_s,
        "cpu_s": cpu_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digests": digests,
        "env": env,
    }
    if rates is None:
        result["pass_rows"] = pass_rows
    else:
        bad_cells, errs, result["rate_checks"] = rates.finish()
        failed += bad_cells
        errors += errs
    result["failed"] = failed
    result["errors"] = errors[:20]
    if TRACER is not None:
        TRACER.flush()
    return result


def probe(args) -> None:
    risbal.config.load_config(args.config).validate()
    print("ready", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("run", "probe"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir")
    parser.add_argument("--config", help="probe: config file to load")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--record", action="store_true",
                        help="return every pass's rows instead of checking them")
    args = parser.parse_args()
    if not Path(risbal.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"risbal imported from {risbal.__file__}, not from {SRC}")
    if args.mode == "probe":
        probe(args)
    else:
        print(json.dumps(run(args)), flush=True)


if __name__ == "__main__":
    main()
