"""risbal benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload crn_lambda --seed 1 --seconds 50 --trace 0

--trace 0 prints the end-to-end metrics: sweep throughput, CPU per cell,
set-up time and peak memory, measured with tracing off. --trace 1 prints the
per-layer metrics of a traced run instead, after checking that tracing
changes no CSV byte and that every count metric repeats exactly between two
traced runs. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it record the environment
and the checks. Everything the run writes goes under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from proctree import tree_hwm_kb  # noqa: E402
from tracer import COUNT_METRICS, TRACE_DIR_ENV, layer_metrics, load_spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 21
SLACK_S = 30.0      # per process, beyond the seconds it is asked to measure
RSS_SAMPLE_S = 0.05
GRACE_S = 10.0      # for worker processes to end after the sweep process


def workers() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["RISBAL_THREADS"] = str(workers())
    env.pop("PYTHONPATH", None)     # the sweep process imports risbal from src/ only
    env.pop(TRACE_DIR_ENV, None)
    return env


def stop_group(proc: subprocess.Popen) -> None:
    """Stop the sweep process and every process left in its group, and wait
    until they have ended (zombies of reparented processes excepted)."""
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + GRACE_S
    killed = False
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            if killed:
                return
            os.killpg(proc.pid, signal.SIGKILL)
            killed, deadline = True, time.monotonic() + 5.0
        time.sleep(0.05)


def run_child(argv: list[str], timeout: float, trace_dir: Path | None = None) -> dict:
    """Run one sweep process to completion and parse its last stdout line.

    The process runs in a session of its own, so that any worker processes
    it starts can be found and stopped. While it runs, a thread samples the
    summed peak RSS of its live process tree into "tree_peak_kb"."""
    env = child_env()
    if trace_dir is not None:
        trace_dir.mkdir()
        env[TRACE_DIR_ENV] = str(trace_dir)
    proc = subprocess.Popen([sys.executable, str(HERE / "sweep.py"), *argv],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True)
    peak = [0]
    done = threading.Event()

    def sample() -> None:
        while not done.wait(RSS_SAMPLE_S):
            peak[0] = max(peak[0], tree_hwm_kb(proc.pid))

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        done.set()
        sampler.join()
        stop_group(proc)
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"sweep process {argv[:3]} exited with {proc.returncode}")
    res = json.loads(lines[-1])
    res["tree_peak_kb"] = peak[0]
    return res


def sweep_run(args, outdir: Path, seconds: float | None = None, passes: int | None = None,
              trace_dir: Path | None = None) -> dict:
    argv = ["run", "--workload", args.workload, "--seed", str(args.seed), "--outdir", str(outdir)]
    if passes is not None:
        argv += ["--passes", str(passes)]
    else:
        argv += ["--seconds", repr(seconds)]
    return run_child(argv, args.seconds + SLACK_S, trace_dir)


def setup_seconds(args, outdir: Path) -> float:
    """Median time from process start until risbal is imported and the
    workload's config is loaded and validated."""
    w = WORKLOADS[args.workload]
    cfg = outdir / "setup.cfg"
    cfg.write_text(w.config_text(args.seed), encoding="utf-8")
    argv = [sys.executable, str(HERE / "sweep.py"), "probe", "--workload", w.name,
            "--config", str(cfg)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=SLACK_S)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe exited with {code}")
        times.append(ready - start)
    return statistics.median(times)


def traced_layers(res: dict, trace_dir: Path, checks: dict) -> tuple[dict[str, float], bool]:
    """Layer metrics of one traced sweep process and its workers; the flag
    is False when spans are missing (a process the tracer did not reach)."""
    spans, solves = load_spans(str(trace_dir), res["since_ns"])
    drops = sum(1 for s in spans if s[3] == "sim.run_drop")
    complete = drops == res["cells"]
    if not complete:
        checks["errors"].append(f"{trace_dir.name}: {drops} sim.run_drop spans for {res['cells']} cells")
    return layer_metrics(spans, solves, res["cells"], sum(res["sweep_s"]), workers()), complete


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "risbal" / "__init__.py").is_file():
        print(f"risbal sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = WORKLOADS[args.workload]
    outdir = ROOT / ".perfbench_out" / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    checks: dict = {"errors": []}
    extra = 0       # cells failed by the checks made here, across processes

    if not args.trace:
        setup_s = setup_seconds(args, outdir)
        res = sweep_run(args, outdir, seconds=args.seconds)
        runs = [res]
        # Totals over every pass of the run: within a run the machine's noise
        # comes in bursts shorter than a pass, and drops differ in cost, so
        # all the measured time averages both better than a median of the
        # few passes a run holds.
        values = {
            "drop_evals_per_s": res["cells"] / sum(res["sweep_s"]),
            "cpu_ms_per_eval": 1e3 * sum(res["cpu_s"]) / res["cells"],
            "setup_s": setup_s,
            "peak_rss_mb": max(res["peak_rss_kb"], res["tree_peak_kb"]) / 1024.0,
        }
    else:
        plain = sweep_run(args, outdir, seconds=args.seconds / 3)
        dirs = [outdir / f"trace-{i}" for i in (1, 2)]
        traced = [sweep_run(args, outdir, passes=plain["passes"], trace_dir=d) for d in dirs]
        runs = [plain, *traced]
        layers = [traced_layers(r, d, checks) for r, d in zip(traced, dirs)]
        extra += sum(r["cells"] for r, (_, complete) in zip(traced, layers) if not complete)
        for i, r in enumerate(traced, start=1):
            diff = [p for p, (a, b) in enumerate(zip(plain["digests"], r["digests"])) if a != b]
            if diff or len(r["digests"]) != len(plain["digests"]):
                checks["errors"].append(f"traced run {i}: CSV differs from untraced in passes {diff}")
                extra += r["cells"]
        moved = [k for k in COUNT_METRICS if layers[0][0][k] != layers[1][0][k]]
        if moved:
            checks["errors"].append(f"count metrics differ between traced runs: {moved}")
            extra += traced[1]["cells"]
        values = dict(layers[0][0])
        values["trace.overhead_share"] = 1.0 - sum(plain["sweep_s"]) / sum(traced[0]["sweep_s"])

    attempted = sum(r["cells"] for r in runs)
    # The checks made here may fail cells a sweep process failed already.
    failed = min(attempted, sum(r["failed"] for r in runs) + extra)
    for r in runs:
        checks["errors"] += r["errors"]
    checks["rates"] = [r["rate_checks"] for r in runs]
    checks["failed_share"] = failed / attempted if attempted else 1.0
    env = runs[0]["env"]
    result = {
        "correct": failed == 0 and not checks["errors"] and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in bench["per_layer" if args.trace else "end_to_end"]},
    }
    detail = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "passes": [r["passes"] for r in runs], "pass_s": [r["sweep_s"] for r in runs],
              "cells_per_pass": w.cells_per_pass,
              "checks": checks}
    (outdir / "result.json").write_text(
        json.dumps({"env": env, "detail": detail, "result": result}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
