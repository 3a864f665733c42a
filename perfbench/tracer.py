"""In-memory span tracing around risbal's public functions, in every process
of the sweep.

``Tracer.install`` replaces each traced function at every risbal module
attribute bound to it (the defining module and every module that imported
the name), so spans follow whatever path the program really takes. A span
records name, start, end, its own id, the id of the enclosing span on the
same thread, and its process and thread; each thread keeps its own parent
stack. The rcg wrapper also counts calls of the objective and gradient
callables and keeps the solver's returned trace.

``sweep.py`` installs a tracer at import whenever ``TRACE_DIR_ENV`` is set,
so a worker process started by spawn or forkserver (which imports the main
script) is traced too; a forked worker inherits the installed wrappers.
The sweep process keeps its spans in memory and writes them once, at the
end. A worker process cannot be relied on to run exit hooks (a pool may
stop it with SIGTERM or ``os._exit``), so it appends its buffered spans to
its own file each time one of its top-level spans ends. Every process writes
``spans-<pid>.jsonl`` in the trace directory; ``load_spans`` merges them.
Span times come from ``time.perf_counter_ns``, the system-wide monotonic
clock, so spans of different processes share one time axis.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import sys
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# (defining module, function, span name); the module part of a span name is
# the layer its self time is charged to.
TRACED = (
    ("risbal.config", "load_config", "config.load_config"),
    ("risbal.sim", "run_drop", "sim.run_drop"),
    ("risbal.sim", "write_csv", "sim.write_csv"),
    ("risbal.channel", "gen_channel_set", "channel.gen_channel_set"),
    ("risbal.ris_design", "design_balanced", "ris_design.design_balanced"),
    ("risbal.ris_design", "effective_channels", "ris_design.effective_channels"),
    ("risbal.ris_design", "balance_matrix", "ris_design.balance_matrix"),
    ("risbal.ris_design", "design_eigen", "ris_design.design_eigen"),
    ("risbal.ris_design", "design_random", "ris_design.design_random"),
    ("risbal.beamform", "composite_cell1", "beamform.composite"),
    ("risbal.beamform", "composite_cell2", "beamform.composite"),
    ("risbal.beamform", "slnr_beamformer", "beamform.slnr_beamformer"),
    ("risbal.metrics", "evaluate", "metrics.evaluate"),
    ("risbal.manifold", "rcg_minimize", "manifold.rcg_minimize"),
)


class Tracer:
    def __init__(self, out_dir: str, worker: bool) -> None:
        """out_dir receives spans-<pid>.jsonl; worker selects flushing after
        every top-level span instead of once at the end."""
        self.out_dir = out_dir
        self.worker = worker
        # (pid, id, parent id or 0, name, start ns, end ns, thread id)
        self.spans: list[tuple] = []
        # one record per solve: (pid, span id, iterations, hit cap, objective
        # calls, gradient calls, objective at start, objective at end)
        self.solves: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.worker = True
        self.spans, self.solves = [], []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return sid, fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append((os.getpid(), sid, parent, name, start, end,
                                   threading.get_ident()))
            if self.worker and not stack:
                self.flush()

    # functools.wraps keeps each wrapper picklable by reference: pickle finds
    # it under the original's module and name, so a sweep that sends a traced
    # function to a worker process still works.
    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs)[1]

        return traced

    def wrap_rcg(self, name, fn):
        @functools.wraps(fn)
        def traced(objective, euclid_grad, *args, **kwargs):
            calls = [0, 0]

            def counted_objective(p):
                calls[0] += 1
                return objective(p)

            def counted_grad(p):
                calls[1] += 1
                return euclid_grad(p)

            sid, (phi, trace) = self._run(
                name, fn, (counted_objective, counted_grad) + args, kwargs
            )
            values = trace.objective_values
            with self._lock:
                self.solves.append((
                    os.getpid(),
                    sid,
                    int(trace.iterations),
                    trace.converged_by.name == "MAX_ITERS",
                    calls[0],
                    calls[1],
                    float(values[0]),
                    float(values[-1]),
                ))
            if self.worker and not self._stack():
                self.flush()
            return phi, trace

        return traced

    def install(self) -> None:
        """Wrap every traced function at each risbal module attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "risbal" or n.startswith("risbal."))]
        for mod_name, fn_name, span_name in TRACED:
            original = getattr(sys.modules[mod_name], fn_name)
            if fn_name == "rcg_minimize":
                wrapper = self.wrap_rcg(span_name, original)
            else:
                wrapper = self.wrap(span_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def flush(self) -> None:
        """Append the buffered spans and solves to this process's file."""
        with self._lock:
            spans, self.spans = self.spans, []
            solves, self.solves = self.solves, []
        if not spans and not solves:
            return
        lines = [json.dumps(["s", *s]) for s in spans] + [json.dumps(["r", *r]) for r in solves]
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def load_spans(trace_dir: str, since_ns: int) -> tuple[list[tuple], list[tuple]]:
    """All spans that started at or after since_ns, from every process's
    file in trace_dir, and the solves recorded inside them."""
    spans: list[tuple] = []
    solves: list[tuple] = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                (spans if rec[0] == "s" else solves).append(tuple(rec[1:]))
    spans = [s for s in spans if s[4] >= since_ns]
    kept = {(s[0], s[1]) for s in spans}
    return spans, [r for r in solves if (r[0], r[1]) in kept]


def percentile(xs: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default); 0.0 for no samples."""
    if not xs:
        return 0.0
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# Count metrics that must repeat exactly between two traced runs of one seed.
COUNT_METRICS = (
    "channel.gen_channel_set.calls_per_eval",
    "ris_design.effective_channels.calls_per_eval",
    "ris_design.design_eigen.calls_per_eval",
    "ris_design.design_balanced.calls_per_eval",
    "manifold.rcg_minimize.iters_p50",
    "manifold.rcg_minimize.iters_p95",
    "manifold.rcg_minimize.cap_hit_share",
    "manifold.rcg_minimize.obj_evals_per_solve",
    "manifold.rcg_minimize.grad_evals_per_solve",
    "beamform.slnr_beamformer.calls_per_eval",
    "metrics.evaluate.calls_per_eval",
)

LAYERS = ("channel", "ris_design", "manifold", "beamform", "metrics", "sim")


def layer_metrics(spans: list[tuple], solves: list[tuple], cells: int, sweep_s: float,
                  workers: int) -> dict[str, float]:
    """Per-layer metrics from the spans and solves of ``load_spans``.

    cells is the number of (sweep value, drop) cells run, sweep_s the summed
    wall time of the timed run_sweep + write_csv calls and workers the worker
    count the sweep used. A function that was never called reads 0.
    """
    ms: dict[str, list[float]] = {}
    self_ms: dict[str, list[float]] = {}
    covered: dict[tuple[int, int], int] = {}
    for pid, sid, parent, name, start, end, _ in spans:
        if parent:
            covered[pid, parent] = covered.get((pid, parent), 0) + (end - start)
    roots_ns = 0
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for pid, sid, parent, name, start, end, _ in spans:
        dur = (end - start) / 1e6
        own = dur - covered.get((pid, sid), 0) / 1e6
        ms.setdefault(name, []).append(dur)
        self_ms.setdefault(name, []).append(own)
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own
        if not parent and name not in ("config.load_config", "sim.write_csv"):
            roots_ns += end - start
    busy = sum(layer_self.values())

    def per_eval(name):
        return len(ms.get(name, [])) / cells

    def p(name, q, table=ms):
        return percentile(table.get(name, []), q)

    solves = [s[2:] for s in solves]    # (iterations, cap hit, obj, grad, start, end)
    n_solves = max(len(solves), 1)
    gains = [(s[4] - s[5]) / abs(s[4]) for s in solves if s[4] != 0.0]
    out = {
        "channel.gen_channel_set.calls_per_eval": per_eval("channel.gen_channel_set"),
        "channel.gen_channel_set.ms_p50": p("channel.gen_channel_set", 50),
        "channel.gen_channel_set.ms_p90": p("channel.gen_channel_set", 90),
        "ris_design.effective_channels.calls_per_eval": per_eval("ris_design.effective_channels"),
        "ris_design.effective_channels.ms_p50": p("ris_design.effective_channels", 50),
        "ris_design.effective_channels.ms_p90": p("ris_design.effective_channels", 90),
        "ris_design.balance_matrix.ms_p50": p("ris_design.balance_matrix", 50),
        "ris_design.design_eigen.calls_per_eval": per_eval("ris_design.design_eigen"),
        "ris_design.design_eigen.ms_p50": p("ris_design.design_eigen", 50),
        "ris_design.design_eigen.ms_p90": p("ris_design.design_eigen", 90),
        "ris_design.design_balanced.calls_per_eval": per_eval("ris_design.design_balanced"),
        "ris_design.design_balanced.self_ms_p50": p("ris_design.design_balanced", 50, self_ms),
        "manifold.rcg_minimize.ms_p50": p("manifold.rcg_minimize", 50),
        "manifold.rcg_minimize.ms_p90": p("manifold.rcg_minimize", 90),
        "manifold.rcg_minimize.iters_p50": percentile([s[0] for s in solves], 50),
        "manifold.rcg_minimize.iters_p95": percentile([s[0] for s in solves], 95),
        "manifold.rcg_minimize.cap_hit_share": sum(s[1] for s in solves) / n_solves,
        "manifold.rcg_minimize.obj_evals_per_solve": sum(s[2] for s in solves) / n_solves,
        "manifold.rcg_minimize.grad_evals_per_solve": sum(s[3] for s in solves) / n_solves,
        "manifold.rcg_minimize.obj_gain_rel": percentile(gains, 50),
        "beamform.slnr_beamformer.calls_per_eval": per_eval("beamform.slnr_beamformer"),
        "beamform.slnr_beamformer.ms_p50": p("beamform.slnr_beamformer", 50),
        "beamform.composite.ms_p50": p("beamform.composite", 50),
        "metrics.evaluate.calls_per_eval": per_eval("metrics.evaluate"),
        "metrics.evaluate.ms_p50": p("metrics.evaluate", 50),
        "sim.run_drop.ms_p50": p("sim.run_drop", 50),
        "sim.run_drop.ms_p90": p("sim.run_drop", 90),
        "sim.worker_busy_share": roots_ns / 1e9 / (sweep_s * workers) if sweep_s > 0 else 0.0,
        "sim.write_csv.ms": p("sim.write_csv", 50),
        "config.load_config.ms": p("config.load_config", 50),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / busy if busy > 0 else 0.0
    return out
