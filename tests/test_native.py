"""risbal._native, the one module that calls native code: its lookups, the
drop's thread and heap environment, and the zheevr warm start."""

import ast
import ctypes
import platform
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import blas_threads, needs_openblas, small_cfg

import risbal
import risbal._native
import risbal.sim
from risbal import (
    ArrayGeometry,
    ScenarioConfig,
    design_balanced,
    design_eigen,
    effective_channels,
    gen_channel_set,
    run_drop,
)
from risbal.errors import NumericalError


def _imports_ctypes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "ctypes" for name in names):
            return True
    return False


def test_no_module_but_native_imports_ctypes():
    # every foreign call goes through risbal._native; the numerics and the
    # simulation reach native code only through its functions
    package = Path(risbal.__file__).parent
    importers = sorted(p.name for p in package.glob("*.py")
                       if _imports_ctypes(ast.parse(p.read_text(encoding="utf-8"))))
    assert importers == ["_native.py"]


def test_numpy_wheels_export_the_native_hooks():
    # numpy's own Linux wheels link scipy-openblas, which exports the thread
    # setter and LAPACKE's zheevr, and run on glibc, whose mallopt applies the
    # heap thresholds; there none of the tests that need these may skip unseen
    if not sys.platform.startswith("linux"):
        pytest.skip(f"numpy's own wheels are checked on Linux, not {sys.platform}")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:
        pytest.skip("numpy.show_config has no dicts mode")
    if blas != "scipy-openblas":
        pytest.skip(f"numpy's BLAS is {blas}, not the scipy-openblas of numpy's own wheels")
    assert risbal._native.set_blas_threads is not None
    assert risbal._native.zheevr is not None
    if platform.libc_ver()[0] == "glibc":
        assert risbal._native._keep_freed_blocks()


def test_native_function_is_none_where_nothing_exports_it(monkeypatch):
    lookup = risbal._native._function
    assert lookup("risbal_exports_no_such_symbol", [], None) is None

    def unopenable(path):
        raise OSError(f"{path}: cannot open shared object file")

    # the extension is opened again on each lookup, and fails
    monkeypatch.setattr(risbal._native.ctypes, "CDLL", unopenable)
    assert lookup("openblas_set_num_threads_local", [ctypes.c_int], ctypes.c_int) is None


@needs_openblas
def test_run_drop_runs_on_one_blas_thread(monkeypatch):
    seen = []
    original = risbal.sim.effective_channels

    def recorded(channels):
        seen.append(blas_threads())
        return original(channels)

    def failing(channels):
        seen.append(blas_threads())
        raise NumericalError("injected")

    setter = risbal._native.set_blas_threads
    before = setter(2)
    try:
        monkeypatch.setattr(risbal.sim, "effective_channels", recorded)
        run_drop(small_cfg(), 3)
        assert seen == [1] and blas_threads() == 2
        monkeypatch.setattr(risbal.sim, "effective_channels", failing)
        with pytest.raises(NumericalError, match="injected"):
            run_drop(small_cfg(), 4)
        assert seen == [1, 1] and blas_threads() == 2
    finally:
        setter(before)


@needs_openblas
def test_concurrent_drops_restore_the_callers_blas_threads(monkeypatch):
    # the count is one per process, so drops entered from several threads run
    # one at a time: each holds its one thread until it ends, then restores
    # the caller's count. Each drop waits 10 ms inside, so that without the
    # lock another thread always enters meanwhile, which inside counts
    seen, inside = [], []
    original = risbal.sim.effective_channels

    def recorded(channels):
        inside.append(1)
        time.sleep(0.01)
        seen.append((blas_threads(), len(inside)))
        inside.pop()
        return original(channels)

    def drops(first_seed):
        for seed in range(first_seed, first_seed + 5):
            run_drop(small_cfg(), seed)

    monkeypatch.setattr(risbal.sim, "effective_channels", recorded)
    setter = risbal._native.set_blas_threads
    before = setter(2)
    try:
        threads = [threading.Thread(target=drops, args=(10 * i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert seen == [(1, 1)] * 20 and blas_threads() == 2
    finally:
        setter(before)


def test_large_drops_reuse_the_heap_blocks_freed_before_them():
    # after one warm-up drop, each drop on a 512-element surface takes its
    # megabyte-sized arrays from the blocks the drop before it freed, instead
    # of faulting fresh pages in: hundreds of minor faults a drop under
    # glibc's default thresholds, against at most about 10 under the ones
    # _keep_freed_blocks sets, where a drop still grows the heap by a few pages
    resource = pytest.importorskip("resource")
    cfg = replace(ScenarioConfig(), ris_array=ArrayGeometry(16, 32), lambda_db=20.0)
    run_drop(cfg, 1)
    if not risbal._native._keep_freed_blocks():
        pytest.skip("libc has no mallopt that applies the heap thresholds")
    faults = []
    for seed in range(2, 7):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_drop(cfg, seed)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults) < 16, faults


@pytest.mark.skipif(risbal._native.zheevr is None,
                    reason="numpy's libraries do not export scipy_LAPACKE_zheevr64_")
@pytest.mark.parametrize("ris_array", [ArrayGeometry(8, 16), ArrayGeometry(16, 32)],
                         ids=["M128", "M512"])
def test_zheevr_and_eigh_paths_agree(monkeypatch, ris_array):
    # the subset eigensolver and numpy's full eigh give the same warm start,
    # and the designs solved from them end at the same objective
    binding = risbal._native.zheevr
    for seed in (0, 1):
        cfg = ScenarioConfig(ris_array=ris_array)
        gram = effective_channels(gen_channel_set(cfg, np.random.default_rng(seed)))
        for lam in (0.0, 1.0, 10.0, 100.0, 1000.0):
            d = gram.weights(lam)
            runs = []
            for zheevr in (binding, None):
                monkeypatch.setattr(risbal._native, "zheevr", zheevr)
                runs.append((design_eigen(gram, d), design_balanced(gram, d)[1]))
            (phi_a, trace_a), (phi_b, trace_b) = runs
            assert np.abs(phi_a - phi_b).max() <= 1e-10
            f_a, f_b = trace_a.objective_values[-1], trace_b.objective_values[-1]
            assert abs(f_a - f_b) <= 1e-9 * abs(f_b)
