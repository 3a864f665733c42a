"""CPU time and resident memory of a whole process tree, read from /proc.

A sweep may run its drops in worker processes. Their CPU time reaches
``getrusage(RUSAGE_CHILDREN)`` only once they have been waited for, and
``ru_maxrss`` of children is the largest single child, not the sum of the
workers alive at once. So both are measured over the live tree as well.
"""

from __future__ import annotations

import os
import resource

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def descendants(pid: int) -> list[int]:
    """Live descendants of pid, found through /proc/<pid>/task/*/children."""
    found: list[int] = []
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            tids = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{p}/task/{tid}/children", encoding="ascii") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except OSError:
                continue
            found += kids
            todo += kids
    return found


def _stat_cpu_s(pid: int) -> float:
    """utime + stime of pid plus that of the children it has waited for."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            stat = fh.read()
    except OSError:
        return 0.0
    fields = stat[stat.rindex(")") + 2:].split()   # fields[0] is field 3, "state"
    return sum(int(f) for f in fields[11:15]) * _TICK_S


def tree_cpu_seconds() -> float:
    """User + system CPU of this process, every child it has waited for, and
    every live descendant (with the children each of those has waited for)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return total + sum(_stat_cpu_s(p) for p in descendants(os.getpid()))


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_hwm_kb(pid: int) -> int:
    """Sum of the peak resident sizes (VmHWM) of pid and its live descendants.

    Each term is that process's own peak, so the sum bounds from above what
    the processes alive now have held at once.
    """
    return sum(_hwm_kb(p) for p in [pid, *descendants(pid)])
