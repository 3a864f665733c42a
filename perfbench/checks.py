"""Output checks on the CSV a sweep writes, and the comparison of its rates
with the stored reference.

The reference (``reference/<workload>.json``) holds the row means of every
pass of a run at the default seed, and their pooled means. A pass that the
reference covers (same seed, same pass index) draws exactly the same drops,
so it is compared with its own reference pass and must match it to rounding.
All other passes draw drops the reference has not seen; they are pooled and
compared with the pooled reference as two independent estimates."""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from workloads import CELLS, CSV_HEADER, SCHEMES, Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# A pooled mean further than this many combined standard errors from the
# pooled reference fails its sweep value. At 5 the chance of a false failure
# in any of the 56 rows of a run is below 1e-4 (healthy runs stay under 3).
# The price is power. A 50 s run pools about 250 drops per value on
# ref_txpower, 120 on crn_lambda and 60 on large_surface, so this test misses
# shifts below about 10 %, 12 % and 17 % of a cell-1 rate (4-10 % of a
# cell-2 rate). The paired test below has no such gap, but only the default
# seed gets it.
RATE_DEV_LIMIT = 5.0
# A pass the reference covers must match its reference pass to within this
# many of the pass's standard errors. Same drops give the same rates, so a
# healthy run on the reference machine reads exactly 0; the slack is for
# rounding differences of another CPU or BLAS, which can shift a solver's
# stopping iteration in a drop. Making Proposed equal to ConvRis moves the
# Proposed cell-2 rows of a ref_txpower pass by 1.4, 5 and 9 standard errors
# at 20, 30 and 40 dBm.
PAIRED_LIMIT = 0.5


def row_key(scheme: str, cell: str, value: str) -> str:
    return f"{scheme},{cell},{value}"


def check_csv(data: bytes, w: Workload) -> tuple[dict[str, tuple[float, float]], set[str], list[str]]:
    """Validate one pass's CSV.

    Returns (rows, bad_values, errors): rows maps row_key -> (mean, std_err)
    for rows of good sweep values; bad_values holds the formatted sweep
    values whose cells count as failed ("*" when the file as a whole is bad).
    """
    errors: list[str] = []
    values = {f"{v:.9g}" for v in w.values}
    try:
        table = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    except (UnicodeDecodeError, csv.Error) as exc:
        return {}, {"*"}, [f"unreadable CSV: {exc}"]
    if not table or table[0] != CSV_HEADER:
        return {}, {"*"}, [f"bad header: {table[0] if table else None}"]
    body = table[1:]
    if len(body) != 8 * len(values):
        return {}, {"*"}, [f"{len(body)} rows, expected {8 * len(values)}"]

    bad: set[str] = set()
    seen: dict[str, set[tuple[str, str]]] = {v: set() for v in values}
    rows: dict[str, tuple[float, float]] = {}
    order = []
    for rec in body:
        if len(rec) != 7 or rec[3] not in values:
            return {}, {"*"}, [f"malformed row {rec}"]
        scheme, cell, param, value, mean_s, se_s, drops_s = rec
        try:
            mean, se = float(mean_s), float(se_s)
        except ValueError:
            mean = se = math.nan
        problem = None
        if scheme not in SCHEMES or cell not in CELLS or param != w.sweep:
            problem = "unknown scheme, cell or sweep parameter"
        elif drops_s != str(w.drops):
            problem = f"num_drops {drops_s}, expected {w.drops}"
        elif not (math.isfinite(mean) and mean >= 0.0 and math.isfinite(se) and se >= 0.0):
            problem = "non-finite or negative rate"
        elif scheme == "NoRis" and cell == "Cell1" and mean != 0.0:
            problem = "NoRis Cell1 rate is not 0"
        if problem:
            errors.append(f"{problem}: {rec}")
            bad.add(value)
        seen[value].add((scheme, cell))
        rows[row_key(scheme, cell, value)] = (mean, se)
        order.append((float(value), scheme, cell))
    for value, pairs in seen.items():
        if len(pairs) != 8:
            errors.append(f"sweep value {value}: {len(pairs)} distinct (scheme, cell) rows, expected 8")
            bad.add(value)
    if order != sorted(order):
        return {}, {"*"}, ["rows not sorted by (sweep_value, scheme, cell)"]
    rows = {k: v for k, v in rows.items() if k.rsplit(",", 1)[1] not in bad}
    return rows, bad, errors


def paired_deviation(rows: dict[str, tuple[float, float]],
                     ref_rows: dict[str, list[float]]) -> tuple[float, set[str], list[str]]:
    """Largest |pass mean - reference pass mean| in the pass's standard errors.

    Returns (max deviation, sweep values over PAIRED_LIMIT, errors). A row
    with zero standard error must match exactly.
    """
    worst = 0.0
    bad: set[str] = set()
    errors: list[str] = []
    for key, (mean, se) in sorted(rows.items()):
        value = key.rsplit(",", 1)[1]
        if key not in ref_rows:
            errors.append(f"row {key} missing from the reference pass")
            bad.add(value)
            continue
        ref_mean = ref_rows[key][0]
        scale = max(se, ref_rows[key][1])
        dev = abs(mean - ref_mean) / scale if scale > 0.0 else (0.0 if mean == ref_mean else math.inf)
        worst = max(worst, dev)
        if dev > PAIRED_LIMIT:
            errors.append(f"row {key}: mean {mean:.9g} is {dev:.3g} std errors from "
                          f"the same drops in the reference ({ref_mean:.9g})")
            bad.add(value)
    return worst, bad, errors


class Pool:
    """Pools per-pass row means into one mean and standard error per row.

    Every pass has the same drop count, so the pooled mean is the mean of
    the pass means and its variance is the sum of pass variances / passes^2.
    A sweep value's rows are added together or not at all, so every row of
    a value has the same pass count.
    """

    def __init__(self) -> None:
        self.sums: dict[str, list[float]] = {}

    def add(self, rows: dict[str, tuple[float, float]]) -> None:
        for key, (mean, se) in rows.items():
            acc = self.sums.setdefault(key, [0.0, 0.0, 0])
            acc[0] += mean
            acc[1] += se * se
            acc[2] += 1

    def pooled(self) -> dict[str, tuple[float, float]]:
        return {k: (s / n, math.sqrt(v) / n) for k, (s, v, n) in self.sums.items()}

    def passes_of(self, value: str) -> int:
        """Number of passes pooled for the sweep value."""
        return next((n for k, (_, _, n) in self.sums.items() if k.rsplit(",", 1)[1] == value), 0)


def load_reference(w: Workload) -> dict:
    with open(REFERENCE_DIR / f"{w.name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def rate_deviation(pooled: dict[str, tuple[float, float]], reference: dict) -> tuple[float, set[str], list[str]]:
    """Largest |pooled mean - pooled reference mean| in combined standard
    errors; for passes the reference does not cover, so the two estimates
    are independent.

    Returns (max deviation, sweep values over RATE_DEV_LIMIT, errors). Rows
    whose rate is exactly 0 with zero error on both sides (NoRis Cell1) are
    compared for equality only.
    """
    worst = 0.0
    bad: set[str] = set()
    errors: list[str] = []
    ref_rows = reference["rows"]
    for key, (mean, se) in sorted(pooled.items()):
        value = key.rsplit(",", 1)[1]
        if key not in ref_rows:
            errors.append(f"row {key} missing from the reference")
            bad.add(value)
            continue
        ref_mean, ref_se = ref_rows[key]
        scale = math.hypot(se, ref_se)
        if scale == 0.0:
            dev = 0.0 if mean == ref_mean else math.inf
        else:
            dev = abs(mean - ref_mean) / scale
        worst = max(worst, dev)
        if dev > RATE_DEV_LIMIT:
            errors.append(f"row {key}: mean {mean:.6g} is {dev:.3g} std errors from reference {ref_mean:.6g}")
            bad.add(value)
    return worst, bad, errors
