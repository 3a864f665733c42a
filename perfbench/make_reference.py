"""Regenerate the stored reference rates of one workload.

    python3 perfbench/make_reference.py --workload ref_txpower --passes 40

Runs the workload untraced at the default seed for the given number of
passes and stores, in perfbench/reference/<workload>.json, each CSV row's
mean and standard error in every pass and pooled over the passes. Regenerate only in a change to the
benchmark, or in a change that alters the results on purpose and says so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from checks import Pool
from run import HERE, ROOT, run_child
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--passes", type=int, required=True)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    outdir = ROOT / ".perfbench_out" / f"reference-{w.name}-{os.getpid()}"
    outdir.mkdir(parents=True)
    try:
        res = run_child(["run", "--workload", w.name, "--seed", str(DEFAULT_SEED), "--record",
                         "--outdir", str(outdir), "--passes", str(args.passes)], timeout=3600)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if res["failed"] or res["errors"]:
        print(f"reference run failed: {res['errors']}", file=sys.stderr)
        return 1
    pool = Pool()
    for rows in res["pass_rows"]:
        pool.add(rows)
    ref = {"workload": w.name, "seed": DEFAULT_SEED, "drops_per_value": w.drops,
           "rows": pool.pooled(), "passes": res["pass_rows"]}
    (HERE / "reference").mkdir(exist_ok=True)
    with open(HERE / "reference" / f"{w.name}.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
