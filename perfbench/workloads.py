"""Workload definitions shared by the orchestrator, the sweep process and the
reference generator.

A workload is one sweep the risbal CLI could run: a scenario config file, a
sweep parameter with its values, and the CRN flag. One run of a workload
repeats that sweep in "passes"; pass p of a run with seed s uses the master
seed ``pass_seed(s, p)``, so the same seed always gives the same drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 1
# Never used while tuning the benchmark or a change; run it once to confirm
# a claim on drops nobody has looked at.
HELD_OUT_SEED = 20240917

SCHEMES = ("ConvRis", "NoRis", "Proposed", "RandRis")
CELLS = ("Cell1", "Cell2")
CSV_HEADER = [
    "scheme", "cell", "sweep_param", "sweep_value",
    "mean_sum_rate_bps_hz", "std_err", "num_drops",
]


@dataclass(frozen=True)
class Workload:
    name: str
    sweep: str                      # "txpower" (dBm) or "lambda" (dB)
    values: tuple[float, ...]
    crn: bool
    drops: int                      # drops per sweep value in one pass
    config: dict[str, str] = field(default_factory=dict)

    @property
    def cells_per_pass(self) -> int:
        return self.drops * len(self.values)

    def config_text(self, master_seed: int) -> str:
        lines = [f"{k} = {v}" for k, v in self.config.items()]
        lines += [f"num_drops = {self.drops}", f"seed = {master_seed}"]
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        # Reference scenario (defaults: 4x4 BSs, 8x16 surface, 4 users per
        # cell), fresh drop in every cell: nothing to hoist, RCG dominates.
        Workload("ref_txpower", "txpower", (20.0, 30.0, 40.0), crn=False, drops=32,
                 config={"lambda_db": "20"}),
        # Trend-test sweep: every drop reused across all 7 weights, so 6 of 7
        # channel draws and ConvRis designs repeat; spans easy and hard solves.
        Workload("crn_lambda", "lambda", tuple(float(v) for v in range(0, 31, 5)),
                 crn=True, drops=16, config={"p_t_dbm": "30"}),
        # 512-element surface: eigh and the Gram totals dominate, and BLAS
        # threading matters.
        Workload("large_surface", "txpower", (30.0,), crn=False, drops=12,
                 config={"ris_array": "16x32", "lambda_db": "20"}),
    )
}


def pass_seed(seed: int, pass_index: int) -> int:
    return seed * 1_000_003 + pass_index
