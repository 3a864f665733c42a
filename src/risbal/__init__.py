"""Balancing reflection design for a surface shared by two operators' cells.

The surface serves one cell's otherwise-blocked users while its reflections
leak, uncontrolled, into a co-located cell owned by a different operator.
The design trades the serving cell's reflective gain against the victim
cell's uncontrolled gain through a weighted, Frobenius-normalized balance
matrix, optimized over unit-modulus coefficients by a Riemannian
trust-region method on the complex circle manifold. A seeded Monte Carlo
harness evaluates the design against conventional, random, and
surface-free baselines in a Rician downlink with leakage-based precoding.
"""

from .beamform import composite_cell1, composite_cell2, slnr_beamformer
from .channel import (
    ChannelSet,
    SteeringSpec,
    gen_channel_set,
    gen_rician_matrix,
    los_angles,
    path_loss_linear,
    upa_steering,
)
from .config import (
    ArrayGeometry,
    Position3D,
    RicianLinkParams,
    ScenarioConfig,
    load_config,
    parse_config_text,
)
from .manifold import (
    ConvergedBy,
    RcgConfig,
    RcgTrace,
    project_to_tangent,
    rcg_minimize,
    retract_point,
)
from .metrics import RateReport, evaluate
from .ris_design import (
    balance_matrix,
    design_balanced,
    design_eigen,
    design_random,
    effective_channels,
    p1_problem,
)
from .sim import (
    Cell,
    Scheme,
    SweepParam,
    SweepResult,
    cli_main,
    run_drop,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"
