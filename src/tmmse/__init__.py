"""Distributed team-MMSE precoding for cell-free massive MIMO on radio stripes.

Simulation library and CLI covering stripe deployment geometry,
Ricean channel statistics with per-TX local CSI, closed-form team-MMSE
precoders for every stripe CSIT sharing pattern, duality-based downlink
rate evaluation under sum and per-TX power constraints, and an exact
finite-support team-decision oracle used to verify the closed forms.
"""

__version__ = "0.1.0"

import os

# One BLAS thread per thread of the drop's pool (parallel.map_ordered): BLAS
# threads inside each pool thread oversubscribe the cores.  Set before numpy
# is first imported, which is when BLAS reads them; a value the user set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .channel import (
    ChannelStatistics,
    Ensemble,
    FiniteSupportModel,
    LocalCsiModel,
    build_statistics,
    channel_gain,
    draw_ensemble,
    finite_support_statistics,
    from_local_supports,
    noise_power_dbm,
    path_loss_db,
)
from .cli import ScenarioConfig, emit_cdf, run
from .evaluation import (
    InfeasiblePowerError,
    MomentEstimates,
    PowerSolution,
    allocate,
    compute_mse,
    dual_sinr_targets,
    duality_power_allocation,
    estimate_moments,
    evaluate,
    hardening_rates,
    per_tx_scaling,
)
from .oracle import FiniteTeamProblem, mse_exact, solve_team_exact, verify_stationarity
from .precoding import (
    SCHEMES,
    SingularCoefficientSystem,
    SingularSweepError,
    StripeStatistics,
    apply_scheme,
    centralized_mmse,
    estimate_stripe_statistics,
    fit_scheme,
    local_filter,
    solve_statistical_precoders_bi,
    solve_statistical_precoders_uni,
    stripe_forward_pass,
    tmmse_bidirectional,
    tmmse_unidirectional,
)
from .topology import (
    AssociationMap,
    Deployment,
    assign_serving_stripes,
    build_grid_deployment,
    stripe_layout,
)
