"""Linear policy evaluation for finite MDPs via projection methods.

Implements the TD(0) fixed point, Bellman-residual minimization, and the
general oblique-projection family bounded by the norm of the oblique projector,
plus the paper's example 1 and a reproducible random-chain benchmark sweep.
"""

from .mdp import (
    Mdp,
    bellman_apply,
    exact_value,
    make_mdp,
    validate,
)
from .projections import (
    FeatureBasis,
    StateWeights,
    make_feature_basis,
    make_state_weights,
    weighted_norm,
)
from .solvers import (
    ProjectionSolution,
    br_direction,
    solve_best,
    solve_br,
    solve_oblique,
    solve_td,
    td_direction,
)
from .analysis import (
    ErrorReport,
    error_report,
)
from .instances import (
    Instance,
    SeedSpec,
    example1,
    random_chain,
    random_features,
    random_weights,
)
from .harness import (
    SweepConfig,
    aggregate,
    run_column,
    sweep,
)

__version__ = "0.1.0"
