"""Linear policy evaluation for finite MDPs via projection methods.

Implements the TD(0) fixed point, Bellman-residual minimization, and the
general oblique-projection family with tight spectral-radius error bounds,
plus analytic fixtures and a reproducible random-chain benchmark sweep.
"""

from .mdp import (
    Mdp,
    bellman_apply,
    exact_value,
    make_mdp,
    stationary_distribution,
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
    optimal_direction,
    solve_best,
    solve_br,
    solve_oblique,
    solve_td,
    td_direction,
)
from .analysis import (
    BoundReport,
    ErrorReport,
    br_guarantee,
    concentration_coefficient,
    error_bound,
    error_report,
    stationary_td_bound_check,
)
from .instances import (
    Instance,
    SeedSpec,
    block_triangular,
    ergodic_chain,
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
