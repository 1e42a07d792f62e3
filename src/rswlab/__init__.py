"""Exact-solution laboratory for the rotating shallow water equations.

The package verifies, by machine, the symmetry structure of the rotating
shallow water system and every exact solution family built from it:
generator algebra and structure constants, the equivalence transformation
to the non-rotating system, finite group actions as solution-transport
operators, a ten-family solution catalog, and independent verification
via residuals, trajectories, conservation checks, and a finite-volume
cross-check.
"""

from .core import (
    Diagnostics,
    FlowField,
    FlowParameters,
    Window,
    as_cartesian,
    diagnostics,
    potential_vorticity,
)
from .liealg import (
    GeneratorId,
    StructureTable,
    generator_eval,
    lie_bracket,
    pushforward_check,
    structure_constants,
    verify_isomorphism,
)
from .reduction import (
    ImplicitCollapse,
    RingBounds,
    collapse2_build,
    collapse2_verify_ode,
    cubic_roots,
    ring_bounds,
    submodel_residual_contact,
)
from .solutions import (
    ClosureResult,
    TrajectoryFormula,
    closure_condition,
    default_catalog,
    make_family,
    trajectory_formula,
)
from .transforms import (
    GroupAction,
    finite_transform,
    map_field_rsw_to_sw,
    map_field_sw_to_rsw,
    transport_solution,
)
from .verify import (
    MaterialCurve,
    ResidualReport,
    Trajectory,
    evolve_material_curve,
    fv_convergence,
    fv_oracle,
    integrate_trajectory,
    residual_report,
    sample_grid,
)

__version__ = "0.1.0"
