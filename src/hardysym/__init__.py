"""Numerical workbench for a weighted Hardy inequality with cylindrical
weight |y| and for symmetrization of the associated Hardy-Sobolev
minimization problem.

Modules:
    grid            radial and cylindrical grids, grid functions, the discrete
                    Dirichlet energy with its gradient and the edge weights
                    of its p = 2 stiffness
    functionals     weighted norms, Dirichlet energies, Rayleigh quotients
    sharp_constant  closed-form constants and the sharpness test families
    rearrange       decreasing rearrangement and double Schwarz symmetrization
    minimizer       projected L-BFGS descent on the constrained quotient,
                    preconditioned by splu, the one factor of its metric
    cli             experiment runner (`hardysym` console script)
"""

from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    ParameterError,
    UsageError,
    WorkbenchError,
)
from .functionals import (
    Params,
    QuotientReport,
    hardy_quotient,
    hs_constraint,
    hs_quotient,
    weighted_dirichlet,
    weighted_p_norm,
)
from .grid import (
    CylGrid,
    GridFunction,
    RadialGrid,
    grid_function_to_csv,
    integrate,
    make_radial_grid,
    radial_grid_from_edges,
    sphere_area,
)
from .minimizer import (
    DescentOptions,
    MinimizationTrace,
    default_init,
    hardy_endpoint_sweep,
    minimize_hs,
    symmetrize_and_compare,
)
from .rearrange import (
    PolyaSzegoReport,
    double_star,
    hardy_littlewood_check,
    is_double_star_fixed,
    polya_szego_check,
    schwarz_y,
    schwarz_z,
)
from .sharp_constant import (
    convexity_bound,
    dirichlet_eigenvalue_interval,
    eps_family,
    eps_family_truncated,
    eps_quotient_closed_form,
    eps_sweep,
    hardy_constant,
    product_family,
    split_infimum_demo,
    tail_correction,
)

__version__ = "1.0.0"
