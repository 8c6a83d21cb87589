"""Worst-case (sublinear) Levy evolution on the torus.

Builds the smallest translation-invariant nonlinear evolution dominating a
finite family of linear Levy semigroups, by dyadic refinement of one-step
sup-envelopes over exact spectral multipliers.  Ships independent oracles
(jump-count series, classical Runge-Kutta integration of the sup-generator
equation) and a Monte Carlo dual over feedback-controlled paths.
"""

__version__ = "0.1.0"

from .errors import BudgetError, ConfigurationError, ConsistencyError, SublevyError
from .grid import (
    GridFunction,
    Spectrum,
    TorusGrid,
    cyclic_shift,
    forward_transform,
    inverse_transform,
    make_grid,
    read_function_csv,
    sample,
    sup_distance,
    wrap_point,
    write_function_csv,
)
from .levy import (
    GeneratorFamily,
    LevyQuadruple,
    SpectralWorkspace,
    SymbolTable,
    apply_multipliers,
    compound_poisson,
    diffusion,
    drift,
    family_constant,
    family_from_json,
    family_to_json,
    load_family,
    sample_increment,
    sample_increments,
    save_family,
    snap_to_grid,
    wrapped_cauchy_quadruple,
)
from .mc import (
    DualBoundReport,
    McEstimate,
    SimpleStrategy,
    constant_strategy,
    dual_bound_suite,
    estimate,
    extract_strategy,
    interpolate_linear,
    load_strategy,
    path_payoffs,
    random_strategy,
    save_strategy,
    simulate_paths,
)
from .nisio import (
    ArgmaxField,
    NisioResult,
    Partition,
    apply_J,
    apply_partition,
    dpp_check,
    generator_limit_table,
    generator_sup,
    lipschitz_bound,
    nisio_evolve,
    partition_continuity_probe,
)
from .oracles import (
    Trajectory,
    mass_diagnostic,
    picard_solve,
    poisson_series_apply,
    residual_check,
    stability_limit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
