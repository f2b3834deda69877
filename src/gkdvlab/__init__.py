"""Numerical laboratory for generalized KdV dynamics on bounded backgrounds.

The package evolves a localized perturbation u of a prescribed background
field, carries the exact-solution catalog (kinks, cnoidal and dnoidal
waves), and provides the function-space toolkit (Sobolev, enveloped and
modulation-weighted norms, dyadic projectors, the Airy propagator)
needed to check conservation, growth bounds, flow continuity and
vanishing-viscosity convergence quantitatively.
"""

__version__ = "0.1.0"

from .background import (
    Background,
    GardnerKink,
    KdVCnoidal,
    MKdVDnoidal,
    MKdVKink,
    SyntheticBackground,
    TabulatedBackground,
    ZeroBackground,
    residual_S,
    resolve_cnoidal,
    zhidkov_split,
)
from .diagnostics import (
    DiagnosticsReport,
    collect_report,
    flow_lipschitz_experiment,
    invariants_I,
    l2_growth_monitor,
    modified_energy,
)
from .elliptic import complete_elliptic_k, jacobi_sn_cn_dn
from .nonlinearity import AnalyticNonlinearity
from .norms import (
    bourgain_norm,
    enveloped_norm,
    envelope_weights,
    extend_trajectory,
    resonance_vanishing_check,
    sobolev_norm,
)
from .solver import (
    SimulationState,
    SolverConfig,
    SpectralCore,
    evolve,
    picard_solve,
    step,
    vanishing_viscosity,
)
from .spectral import (
    Grid,
    PhysicalField,
    SpectralField,
    Trajectory,
    airy_propagate,
    inverse_transform,
    lp_project,
    spatial_derivative,
    transform,
)
