"""Numerical laboratory for generalized KdV dynamics on bounded backgrounds.

The package evolves a localized perturbation u of a prescribed background
field, carries the exact-solution catalog (kinks, cnoidal and dnoidal
waves), and provides the function-space toolkit (Sobolev, enveloped and
modulation-weighted norms, dyadic projectors, dispersive propagators)
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
    check_hypotheses,
    residual_S,
    resolve_cnoidal,
    zhidkov_split,
)
from .diagnostics import (
    DiagnosticsReport,
    collect_report,
    envelope_tail_monitor,
    flow_lipschitz_experiment,
    invariants_I,
    l2_growth_monitor,
    modified_energy,
)
from .elliptic import complete_elliptic_k, jacobi_cn_dn, jacobi_sn_cn_dn
from .nonlinearity import AnalyticNonlinearity
from .norms import (
    WeightSequence,
    bourgain_norm,
    enveloped_norm,
    extend_trajectory,
    modulation_project,
    resonance,
    resonance_vanishing_check,
    sobolev_norm,
    strichartz_certificate,
)
from .solver import (
    SimulationState,
    SolverConfig,
    SpectralCore,
    evolve,
    picard_solve,
    rhs,
    step,
    vanishing_viscosity,
)
from .spectral import (
    Grid,
    PhysicalField,
    SpectralField,
    Trajectory,
    airy_propagate,
    bessel_potential,
    dissipative_propagate,
    inverse_transform,
    lp_project,
    lp_project_below,
    pseudoproduct,
    riesz_potential,
    spatial_derivative,
    transform,
)
