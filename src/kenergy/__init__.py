"""Energy functionals of polarized projective varieties on Bergman metrics,
computed algebraically through Chow forms and hyperdiscriminants and
cross-checked by quadrature of the defining integral on rational curves."""

from .catalog import (
    DiscriminantSet,
    VarietyInstance,
    build_instance,
    load_instance,
    save_instance,
)
from .chern import GradedClass, derive_jet_top_chern, hypersurface_mu
from .energy import (
    EnergyBreakdown,
    build_pair_vectors,
    energy_coefficients,
    energy_via_formula,
    minimize_energy,
)
from .errors import KEnergyError
from .exactpoly import MatrixPoly, right_substitute
from .invariants import (
    VarietyData,
    format_range,
    hyperdiscriminant_degree,
    mu_from_degrees,
)
from .asymptotics import SlopeReport, slope_fit, slope_integer, stability_scan
from .numeric import (
    CurveChart,
    QuadratureSpec,
    energy_quadrature,
    gauss_bonnet,
    mu_quadrature,
)
from .pairing import (
    GroupElement,
    OneParamSubgroup,
    fs_norm_sq,
    log_norm_ratio,
    min_weight,
)

__version__ = "0.1.0"
