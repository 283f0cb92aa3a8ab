"""p-spectral radii of uniform hypergraphs with labeling certificates."""

from .core import (
    ComponentsResult,
    DegreeProfile,
    UniformHypergraph,
    connected_components,
    degrees,
    induced_subhypergraph,
    load_hypergraph,
    parse_hypergraph,
    serialize_hypergraph,
)
from .errors import ConvergenceError, HypergraphFormatError, PreconditionError
from .labeling import (
    Labeling,
    LabelingVerdict,
    PVector,
    alpha_from_lambda,
    classify_labeling,
    classify_labeling_sub_r,
    eigenvector_from_labeling,
    labeling_from_eigenvector,
    lambda_from_alpha,
    weight_only_residual,
)
from .solver import (
    CertificateSearchResult,
    SolverOptions,
    SpectralResult,
    certificate_search_sub_r,
    compose_components,
    compose_components_max,
    polynomial_form,
    solve_p_spectral,
    solve_weight_system,
    solver_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
