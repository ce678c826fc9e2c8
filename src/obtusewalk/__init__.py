"""Complex obtuse random walks and their continuous-time limits.

Numerical toolkit for complex obtuse random variables, their
doubly-symmetric 3-tensors, Takagi-based diagonalization and realification,
multiplication-operator representations, and the classification and
simulation of the limiting normal martingales (mixed Brownian /
compensated-Poisson processes in C^N).
"""

from .errors import ObtuseWalkError
from .obtuse import (
    DEFAULT_TOL,
    ObtuseRV,
    ObtuseSystem,
    SymmetryReport,
    SystemValidation,
    Tensor3,
    check_symmetries,
    embed_general,
    haar_unitary,
    random_system,
    relate_same_probabilities,
    rv_is_centered_normalized,
    system_from_probabilities,
    tensor_of,
    validate_obtuse_system,
)
from .takagi import TakagiResult, takagi
from .tensor import (
    DiagResult,
    RealificationResult,
    diagonalize,
    extract_phases,
    is_real_tensor,
    obtuse_fixed_points,
    realify,
    tensor_from_family,
    transform,
    triangularize_system,
)
from .multop import (
    ChainOperator,
    basis_matrix,
    chain_mult_op,
    conj_mult_op,
    direct_chain_mult_op,
    expectation_functional,
    mult_op,
)
from .limits import (
    LimitSpec,
    LimitSymmetryReport,
    LimitTensorResult,
    TensorFamily,
    check_limit_symmetries,
    classify,
    limit_tensor,
    rescale_tensor,
)
from .simulate import (
    BracketEstimate,
    MomentReport,
    Path,
    distribution_compare,
    empirical_brackets,
    limit_ensemble,
    limit_path,
    walk_ensemble,
    walk_path,
)

__all__ = [
    "DEFAULT_TOL",
    "ObtuseWalkError",
    "ObtuseRV",
    "ObtuseSystem",
    "SystemValidation",
    "SymmetryReport",
    "Tensor3",
    "validate_obtuse_system",
    "rv_is_centered_normalized",
    "tensor_of",
    "check_symmetries",
    "relate_same_probabilities",
    "embed_general",
    "system_from_probabilities",
    "random_system",
    "haar_unitary",
    "TakagiResult",
    "takagi",
    "DiagResult",
    "RealificationResult",
    "tensor_from_family",
    "diagonalize",
    "obtuse_fixed_points",
    "transform",
    "is_real_tensor",
    "realify",
    "triangularize_system",
    "extract_phases",
    "basis_matrix",
    "mult_op",
    "conj_mult_op",
    "expectation_functional",
    "ChainOperator",
    "chain_mult_op",
    "direct_chain_mult_op",
    "TensorFamily",
    "LimitTensorResult",
    "LimitSymmetryReport",
    "LimitSpec",
    "rescale_tensor",
    "limit_tensor",
    "check_limit_symmetries",
    "classify",
    "Path",
    "BracketEstimate",
    "MomentReport",
    "walk_path",
    "limit_path",
    "walk_ensemble",
    "limit_ensemble",
    "empirical_brackets",
    "distribution_compare",
]

__version__ = "0.1.0"
