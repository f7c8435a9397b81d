"""Exact symbolic and numeric toolkit for Wick algebras.

Core objects: exact complex-rational scalars, free *-algebra polynomials,
coefficient tensors, a confluent normal-ordering rewrite engine, tensor-power
Gram operators with positivity/braid/ideal/KMS certificates, twisted
differential calculus, and a preset catalog of relation families.
"""

import warnings

from .algebra import (
    CoeffTensor,
    Letter,
    Polynomial,
    RelationSystem,
    adjoint_word,
    dag,
    degree,
    gen,
    hermiticity_check,
    letters_of,
    word,
    word_str,
)
from .braid import braid_check, p_n_by_permutations, t_of_permutation
from .catalog import PresetSpec, make_preset, preset_names
from .diffcalc import d_and_twist, form_space_dim, wick_diff_star_algebra_exists
from .eigen import eigvalsh, operator_norm, singular_values
from .exprparse import ParseError, parse_expression, print_polynomial
from .ideals import (
    coherent_annihilation_check,
    ideal_generator_relations,
    minus_one_eigenprojection,
    quadratic_ideal_check,
    wick_ideal_condition_check,
)
from .kms import KmsEvaluator, KmsNonUniquenessError, kms_evaluate, kms_series
from .linalg import Matrix, identity, kron
from .reports import Report, load_relations, load_report, save_relations, save_report
from .rewrite import (
    TermBudgetExceeded,
    ideal_membership,
    is_normal,
    verify_identity,
    wick_order,
)
from .scalars import Scalar, rational, rational_str
from .states import (
    CoherentParam,
    annihilator_apply,
    coherent_functional,
    gram_matrix,
    inner_product,
)
from .tensorops import (
    DimensionCapExceeded,
    SpectralSummary,
    cuntz_stability_predicate,
    embed,
    index_to_word,
    p_n,
    positivity_report,
    spectral_summary,
    t_matrix,
    ttilde_matrix,
    word_to_index,
)

__version__ = "0.1.0"


def __getattr__(name):
    # Deprecated alias, kept for one release: operators are plain Matrix.
    if name == "MatrixOp":
        warnings.warn("MatrixOp is deprecated; use Matrix", DeprecationWarning, stacklevel=2)
        return Matrix
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
