"""Finite-group engine and exhaustive search for Ingleton-inequality offenders."""

from .engine import (
    IngletonReport,
    IngletonTerms,
    Quadruple,
    Verdict,
    evaluate,
    exclusion_verdict,
    ingleton_terms,
    is_generative,
    is_indomitable,
    is_irreducible,
    is_offender,
    ratio,
    saturate,
    saturate_normal,
    score,
    shrink_h1,
)
from .errors import (
    BadParams,
    FieldTooSmall,
    IngletonError,
    InvalidGenerator,
    NotNormal,
    NotPrimePower,
    OrderCapExceeded,
    ParentMismatch,
    PreconditionFailed,
    TimeBudgetExceeded,
    UnknownName,
    VerificationFailed,
)
from .fields import FieldTable, field_create
from .groups import (
    DirectProduct,
    GroupSpec,
    GroupTable,
    MatrixGenerators,
    Named,
    PermutationGenerators,
    Projection,
    Quotient,
    build_group,
    matrix_spec,
    perm_spec,
    quotient_group,
    spec_from_json,
    spec_to_json,
)
from .constructions import (
    FamilyQuadruple,
    FamilyReport,
    construct_named,
    dicyclic_spec,
    example_3xpsl27,
    metacyclic_spec,
    parse_named,
    supersoluble_family,
    verify_family,
)
from .search import (
    ALL_FILTERS,
    OffenderClass,
    SearchOptions,
    minimal_constraints,
    search_offenders,
)
from .subgroups import (
    Subgroup,
    all_subgroups,
    core,
    generated_subgroup,
    image_subgroup,
    intersection,
    is_normal,
    is_product_subgroup,
    normal_subgroups,
    product_set_size,
    subgroup_conjugacy_classes,
)

__version__ = "0.1.0"
