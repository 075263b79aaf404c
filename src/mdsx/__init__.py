"""Finite-field linear codes: constructions, extensions, covering radii,
and deep holes, with exhaustive desk-scale verification."""

from . import errors
from .field import (
    FieldCtx,
    FieldElement,
    Poly,
    field_new,
    minimal_poly_over_base,
    quadratic_extension,
)
from .matrix import Matrix, all_k_columns_independent, first_dependent_columns
from .code import (
    LinearCode,
    code_from_generator,
    extend_g,
    extension_parity_check,
    full_code,
    zero_code,
)
from .covering import (
    CoveringReport,
    covering_radius,
    deep_holes_via_mds,
    distance_to_code,
    extensions_mds,
    full_radius_witness,
    is_deep_hole,
    syndrome_criteria,
)
from .constructions import (
    CuExtensionFacts,
    CyclicSpec,
    DeepHoleCandidate,
    GrsSpec,
    cu_extension_facts,
    cyclic_cu,
    cyclic_spec,
    egrs,
    egrs_dual_code,
    egrs_generator,
    grs,
    grs_dual_weights,
    grs_generator,
    nk_delta_set_check,
    prs,
    roth_lempel,
    subset_sums,
    subset_sums_bruteforce,
    t_set,
    t_set_bruteforce,
    thm12_u,
    thm14_vector,
    thm7_u,
)
from .kernels import DEFAULT_BUDGET
from .suites import SUITES, run_suite

__version__ = "0.1.0"
