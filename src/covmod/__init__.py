"""Exact harmonic analysis of covariant functions on finite groups.

The package realizes, at finite scale and with explicit tolerances, the
structure theory of functions that transform by a character under a normal
subgroup: the averaging operator producing them, the convolution module
they form, and its action on semidirect products through the characters of
the abelian fiber.
Everything is checkable: `covmod verify` re-derives each identity on a
corpus of groups with seeded random data.

The names from `verify` and `bench` load with their module on first use
(PEP 562), so `import covmod` and the CLI's other commands skip both.
"""

import importlib

from .characters import (
    Character,
    char_conj,
    char_inner,
    char_mul,
    enumerate_characters,
    make_character,
    phase_to_complex,
    pullback,
    trivial_character,
)
from .convolution import (
    convolve,
    covariance_residual,
    full_module_action,
    module_action,
    quotient_convolve,
    section_residual,
    verify_module_axioms,
)
from .covariant import (
    CovariantFunction,
    cov_norm,
    from_section,
    project_trivial,
    t_xi,
)
from .errors import (
    CovmodError,
    DiscretizationError,
    DomainMismatchError,
    ExponentError,
    IdentificationError,
    MeasureError,
    NormalityError,
    ResourceError,
    ValidationError,
)
from .groups import (
    FiniteGroup,
    GroupFunction,
    MeasureTriple,
    QuotientGroup,
    Subgroup,
    counting_measure,
    delta_function,
    full_subgroup,
    group_center,
    is_normal,
    lp_norm,
    make_cyclic,
    make_from_table,
    make_subgroup,
    quotient,
    random_function,
    weil_measure,
    weil_residual,
)
from .jsonio import (
    character_from_json,
    character_to_json,
    covariant_from_json,
    covariant_to_json,
    function_from_json,
    function_to_json,
    group_from_json,
    group_id,
    group_to_json,
    subgroup_from_json,
    subgroup_id,
    subgroup_to_json,
)
from .semidirect import (
    SemidirectGroup,
    conv_fast_full_k,
    conv_fast_wh_center,
    conv_fast_wh_full,
    delta_factor,
    heisenberg_finite,
    induced_semidirect,
    lift_character,
    lift_subgroup,
    make_product,
    quotient_action,
    semidirect,
    weyl_heisenberg_finite,
)

__version__ = "0.1.0"

_LAZY = {
    "CorpusEntry": "verify",
    "builtin_corpus": "verify",
    "run_verification": "verify",
    "symmetric_3": "verify",
    "bench_table": "bench",
    "run_bench": "bench",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "Character",
    "CorpusEntry",
    "CovariantFunction",
    "CovmodError",
    "DiscretizationError",
    "DomainMismatchError",
    "ExponentError",
    "FiniteGroup",
    "GroupFunction",
    "IdentificationError",
    "MeasureError",
    "MeasureTriple",
    "NormalityError",
    "QuotientGroup",
    "ResourceError",
    "SemidirectGroup",
    "Subgroup",
    "ValidationError",
    "bench_table",
    "builtin_corpus",
    "char_conj",
    "char_inner",
    "char_mul",
    "character_from_json",
    "character_to_json",
    "conv_fast_full_k",
    "conv_fast_wh_center",
    "conv_fast_wh_full",
    "convolve",
    "counting_measure",
    "cov_norm",
    "covariance_residual",
    "covariant_from_json",
    "covariant_to_json",
    "delta_factor",
    "delta_function",
    "enumerate_characters",
    "from_section",
    "full_module_action",
    "full_subgroup",
    "function_from_json",
    "function_to_json",
    "group_center",
    "group_from_json",
    "group_id",
    "group_to_json",
    "heisenberg_finite",
    "induced_semidirect",
    "is_normal",
    "lift_character",
    "lift_subgroup",
    "lp_norm",
    "make_character",
    "make_cyclic",
    "make_from_table",
    "make_product",
    "make_subgroup",
    "module_action",
    "phase_to_complex",
    "project_trivial",
    "pullback",
    "quotient",
    "quotient_action",
    "quotient_convolve",
    "random_function",
    "run_bench",
    "run_verification",
    "section_residual",
    "semidirect",
    "symmetric_3",
    "t_xi",
    "trivial_character",
    "verify_module_axioms",
    "weil_measure",
    "weil_residual",
    "weyl_heisenberg_finite",
]
