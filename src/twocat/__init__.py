"""Finite 2-categories: validation, limits, the 2-preorder reflection,
morphism classification, and the reflective and monotone-light
factorizations, all at desk scale with exhaustive checking."""

from .classify import (
    ClassificationReport,
    classify,
    covering_oracle,
    is_covering,
    is_edm,
    is_stably_vertical,
    is_trivial_covering,
    is_vertical,
    trivial_covering_oracle,
)
from .core import (
    DEFAULT_CAPS,
    LAW_NAMES,
    AxiomReport,
    SearchCaps,
    TwoCategory,
    TwoFunctor,
    TwoReflexiveGraph,
    build_two_category,
    compose_two_functors,
    coproduct,
    copair,
    enumerate_two_functors,
    find_isomorphism,
    functors_equal,
    identity_two_functor,
    is_isomorphic,
    validate_two_category,
    validate_two_functor,
    vertical_hom,
)
from .errors import (
    BudgetExceeded,
    CyclicPresentation,
    LawViolation,
    MalformedData,
    MismatchedBoundary,
    MismatchedTarget,
    SearchCapExceeded,
    TwoCatError,
    UnknownCell,
)
from .factorize import (
    MLFactorization,
    monotone_light_factor,
    reflective_factor,
    verify_factorization,
)
from .gallery import (
    TwoGraphPresentation,
    edm_cover,
    edm_summands,
    free_two_preorder,
    make_T,
    make_Tn,
    make_h4,
    make_h4_assoc,
    make_h4_na,
    make_v4,
    make_vh4,
    random_instance,
)
from .limits import (
    FiniteSquare,
    PullbackResult,
    is_pullback_square,
    pair_into_pullback,
    product,
    pullback,
    terminal,
    terminal_functor,
)
from .reflection import (
    GraphMorphism,
    ReflectionResult,
    check_semi_left_exact,
    check_stable_units,
    connected_component,
    graph_pullback,
    in_class_E,
    is_two_preorder,
    reflect,
    reflect_functor,
    underlying_graph_morphism,
    underlying_two_graph,
    validate_graph_morphism,
)

__version__ = "0.1.0"
