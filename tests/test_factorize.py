import dataclasses
import json

import pytest

import twocat as tc
from twocat.core import build_two_category
from twocat.serialize import parse_document

from conftest import law_breaking_document, pick_functor


@pytest.fixture(scope="module")
def witness_inclusion(t_family):
    return pick_functor(t_family[1], t_family[2], t1="t1")


class TestMonotoneLight:
    def test_image_construction_collapses_to_the_image_size(self, t_family):
        T3, T4 = t_family[3], tc.make_Tn(4)
        fun = pick_functor(T3, T4, t1="t1", t2="t1", t3="t2")
        fac = tc.monotone_light_factor(fun)
        assert tc.find_isomorphism(fac.middle, tc.make_Tn(2)) is not None
        hom = frozenset(fac.middle.hom("h", "h'"))
        assert {fac.e.f2[t] for t in ("t1", "t2", "t3")} == hom
        assert tc.verify_factorization(fun, fac) == []

    def test_identity_factors_through_itself(self, t_family):
        fun = tc.identity_two_functor(t_family[2])
        fac = tc.monotone_light_factor(fun)
        assert tc.find_isomorphism(fac.middle, t_family[2]) is not None
        assert tc.verify_factorization(fun, fac) == []

    def test_covering_input_gets_an_identity_first_leg(self, t_family):
        fun = pick_functor(t_family[0], t_family[1])
        fac = tc.monotone_light_factor(fun)
        assert tc.find_isomorphism(fac.middle, t_family[0]) is not None
        assert tc.verify_factorization(fun, fac) == []

    def test_certificates_are_recorded(self, witness_inclusion):
        fac = tc.monotone_light_factor(witness_inclusion)
        assert fac.certificates["e"].stably_vertical
        assert fac.certificates["m"].covering


class TestInjectiveTags:
    def test_colliding_tags_keep_every_cell(self):
        cat = build_two_category(
            objects=("x", "y"),
            one_cells={u: ("x", "y") for u in ("a", "a=>b", "b=>c", "c")},
            two_cells={"s": ("a=>b", "c"), "t": ("a", "b=>c")},
        )
        assert tc.validate_two_category(cat).all_pass
        fun = tc.terminal_functor(cat)
        fac = tc.monotone_light_factor(fun)
        assert len(fac.middle.two_cells) == len(cat.two_cells) == 8
        assert fac.e.f2["s"] != fac.e.f2["t"]
        assert tc.validate_two_category(fac.middle).all_pass
        assert tc.verify_factorization(fun, fac) == []


class TestLawBreakingInput:
    def test_both_factorizations_raise_a_law_violation(self):
        cat = parse_document(json.dumps(law_breaking_document()))
        fun = tc.identity_two_functor(cat)
        for factor in (tc.monotone_light_factor, tc.reflective_factor):
            with pytest.raises(tc.LawViolation) as caught:
                factor(fun)
            assert caught.value.law == "boundary"


class TestReflective:
    def test_inverted_functor_gives_a_trivial_pullback(self, t_family):
        fun = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
        fac = tc.reflective_factor(fun)
        assert tc.find_isomorphism(fac.middle, t_family[1]) is not None
        assert tc.verify_factorization(fun, fac) == []

    def test_trivial_covering_input_gets_an_isomorphic_first_leg(self, t_family):
        fun = pick_functor(t_family[0], t_family[1])
        fac = tc.reflective_factor(fun)
        assert tc.find_isomorphism(fac.middle, t_family[0]) is not None
        assert tc.verify_factorization(fun, fac) == []

    def test_identity_factors_trivially(self, t_family):
        fun = tc.identity_two_functor(t_family[1])
        fac = tc.reflective_factor(fun)
        assert tc.verify_factorization(fun, fac) == []


class TestVerification:
    def test_swapping_the_legs_is_caught(self, t_family):
        fun = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
        fac = tc.monotone_light_factor(fun)
        swapped = tc.MLFactorization(
            e=fac.m,
            m=fac.e,
            middle=fac.middle,
            system=fac.system,
            certificates=fac.certificates,
        )
        assert tc.verify_factorization(fun, swapped) != []

    def test_wrong_system_tag_is_caught(self, t_family):
        fun = tc.identity_two_functor(t_family[1])
        fac = tc.monotone_light_factor(fun)
        relabeled = tc.MLFactorization(
            e=fac.e, m=fac.m, middle=fac.middle, system="mystery",
            certificates=fac.certificates,
        )
        assert tc.verify_factorization(fun, relabeled) != []

    def test_identity_factorization_of_identity_is_clean(self, t_family):
        fun = tc.identity_two_functor(t_family[1])
        fac = tc.MLFactorization(
            e=fun,
            m=fun,
            middle=t_family[1],
            system="monotone_light",
            certificates={"e": tc.classify(fun), "m": tc.classify(fun)},
        )
        assert tc.verify_factorization(fun, fac) == []


def _broken_identity(cat):
    """The identity on ``cat`` with ``vid:h`` sent to ``t1``: a graph map
    that breaks the boundary and identity equations at one 2-cell."""
    fun = tc.identity_two_functor(cat)
    return dataclasses.replace(fun, f2={**fun.f2, "vid:h": "t1"})


def _factorization(e, m, system):
    return tc.MLFactorization(e=e, m=m, middle=e.target, system=system, certificates={})


class TestEachCheckRejectsAlone:
    """Negative controls: each factorization breaks exactly one check of
    :func:`verify_factorization`, and that check's message is the only one.

    The functors named ``inclusion``, ``collapse`` and ``swap`` are corpus
    functors between T0..T3; the corpus holds 2-functors only, so the two
    factors that are not 2-functors are built by hand from an identity.
    """

    @pytest.fixture()
    def functors(self, t_family):
        T0, T1, T2 = t_family[:3]
        return {
            "inclusion": pick_functor(T0, T1),  # misses the hom (h, h')
            "collapse": pick_functor(T2, T1, t1="t1", t2="t1"),  # not injective on it
            "swap": pick_functor(T2, T2, t1="t2", t2="t1"),
            "broken": _broken_identity(T1),
            "id1": tc.identity_two_functor(T1),
            "id2": tc.identity_two_functor(T2),
        }

    @pytest.mark.parametrize(
        "fun, e, m, system, message",
        [
            ("swap", "id2", "id2", "monotone_light",
             "the two factors do not compose to the original functor"),
            ("broken", "broken", "id1", "reflective",
             "first factor is not a 2-functor: "),
            ("broken", "id1", "broken", "monotone_light",
             "second factor is not a 2-functor: "),
            ("inclusion", "inclusion", "id1", "reflective",
             "first factor is not inverted by the reflection"),
            ("collapse", "id2", "collapse", "reflective",
             "second factor is not a trivial covering"),
            ("inclusion", "inclusion", "id1", "monotone_light",
             "first factor is not stably vertical"),
            ("collapse", "id2", "collapse", "monotone_light",
             "second factor is not a covering"),
        ],
    )
    def test_one_violation(self, functors, fun, e, m, system, message):
        fac = _factorization(functors[e], functors[m], system)
        violations = tc.verify_factorization(functors[fun], fac)
        assert len(violations) == 1 and violations[0].startswith(message), violations


class TestNontriviality:
    def test_the_two_systems_differ_on_the_witness(self, witness_inclusion):
        fun = witness_inclusion
        assert tc.is_vertical(fun)
        assert not tc.is_stably_vertical(fun)
        reflective = tc.reflective_factor(fun)
        light = tc.monotone_light_factor(fun)
        assert tc.verify_factorization(fun, reflective) == []
        assert tc.verify_factorization(fun, light) == []
        assert tc.find_isomorphism(reflective.middle, light.middle) is None


class TestFunctoriality:
    def test_composite_middles_never_grow(self, t_family):
        T2, T3, T4 = t_family[2], t_family[3], tc.make_Tn(4)
        f = pick_functor(T4, T3, t1="t1", t2="t1", t3="t2", t4="t3")
        g = pick_functor(T3, T2, t1="t1", t2="t2", t3="t2")
        composite = tc.compose_two_functors(g, f)
        fused = tc.monotone_light_factor(composite).middle
        staged = tc.monotone_light_factor(f).middle
        assert all(
            a <= b for a, b in zip(fused.carrier_sizes(), staged.carrier_sizes())
        )

    def test_faithful_second_leg_preserves_the_middle(self, t_family):
        T2, T3 = t_family[2], t_family[3]
        f = pick_functor(T3, T2, t1="t1", t2="t1", t3="t2")
        g = pick_functor(T2, T3, t1="t1", t2="t3")  # injective on cells
        composite = tc.compose_two_functors(g, f)
        fused = tc.monotone_light_factor(composite).middle
        staged = tc.monotone_light_factor(f).middle
        assert tc.find_isomorphism(fused, staged) is not None


def _commutes(m, u, v, e):
    return tc.functors_equal(
        tc.compose_two_functors(m, u), tc.compose_two_functors(v, e)
    )


class TestOrthogonality:
    def _squares(self, functor_corpus, left_class, right_class, limit_pairs):
        lefts = [
            f for fs in functor_corpus.values() for f in fs if left_class(f)
        ][:limit_pairs]
        rights = [
            f for fs in functor_corpus.values() for f in fs if right_class(f)
        ][:limit_pairs]
        for e in lefts:
            for m in rights:
                yield e, m

    def _assert_unique_diagonals(self, functor_corpus, t_family, e, m):
        def index(cat):
            return len(cat.two_cells) - 4

        u_pool = functor_corpus[(index(e.source), index(m.source))]
        v_pool = functor_corpus[(index(e.target), index(m.target))]
        d_pool = functor_corpus[(index(e.target), index(m.source))]
        squares = 0
        for u in u_pool:
            for v in v_pool:
                if not _commutes(m, u, v, e):
                    continue
                squares += 1
                diagonals = [
                    w
                    for w in d_pool
                    if tc.functors_equal(tc.compose_two_functors(w, e), u)
                    and tc.functors_equal(tc.compose_two_functors(m, w), v)
                ]
                assert len(diagonals) == 1
        return squares

    def test_monotone_light_lifting(self, functor_corpus, t_family):
        total = 0
        for e, m in self._squares(
            functor_corpus, tc.is_stably_vertical, tc.is_covering, 12
        ):
            total += self._assert_unique_diagonals(functor_corpus, t_family, e, m)
        assert total > 50

    def test_reflective_lifting(self, functor_corpus, t_family):
        total = 0
        for e, m in self._squares(
            functor_corpus, tc.is_vertical, tc.is_trivial_covering, 12
        ):
            total += self._assert_unique_diagonals(functor_corpus, t_family, e, m)
        assert total > 50
