import itertools
import sys

import pytest

import twocat as tc
from twocat.core import build_two_category

from conftest import identity_on_cells, pick_functor


def assert_same_functors(ours, theirs):
    """Both iterables yield functors with equal maps, in the same order."""
    for index, (a, b) in enumerate(itertools.zip_longest(ours, theirs)):
        assert a is not None and b is not None, f"lengths differ at {index}"
        assert (a.f0, a.f1, a.f2) == (b.f0, b.f1, b.f2), f"functor {index} differs"


def empty_category():
    return build_two_category(objects=(), one_cells={}, two_cells={})


class TestValidation:
    def test_probe_object_passes_all_laws(self):
        report = tc.validate_two_category(tc.make_T())
        assert report.all_pass
        assert report.lines()[0] == "1-assoc: pass"

    def test_empty_carriers_pass_vacuously(self):
        assert tc.validate_two_category(empty_category()).all_pass

    def test_non_associative_gallery_item_fails_exactly_h_assoc(self):
        cat = tc.make_h4_na()
        report = tc.validate_two_category(cat)
        assert set(report.failures) == {"h-assoc"}
        assert report.counterexample("h-assoc") == ("a23", "a12", "a01")
        # the two evaluations of that triple are distinct cells
        left = cat.horiz_compose[(cat.horiz_compose[("a23", "a12")], "a01")]
        right = cat.horiz_compose[("a23", cat.horiz_compose[("a12", "a01")])]
        assert (left, right) == ("a03x", "a03")

    def test_dangling_identifier_is_malformed(self):
        with pytest.raises(tc.MalformedData):
            tc.validate_two_category(
                build_two_category(
                    objects=("x",),
                    one_cells={"u": ("x", "y")},
                    two_cells={},
                )
            )

    def test_missing_table_row_is_malformed(self):
        cat = tc.make_T()
        broken = tc.TwoCategory(
            objects=cat.objects,
            one_cells=cat.one_cells,
            one_identity=cat.one_identity,
            one_compose=cat.one_compose,
            two_cells=cat.two_cells,
            two_identity=cat.two_identity,
            vert_compose={
                k: v for k, v in cat.vert_compose.items() if k[0] != "t1"
            },
            horiz_compose=cat.horiz_compose,
        )
        with pytest.raises(tc.MalformedData):
            tc.validate_two_category(broken)

    def test_boundary_law_catches_misdirected_composite(self):
        cat = tc.make_Tn(2)
        bad_vert = dict(cat.vert_compose)
        bad_vert[("t1", "vid:h")] = "t2"  # right cell, fine; break harder
        bad_vert[("vid:h'", "t1")] = "vid:h'"  # composite with wrong boundary
        broken = tc.TwoCategory(
            objects=cat.objects,
            one_cells=cat.one_cells,
            one_identity=cat.one_identity,
            one_compose=cat.one_compose,
            two_cells=cat.two_cells,
            two_identity=cat.two_identity,
            vert_compose=bad_vert,
            horiz_compose=cat.horiz_compose,
        )
        report = tc.validate_two_category(broken)
        assert not report.passed("boundary")


class TestFunctorValidation:
    def test_identity_functor_is_valid(self):
        assert tc.validate_two_functor(tc.identity_two_functor(tc.make_T())) == []

    def test_collapse_of_parallel_cells_is_valid(self, t_family):
        collapse = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
        assert tc.validate_two_functor(collapse) == []

    def test_swapping_arrows_under_fixed_cells_breaks_vdom(self, t_family):
        t2 = t_family[2]
        swap = dict(identity_on_cells(t2))
        swap["h"], swap["h'"] = "h'", "h"
        fun = tc.TwoFunctor(
            source=t2,
            target=t2,
            f0={x: x for x in t2.objects},
            f1=swap,
            f2={t: t for t in t2.two_cells},
        )
        violations = tc.validate_two_functor(fun)
        assert any("vdom" in v for v in violations)

    def test_dangling_map_entry_raises(self, t_family):
        fun = tc.identity_two_functor(t_family[1])
        broken = tc.TwoFunctor(
            source=fun.source,
            target=fun.target,
            f0=dict(fun.f0),
            f1=dict(fun.f1),
            f2={**fun.f2, "t1": "nope"},
        )
        with pytest.raises(tc.MalformedData):
            tc.validate_two_functor(broken)


class TestVerticalHom:
    def test_single_cell_between_the_parallel_arrows(self):
        assert tc.vertical_hom(tc.make_T(), "h", "h'") == frozenset({"t1"})

    def test_reverse_direction_is_empty(self):
        assert tc.vertical_hom(tc.make_T(), "h'", "h") == frozenset()

    def test_endo_hom_is_the_identity_cell(self):
        assert tc.vertical_hom(tc.make_T(), "h", "h") == frozenset({"vid:h"})

    def test_unknown_cell_raises(self):
        with pytest.raises(tc.UnknownCell):
            tc.vertical_hom(tc.make_T(), "h", "nope")

    def test_product_hom_sizes_multiply(self):
        prod = tc.product(tc.make_Tn(2), tc.make_Tn(3)).apex
        assert len(tc.vertical_hom(prod, "(h|h)", "(h'|h')")) == 6


class TestFunctorAlgebra:
    def test_identity_is_right_unit_for_composition(self, t_family):
        f = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
        assert tc.functors_equal(
            tc.compose_two_functors(f, tc.identity_two_functor(f.source)), f
        )
        assert tc.functors_equal(
            tc.compose_two_functors(tc.identity_two_functor(f.target), f), f
        )

    def test_collapses_compose_to_the_evident_collapse(self, t_family):
        g = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
        f = pick_functor(t_family[3], t_family[2], t1="t1", t2="t1", t3="t2")
        gf = tc.compose_two_functors(g, f)
        assert tc.validate_two_functor(gf) == []
        assert gf.f2["t1"] == gf.f2["t2"] == gf.f2["t3"] == "t1"

    def test_mismatched_ends_raise(self, t_family):
        f = tc.identity_two_functor(t_family[1])
        g = tc.identity_two_functor(t_family[2])
        with pytest.raises(tc.MismatchedBoundary):
            tc.compose_two_functors(g, f)

    def test_identity_functor_on_empty(self):
        fun = tc.identity_two_functor(empty_category())
        assert tc.validate_two_functor(fun) == []


class TestCoproduct:
    def test_double_probe_counts(self):
        union, injections = tc.coproduct([tc.make_T(), tc.make_T()])
        assert union.carrier_sizes() == (4, 8, 10)
        assert len(injections) == 2
        assert tc.validate_two_category(union).all_pass
        for inj in injections:
            assert tc.validate_two_functor(inj) == []

    def test_injections_jointly_surjective_and_disjoint(self):
        union, injections = tc.coproduct([tc.make_T(), tc.make_Tn(2)])
        images = [set(inj.f2.values()) for inj in injections]
        assert images[0] | images[1] == set(union.two_cells)
        assert not images[0] & images[1]

    def test_empty_coproduct_is_empty(self):
        union, injections = tc.coproduct([])
        assert union.carrier_sizes() == (0, 0, 0)
        assert injections == []

    def test_unary_coproduct_is_a_relabeling(self):
        union, _ = tc.coproduct([tc.make_v4()])
        assert tc.is_isomorphic(union, tc.make_v4())


class TestIsomorphismSearch:
    def test_identity_shaped_witness_on_equal_objects(self):
        witness = tc.find_isomorphism(tc.make_T(), tc.make_T())
        assert witness is not None
        assert tc.validate_two_functor(witness) == []

    def test_distinct_cell_counts_have_no_witness(self):
        assert tc.find_isomorphism(tc.make_T(), tc.make_Tn(2)) is None

    def test_reflection_of_triple_cell_matches_probe(self):
        reflected = tc.reflect(tc.make_Tn(3)).reflected
        witness = tc.find_isomorphism(reflected, tc.make_T())
        assert witness is not None
        maps_bijective = (
            len(set(witness.f0.values())) == len(witness.f0)
            and len(set(witness.f1.values())) == len(witness.f1)
            and len(set(witness.f2.values())) == len(witness.f2)
        )
        assert maps_bijective

    def test_symmetry_on_gallery_pairs(self, gallery_objects):
        small = ["terminal", "T0", "T", "T2", "T3", "v4", "h4"]
        for a in small:
            for b in small:
                assert tc.is_isomorphic(
                    gallery_objects[a], gallery_objects[b]
                ) == tc.is_isomorphic(gallery_objects[b], gallery_objects[a])

    def test_caps_guard_large_carriers(self, gallery_objects):
        with pytest.raises(tc.SearchCapExceeded):
            tc.find_isomorphism(gallery_objects["vh4"], gallery_objects["vh4"])

    def test_deep_search_needs_no_recursion(self, gallery_objects):
        vh4 = gallery_objects["vh4"]
        witness = tc.find_isomorphism(vh4, vh4, tc.SearchCaps(1000, 10000, 10000))
        assert witness is not None
        assert tc.validate_two_functor(witness) == []

    def test_cap_override_is_honoured(self):
        caps = tc.SearchCaps(1, 1, 1)
        with pytest.raises(tc.SearchCapExceeded):
            tc.find_isomorphism(tc.make_T(), tc.make_T(), caps)


class TestFunctorEnumeration:
    # counts follow 4 + n^m (+1 for the arrow swap when m = 0): the four
    # constant/identity-shaped object maps contribute 4, the cell maps n^m
    @pytest.mark.parametrize(
        "m,n,count",
        [(0, 0, 6), (0, 3, 6), (1, 0, 4), (1, 1, 5), (2, 3, 13), (3, 3, 31)],
    )
    def test_counts_against_closed_form(self, functor_corpus, m, n, count):
        assert len(functor_corpus[(m, n)]) == count

    def test_total_corpus_size(self, corpus_functors):
        assert len(corpus_functors) == 128

    def test_every_enumerated_functor_is_valid(self, corpus_functors):
        for fun in corpus_functors:
            assert tc.validate_two_functor(fun) == []


class TestEnumerationOrder:
    """The search yields exactly the reference's functors in its order."""

    def test_t_family_pairs(self, t_family, reference):
        for ends in itertools.product(t_family, repeat=2):
            assert_same_functors(
                tc.enumerate_two_functors(*ends), reference.enumerate_two_functors(*ends)
            )

    def test_ends_of_the_seeded_functors(self, seeded_functors, reference):
        for fun in seeded_functors:
            ends = (fun.source, fun.target)
            assert_same_functors(
                tc.enumerate_two_functors(*ends), reference.enumerate_two_functors(*ends)
            )

    def test_bijections_on_the_gallery(self, gallery_objects, reference):
        objects = dict(gallery_objects, h4na=tc.make_h4_na())
        # all automorphisms of vh4 take minutes to list, so vh4 compares its
        # first one; the reference recurses once per cell to reach it
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 10_000))
        try:
            for name, cat in objects.items():
                count = 1 if name == "vh4" else None
                ours = tc.enumerate_two_functors(cat, cat, bijective=True)
                theirs = reference.enumerate_two_functors(cat, cat, bijective=True)
                assert_same_functors(
                    itertools.islice(ours, count), itertools.islice(theirs, count)
                )
        finally:
            sys.setrecursionlimit(limit)
