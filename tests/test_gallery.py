import json

import pytest
from hypothesis import given, settings, strategies as st

import twocat as tc
from twocat.gallery import TwoGraphPresentation, by_name
from twocat.serialize import parse_document

from conftest import brute_horizontal_triples, brute_vertical_triples, law_breaking_document


class TestProbeFamily:
    def test_probe_carrier_sizes(self):
        assert tc.make_T().carrier_sizes() == (2, 4, 5)

    def test_zero_cells_make_a_preorder(self):
        t0 = tc.make_Tn(0)
        assert tc.is_two_preorder(t0)
        assert t0.carrier_sizes() == (2, 4, 4)

    def test_three_cells_reflect_onto_the_probe(self):
        result = tc.reflect(tc.make_Tn(3))
        assert tc.is_isomorphic(result.reflected, tc.make_T())
        assert len(result.fibers["t1"]) == 3

    def test_family_validates(self):
        for n in range(5):
            assert tc.validate_two_category(tc.make_Tn(n)).all_pass

    def test_negative_count_is_rejected(self):
        with pytest.raises(tc.MalformedData):
            tc.make_Tn(-1)


class TestFreeTwoPreorder:
    def test_vertical_chain_closes_transitively(self):
        v4 = tc.make_v4()
        assert v4.carrier_sizes()[0] == 2
        non_identity = [
            t for t in v4.two_cells if t not in set(v4.two_identity.values())
        ]
        assert len(non_identity) == 6  # transitive closure of a 4-chain

    def test_horizontal_chain_orders_paths_componentwise(self):
        h4 = tc.make_h4()
        assert len(h4.objects) == 4
        lane = [
            u
            for u in h4.one_cells
            if h4.one_cells[u] == ("0", "2")
        ]
        assert len(lane) == 4
        strict = [
            t
            for t in h4.two_cells
            if h4.two_cells[t][0] in lane
            and h4.two_cells[t][0] != h4.two_cells[t][1]
        ]
        assert len(strict) == 5

    def test_mixed_chain_has_four_generators_per_gap(self):
        vh4 = tc.make_vh4()
        assert len(vh4.objects) == 4
        gap_cells = [
            u for u in vh4.one_cells if vh4.one_cells[u] == ("0", "1")
        ]
        assert len(gap_cells) == 4  # the generators; no composites land here

    def test_all_three_are_two_preorders(self):
        for cat in (tc.make_v4(), tc.make_h4(), tc.make_vh4()):
            assert tc.is_two_preorder(cat)
            assert tc.validate_two_category(cat).all_pass

    def test_empty_presentation_gives_the_empty_object(self):
        empty = tc.free_two_preorder(
            TwoGraphPresentation(objects=(), generators={}, relations=())
        )
        assert empty.carrier_sizes() == (0, 0, 0)

    def test_cyclic_presentations_are_rejected(self):
        loop = TwoGraphPresentation(
            objects=("x", "y"),
            generators={"f": ("x", "y"), "g": ("y", "x")},
            relations=(),
        )
        with pytest.raises(tc.CyclicPresentation):
            tc.free_two_preorder(loop)

    def test_relation_closure_properties(self):
        cat = tc.make_h4()
        relation = {cat.two_cells[t] for t in cat.two_cells}
        for u in cat.one_cells:
            assert (u, u) in relation
        for (p, q) in relation:
            for (r, s) in relation:
                if q == r:
                    assert (p, s) in relation
        for (p, q) in relation:
            for (r, s) in relation:
                if cat.cod(p) == cat.dom(r):
                    composite = (
                        cat.one_compose[(r, p)],
                        cat.one_compose[(s, q)],
                    )
                    assert composite in relation

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=5),
    )
    def test_random_layered_presentations_give_preorders(self, width, links):
        objects = tuple(str(i) for i in range(3))
        generators = {}
        for layer in range(2):
            for i in range(width):
                generators[f"g{layer}{i}"] = (str(layer), str(layer + 1))
        relations = []
        for a, b in links:
            if a != b and a < width and b < width:
                for layer in range(2):
                    relations.append(((f"g{layer}{a}",), (f"g{layer}{b}",)))
        cat = tc.free_two_preorder(
            TwoGraphPresentation(
                objects=objects,
                generators=generators,
                relations=tuple(relations),
            )
        )
        assert tc.is_two_preorder(cat)
        assert tc.validate_two_category(cat).all_pass


class TestNonAssociativeCompanion:
    def test_report_fails_exactly_h_assoc(self):
        report = tc.validate_two_category(tc.make_h4_na())
        assert set(report.failures) == {"h-assoc"}
        assert report.counterexample("h-assoc") == ("a23", "a12", "a01")

    def test_seven_non_identity_cells(self):
        cat = tc.make_h4_na()
        identities = set(cat.two_identity.values())
        assert len([t for t in cat.two_cells if t not in identities]) == 7

    def test_the_two_pastings_differ(self):
        cat = tc.make_h4_na()
        assert cat.horiz_compose[("a13", "a01")] == "a03x"
        assert cat.horiz_compose[("a23", "a02")] == "a03"

    def test_associative_collapse_is_a_preorder(self):
        cat = tc.make_h4_assoc()
        assert tc.validate_two_category(cat).all_pass
        assert tc.is_two_preorder(cat)


class TestDescentCover:
    def test_probe_summand_counts_against_brute_force(self):
        base = tc.make_T()
        assert len(brute_vertical_triples(base)) == 7
        assert len(brute_horizontal_triples(base)) == 11
        summands = tc.edm_summands(base)
        assert sum(1 for k, *_ in summands if k == "v") == 7
        assert sum(1 for k, *_ in summands if k == "h") == 11

    def test_triple_enumerators_agree_with_brute_force(self, gallery_objects):
        for name in ("T0", "T2", "v4"):
            cat = gallery_objects[name]
            assert sorted((c1, c2, c3) for c3, c2, c1 in cat.vert_triples()) == sorted(
                brute_vertical_triples(cat)
            )
            assert sorted((c1, c2, c3) for c3, c2, c1 in cat.horiz_triples()) == sorted(
                brute_horizontal_triples(cat)
            )

    def test_cover_is_a_preordered_descent_morphism(self):
        for base in (tc.make_T(), tc.make_Tn(2), tc.make_v4()):
            cover, p = tc.edm_cover(base)
            assert tc.is_two_preorder(cover)
            assert tc.validate_two_functor(p) == []
            assert tc.is_edm(p)

    def test_empty_base_gives_an_empty_cover(self):
        from twocat.core import build_two_category

        empty = build_two_category(objects=(), one_cells={}, two_cells={})
        cover, p = tc.edm_cover(empty)
        assert cover.carrier_sizes() == (0, 0, 0)
        assert tc.is_edm(p)

    def test_law_breaking_base_names_the_first_failing_law(self):
        cat = parse_document(json.dumps(law_breaking_document()))
        for build in (tc.edm_summands, tc.edm_cover):
            with pytest.raises(tc.LawViolation) as caught:
                build(cat)
            assert (caught.value.law, caught.value.cells) == ("boundary", ("s", "t2"))

    def test_pullbacks_along_the_cover_validate(self, t_family):
        base = t_family[1]
        _, p = tc.edm_cover(base)
        for probe in list(tc.enumerate_two_functors(t_family[2], base))[:4]:
            apex = tc.pullback(probe, p).apex
            assert tc.validate_two_category(apex).all_pass


class TestRandomInstances:
    @pytest.mark.parametrize("seed", range(10))
    def test_every_seed_validates(self, seed):
        assert tc.validate_two_category(tc.random_instance(seed)).all_pass

    def test_seeds_are_reproducible(self):
        from twocat.serialize import category_to_document, dumps

        for seed in (0, 3, 11):
            first = dumps(category_to_document(tc.random_instance(seed)))
            second = dumps(category_to_document(tc.random_instance(seed)))
            assert first == second

    def test_minimal_budget_forces_the_terminal_object(self):
        for seed in (0, 1, 9):
            cat = tc.random_instance(seed, 1, 1, 1)
            assert tc.is_isomorphic(cat, tc.terminal())

    def test_impossible_budget_raises(self):
        with pytest.raises(tc.BudgetExceeded):
            tc.random_instance(0, 0, 0, 0)


class TestNames:
    def test_gallery_names_resolve(self):
        for name in ("T", "T3", "v4", "h4", "vh4", "h4na", "terminal"):
            assert by_name(name) is not None

    def test_unknown_name_is_malformed(self):
        with pytest.raises(tc.MalformedData):
            by_name("mystery")
