import json

import pytest

import twocat as tc
from twocat.core import build_two_category
from twocat.reflection import validate_graph_morphism
from twocat.serialize import parse_document

from conftest import law_breaking_document, pick_functor


class TestTwoPreorderPredicate:
    def test_probe_is_a_two_preorder(self):
        assert tc.is_two_preorder(tc.make_T())

    def test_parallel_cells_disqualify(self):
        assert not tc.is_two_preorder(tc.make_Tn(2))

    def test_identity_only_structures_qualify(self):
        assert tc.is_two_preorder(tc.make_Tn(0))
        assert tc.is_two_preorder(tc.terminal())


class TestReflect:
    def test_reflecting_a_two_preorder_changes_nothing(self):
        T = tc.make_T()
        result = tc.reflect(T)
        assert result.reflected == T
        assert tc.functors_equal(result.unit, tc.identity_two_functor(T))

    def test_three_parallel_cells_collapse_to_one(self):
        result = tc.reflect(tc.make_Tn(3))
        assert tc.is_two_preorder(result.reflected)
        assert tc.is_isomorphic(result.reflected, tc.make_T())
        assert result.fibers["t1"] == frozenset({"t1", "t2", "t3"})

    def test_fibers_partition_the_original_cells(self, gallery_objects):
        for name in ("T3", "v4", "h4"):
            cat = gallery_objects[name]
            result = tc.reflect(cat)
            members = [t for fiber in result.fibers.values() for t in fiber]
            assert sorted(members) == sorted(cat.two_cells)

    def test_product_fibers_multiply(self):
        prod = tc.product(tc.make_Tn(2), tc.make_Tn(3)).apex
        result = tc.reflect(prod)
        assert max(len(fiber) for fiber in result.fibers.values()) == 6
        assert tc.is_isomorphic(
            result.reflected, tc.product(tc.make_T(), tc.make_T()).apex
        )

    def test_unit_is_identity_below_two_cells_and_valid(self, gallery_objects):
        for name in ("T2", "v4", "h4"):
            cat = gallery_objects[name]
            result = tc.reflect(cat)
            assert tc.validate_two_functor(result.unit) == []
            assert result.unit.f0 == {x: x for x in cat.objects}
            assert result.unit.f1 == {u: u for u in cat.one_cells}

    def test_reflection_is_idempotent_up_to_isomorphism(self, gallery_objects):
        for name in ("T0", "T3", "v4", "h4"):
            once = tc.reflect(gallery_objects[name]).reflected
            twice = tc.reflect(once)
            assert tc.functors_equal(twice.unit, tc.identity_two_functor(once))

    def test_reflected_functor_is_valid(self, t_family):
        collapse = pick_functor(t_family[3], t_family[2], t1="t1", t2="t1", t3="t2")
        reflected = tc.reflect_functor(collapse)
        assert tc.validate_two_functor(reflected) == []


class TestUniversalProperty:
    def test_every_map_to_a_two_preorder_factors_uniquely(self, gallery_objects):
        sources = ("T2", "T3", "v4")
        targets = ("terminal", "T0", "T", "v4")
        for src_name in sources:
            src = gallery_objects[src_name]
            result = tc.reflect(src)
            for tgt_name in targets:
                tgt = gallery_objects[tgt_name]
                assert tc.is_two_preorder(tgt)
                for fun in tc.enumerate_two_functors(src, tgt):
                    through = [
                        g
                        for g in tc.enumerate_two_functors(result.reflected, tgt)
                        if tc.functors_equal(
                            tc.compose_two_functors(g, result.unit), fun
                        )
                    ]
                    assert len(through) == 1


class TestUnderlyingGraph:
    def test_probe_graph_carriers(self):
        graph = tc.underlying_two_graph(tc.make_T())
        assert (len(graph.objects), len(graph.one_cells), len(graph.two_cells)) == (2, 4, 5)

    def test_empty_graph(self):
        empty = build_two_category(objects=(), one_cells={}, two_cells={})
        graph = tc.underlying_two_graph(empty)
        assert not graph.objects and not graph.one_cells and not graph.two_cells

    def test_forgetting_commutes_with_pullback_carriers(self, t_family):
        f = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
        g = pick_functor(t_family[3], t_family[1], t1="t1", t2="t1", t3="t1")
        apex = tc.pullback(f, g).apex
        graph_apex, _, _ = tc.graph_pullback(
            tc.underlying_graph_morphism(f), tc.underlying_graph_morphism(g)
        )
        assert tc.underlying_two_graph(apex) == graph_apex


class TestClassE:
    def test_units_of_the_reflection_land_in_the_class(self, gallery_objects):
        for name in ("T0", "T", "T2", "T3", "v4", "h4"):
            unit = tc.reflect(gallery_objects[name]).unit
            assert tc.in_class_E(tc.underlying_graph_morphism(unit))

    def test_noncollapsing_inclusion_misses_the_class(self, t_family):
        inclusion = pick_functor(t_family[0], t_family[1])
        assert not tc.in_class_E(tc.underlying_graph_morphism(inclusion))

    def test_identity_graph_morphism_is_in_the_class(self):
        mor = tc.underlying_graph_morphism(tc.identity_two_functor(tc.make_T()))
        assert tc.in_class_E(mor)
        assert validate_graph_morphism(mor) == []

    def test_pullback_stability(self, t_family, corpus_functors):
        units = [
            tc.underlying_graph_morphism(tc.reflect(c).unit) for c in t_family[1:]
        ]
        others = [
            tc.underlying_graph_morphism(f)
            for f in corpus_functors
            if len(f.source.objects) == 2
        ]
        checked = 0
        for e_map in units:
            assert tc.in_class_E(e_map)
            for g_map in others:
                if g_map.target != e_map.target:
                    continue
                _, proj1, _ = tc.graph_pullback(g_map, e_map)
                assert tc.in_class_E(proj1)
                checked += 1
        assert checked > 10

    def test_left_cancellation(self, t_family):
        # g' . g in E and g in E force g' in E
        unit2 = tc.reflect(t_family[2]).unit
        unit_then = tc.identity_two_functor(t_family[1])
        g = tc.underlying_graph_morphism(unit2)
        gp = tc.underlying_graph_morphism(unit_then)
        composite = tc.GraphMorphism(
            source=g.source,
            target=gp.target,
            g0={k: gp.g0[v] for k, v in g.g0.items()},
            g1={k: gp.g1[v] for k, v in g.g1.items()},
            g2={k: gp.g2[v] for k, v in g.g2.items()},
        )
        assert tc.in_class_E(composite) and tc.in_class_E(g)
        assert tc.in_class_E(gp)


class TestConnectedComponents:
    def _probe_into(self, cat):
        reflected = tc.reflect(cat).reflected
        return tc.enumerate_two_functors(tc.make_T(), reflected)

    def test_components_of_the_triple_cell_object(self):
        T3 = tc.make_Tn(3)
        hit = next(
            mu
            for mu in self._probe_into(T3)
            if mu.f1 == {u: u for u in tc.make_T().one_cells}
        )
        component = tc.connected_component(T3, hit)
        assert tc.is_isomorphic(component.apex, T3)

    def test_component_of_a_preorder_along_the_identity_probe(self):
        T = tc.make_T()
        identity_like = next(
            mu
            for mu in self._probe_into(T)
            if mu.f1 == {u: u for u in T.one_cells}
        )
        component = tc.connected_component(T, identity_like)
        assert tc.is_isomorphic(component.apex, T)

    def test_component_selects_one_summand(self):
        union, _ = tc.coproduct([tc.make_Tn(2), tc.make_Tn(3)])
        hit = next(
            mu for mu in self._probe_into(union) if mu.f2["t1"] == "1:t1"
        )
        component = tc.connected_component(union, hit)
        assert tc.is_isomorphic(component.apex, tc.make_Tn(3))

    def test_mismatched_probe_target_raises(self):
        T2 = tc.make_Tn(2)
        stray = tc.identity_two_functor(T2)  # ends in T2, not its reflection
        with pytest.raises(tc.MismatchedTarget):
            tc.connected_component(T2, stray)


class TestLawBreakingInput:
    def test_reflect_names_the_law_and_the_least_conflicting_pair(self):
        cat = parse_document(json.dumps(law_breaking_document()))
        report = tc.validate_two_category(cat)
        assert report.counterexample("boundary") == ("s", "t2")
        assert not report.passed("v-assoc")
        with pytest.raises(tc.LawViolation) as caught:
            tc.reflect(cat)
        assert (caught.value.law, caught.value.cells) == ("boundary", ("s", "t2"))


class TestStability:
    def test_semi_left_exactness_on_the_corpus(self, gallery_objects):
        for name in ("terminal", "T0", "T", "T3", "v4"):
            assert tc.check_semi_left_exact(gallery_objects[name])

    def test_semi_left_exactness_of_a_product(self):
        prod = tc.product(tc.make_Tn(2), tc.make_Tn(3)).apex
        assert tc.check_semi_left_exact(prod)

    def test_stable_units_on_pairs(self, gallery_objects):
        assert tc.check_stable_units(gallery_objects["T2"], gallery_objects["T3"])
        assert tc.check_stable_units(gallery_objects["T"], gallery_objects["T"])

    def test_stable_units_across_a_coproduct(self):
        union, _ = tc.coproduct([tc.make_Tn(2), tc.make_T()])
        assert tc.check_stable_units(union, tc.make_Tn(3))
