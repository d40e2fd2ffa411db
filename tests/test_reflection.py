import dataclasses
import itertools
import json
import re
import sys
import time

import pytest

import twocat as tc
from twocat import core, limits, reflection
from twocat.core import _bijectivity_witness, build_two_category
from twocat.reflection import validate_graph_morphism
from twocat.serialize import parse_document

from conftest import (
    law_breaking_document,
    locally_discrete_inclusion,
    pick_functor,
    reference_category,
)


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
        assert tc.find_isomorphism(result.reflected, tc.make_T()) is not None
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
        assert tc.find_isomorphism(
            result.reflected, tc.product(tc.make_T(), tc.make_T()).apex
        ) is not None

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


class TestTwoPreordersReflectToThemselves:
    """A 2-preorder's reflection is that of the general collapse, read
    without indexing its boundaries."""

    def test_gallery_and_random_instances(self, monkeypatch):
        names = ("terminal", "T0", "T", "v4", "h4", "vh4", "h4na")
        cats = [tc.gallery.by_name(name) for name in names]
        cats += [tc.random_instance(seed, 4, 16, 32) for seed in range(40)]
        preorders = [cat for cat in cats if tc.is_two_preorder(cat)]
        assert len(preorders) == 6 + 30  # all of the gallery's but h4na
        grouped = count_groupings(monkeypatch)
        results = [tc.reflect(cat) for cat in preorders]
        assert grouped == []
        monkeypatch.setattr(reflection, "is_two_preorder", lambda cat: False)
        for cat, result in zip(preorders, results):
            general = tc.reflect(cat)  # indexes cat
            assert result.reflected == general.reflected == cat
            assert result.reflected is not cat
            for level in ("f0", "f1", "f2"):
                assert getattr(result.unit, level) == getattr(general.unit, level)
            assert result.unit.source is cat and result.unit.target is result.reflected
            assert result.fibers == general.fibers


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
        composite = tc.TwoFunctor(
            source=g.source,
            target=gp.target,
            f0={k: gp.f0[v] for k, v in g.f0.items()},
            f1={k: gp.f1[v] for k, v in g.f1.items()},
            f2={k: gp.f2[v] for k, v in g.f2.items()},
        )
        assert tc.in_class_E(composite) and tc.in_class_E(g)
        assert tc.in_class_E(gp)


#: The first word of a ``validate_two_functor`` entry about a table.
TABLE_CHECKS = ("compose1", "vcompose", "hcompose")


class TestGraphMorphismCheck:
    """``validate_graph_morphism`` is the graph half of ``validate_two_functor``."""

    @pytest.fixture
    def identity_on_T(self):
        return tc.underlying_graph_morphism(tc.identity_two_functor(tc.make_T()))

    def test_a_map_that_lacks_a_cell_is_malformed(self, identity_on_T):
        f1 = {u: v for u, v in identity_on_T.f1.items() if u != "h"}
        with pytest.raises(tc.MalformedData, match="f1 is not total"):
            validate_graph_morphism(dataclasses.replace(identity_on_T, f1=f1))

    def test_an_image_outside_the_target_is_malformed(self, identity_on_T):
        f2 = {**identity_on_T.f2, "t1": "nope"}
        with pytest.raises(tc.MalformedData, match="is not in the target"):
            validate_graph_morphism(dataclasses.replace(identity_on_T, f2=f2))

    def test_ends_that_are_not_well_formed_are_malformed(self):
        fun = tc.identity_two_functor(tc.make_T())
        fun.source.one_cells["h"] = ("a", "zz")
        graph = tc.underlying_graph_morphism(fun)
        for check, mor in ((tc.validate_two_functor, fun), (validate_graph_morphism, graph)):
            with pytest.raises(tc.MalformedData, match="unknown endpoint 'a' or 'zz'"):
                check(mor)

    def test_a_source_missing_a_row_is_malformed(self):
        fun = tc.identity_two_functor(tc.make_T())
        del fun.source.vert_compose[("t1", "vid:h")]
        with pytest.raises(tc.MalformedData, match="vcompose is missing the row"):
            tc.validate_two_functor(fun)

    def test_it_reports_what_the_functor_check_reports_off_the_tables(
        self, corpus_functors
    ):
        swap = {"h": "h'", "h'": "h"}
        broken = 0
        for fun in corpus_functors:
            for f1 in (fun.f1, {u: swap.get(v, v) for u, v in fun.f1.items()}):
                variant = dataclasses.replace(fun, f1=f1)
                violations = tc.validate_two_functor(variant)
                graph = validate_graph_morphism(tc.underlying_graph_morphism(variant))
                assert graph == [v for v in violations if v.split()[0] not in TABLE_CHECKS]
                broken += bool(graph)
        assert broken > 0


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
        assert tc.find_isomorphism(component.apex, T3) is not None

    def test_component_of_a_preorder_along_the_identity_probe(self):
        T = tc.make_T()
        identity_like = next(
            mu
            for mu in self._probe_into(T)
            if mu.f1 == {u: u for u in T.one_cells}
        )
        component = tc.connected_component(T, identity_like)
        assert tc.find_isomorphism(component.apex, T) is not None

    def test_component_selects_one_summand(self):
        union, _ = tc.coproduct([tc.make_Tn(2), tc.make_Tn(3)])
        hit = next(
            mu for mu in self._probe_into(union) if mu.f2["t1"] == "1:t1"
        )
        component = tc.connected_component(union, hit)
        assert tc.find_isomorphism(component.apex, tc.make_Tn(3)) is not None

    def test_mismatched_probe_target_raises(self):
        T2 = tc.make_Tn(2)
        stray = tc.identity_two_functor(T2)  # ends in T2, not its reflection
        with pytest.raises(tc.MismatchedTarget):
            tc.connected_component(T2, stray)

    @pytest.mark.parametrize("check", [tc.reflective_factor, tc.trivial_covering_oracle])
    def test_a_cone_off_the_reflected_square_raises(self, check):
        T2 = tc.make_Tn(2)
        identity = tc.identity_two_functor(T2)
        # t2 is parallel to t1 but lands on a cell of another boundary
        broken = tc.TwoFunctor(T2, T2, identity.f0, identity.f1, {**identity.f2, "t2": "vid:h"})
        with pytest.raises(tc.MismatchedTarget):
            check(broken)


class TestLawBreakingInput:
    def test_reflect_names_the_law_and_the_least_conflicting_pair(self):
        cat = parse_document(json.dumps(law_breaking_document()))
        report = tc.validate_two_category(cat)
        assert report.counterexample("boundary") == ("s", "t2")
        assert not report.passed("v-assoc")
        with pytest.raises(tc.LawViolation) as caught:
            tc.reflect(cat)
        assert (caught.value.law, caught.value.cells) == ("boundary", ("s", "t2"))


class TestMalformedInput:
    def test_probe_checks_raise_what_validation_raises(self):
        T2 = tc.make_Tn(2)
        dangling = dataclasses.replace(T2, one_cells={**T2.one_cells, "h": ("a", "zz")})
        with pytest.raises(tc.MalformedData) as caught:
            tc.validate_two_category(dangling)
        assert str(caught.value) == "1-cell 'h' has unknown endpoint 'a' or 'zz'"
        for check, args in (
            (tc.check_semi_left_exact, (dangling,)),
            (tc.check_stable_units, (dangling, T2)),
            (tc.check_stable_units, (T2, dangling)),
        ):
            with pytest.raises(tc.MalformedData, match=re.escape(str(caught.value))):
                check(*args)


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


@pytest.fixture(scope="module")
def probe_inputs(gallery_objects):
    """Gallery objects but vh4, seeded random instances, a coproduct and two
    relaxed inputs: the non-associative h4 and a law-breaking document."""
    cats = {name: cat for name, cat in gallery_objects.items() if name != "vh4"}
    for seed in range(4):
        cats[f"random {seed}"] = tc.random_instance(seed, 4, 16, 32)
    cats["T2+T"], _ = tc.coproduct([tc.make_Tn(2), tc.make_T()])
    cats["h4na"] = tc.make_h4_na()
    cats["law-breaking"] = parse_document(json.dumps(law_breaking_document()))
    return cats


def outcome(check, *args):
    """The verdict of ``check``, or the type name, law and cells it raised."""
    try:
        return check(*args)
    except Exception as exc:  # compared across the two packages' error types
        return type(exc).__name__, getattr(exc, "law", None), getattr(exc, "cells", None)


#: Every probe check's answer on the law-breaking document: the violation
#: ``reflect`` raises on it.  The pinned reference predates ``LawViolation``
#: and fails a bare ``assert`` there instead.
LAW_BREAKING = ("LawViolation", "boundary", ("s", "t2"))


def expected(reference, check, cats, probe_inputs):
    """The reference's outcome of ``check`` on ``cats``."""
    if any(cat is probe_inputs["law-breaking"] for cat in cats):
        return LAW_BREAKING
    return outcome(getattr(reference, check), *(reference_category(reference, cat) for cat in cats))


@pytest.fixture(scope="module")
def stable_pairs(probe_inputs):
    """Labelled input pairs of ``check_stable_units``: gallery pairs, random
    instances against a coproduct, the relaxed inputs against T, and forty
    seeded pairs at the ``probes`` benchmark workload's budget."""
    gallery = ("terminal", "T0", "T", "T2", "T3", "T4", "v4")
    randoms = [name for name in probe_inputs if name.startswith("random")]
    names = list(itertools.product(gallery, repeat=2)) + [("T", "h4"), ("h4", "T")]
    names += [(r, "T2+T") for r in randoms] + [("T2+T", r) for r in randoms]
    names += [pair for x in ("h4na", "law-breaking") for pair in ((x, "T"), ("T", x))]
    pairs = {pair: tuple(probe_inputs[name] for name in pair) for pair in names}
    for seed in range(40):
        pairs[f"seeded pair {seed}"] = tuple(
            tc.random_instance(2 * seed + i, 4, 16, 32) for i in (0, 1)
        )
    return pairs


class TestProbeChecksAgainstTheReference:
    """The probe checks give the pinned reference's verdicts and exceptions.

    The reference decides each component and each fiber product of two
    components by reflecting it and searching for an isomorphism onto T."""

    def test_semi_left_exactness(self, probe_inputs, reference):
        for name, cat in probe_inputs.items():
            theirs = expected(reference, "check_semi_left_exact", (cat,), probe_inputs)
            assert outcome(tc.check_semi_left_exact, cat) == theirs, name

    def test_stable_units(self, stable_pairs, probe_inputs, reference):
        for label, cats in stable_pairs.items():
            theirs = expected(reference, "check_stable_units", cats, probe_inputs)
            assert outcome(tc.check_stable_units, *cats) == theirs, label
        assert tc.check_stable_units(probe_inputs["h4na"], probe_inputs["T"])


def component_legs(cat):
    """The projection onto T of every connected component of ``cat``."""
    unit = tc.reflect(cat).unit
    probes = tc.enumerate_two_functors(tc.make_T(), unit.target)
    return [tc.pullback(unit, mu).proj2 for mu in probes]


class TestComponentsProjectVertically:
    """The lemma ``check_stable_units`` is decided by, at the probe T: each
    reflection unit is stably vertical, so its pullbacks are vertical.
    Checked on pullbacks the check does not build: every component's
    projection onto T is vertical, and so is the projection of every fiber
    product of two."""

    def test_on_the_stable_unit_pairs(self, stable_pairs, probe_inputs):
        h4 = probe_inputs["h4"]
        mixed = 0
        for label, (cat, other) in [*stable_pairs.items(), ("h4/h4", (h4, h4))]:
            if any(x is probe_inputs["law-breaking"] for x in (cat, other)):
                continue  # reflecting it raises
            legs_c, legs_d = component_legs(cat), component_legs(other)
            assert all(map(tc.is_vertical, legs_c + legs_d)), label
            for c, d in itertools.product(legs_c, legs_d):
                assert tc.is_vertical(tc.compose_two_functors(c, tc.pullback(c, d).proj1)), label
                mixed += 1
        assert mixed > 8_000


def inverted_pullbacks(unit, source):
    """For each probe ``mu: source -> unit.target``, whether the reflection
    inverts the projection of ``pullback(mu, unit)`` onto ``source``.

    Read off the definition: the reflected projection must be a bijection
    on objects, on 1-cells and on 2-cells.  It is not read through
    ``is_vertical`` or ``is_stably_vertical``, which the checks rest on.
    """
    verdicts = []
    for mu in tc.enumerate_two_functors(source, unit.target):
        reflected = tc.reflect_functor(tc.pullback(mu, unit).proj1)
        levels = (
            (reflected.f0, reflected.target.objects),
            (reflected.f1, reflected.target.one_cells),
            (reflected.f2, reflected.target.two_cells),
        )
        verdicts.append(all(_bijectivity_witness(*level) is None for level in levels))
    return verdicts


#: Probe sources of the semi-left-exactness oracle, all 2-preorders.
PREORDER_SOURCES = ("T0", "T", "v4")

#: Probe sources of the stable-units oracle: those and a 2-category that is
#: not a 2-preorder.
SOURCES = PREORDER_SOURCES + ("T2",)


@pytest.fixture(scope="module")
def oracle_inputs(gallery_objects):
    """Gallery objects up to h4, six seeded random instances and a coproduct."""
    cats = {name: gallery_objects[name] for name in ("terminal", "T", "T2", "T3", "v4", "h4")}
    for seed in range(6):
        cats[f"random {seed}"] = tc.random_instance(seed, 4, 16, 32)
    cats["T2+T"], _ = tc.coproduct([tc.make_Tn(2), tc.make_T()])
    return cats


class TestProbeClaimsByDefinition:
    """Both probe checks against their definitions (Cassidy-Hebert-Kelly
    1985, Carboni-Janelidze-Kelly-Pare 1997): the reflection inverts every
    pullback of the unit of ``A`` along a probe ``mu: B -> R(A)``, for
    2-preorders ``B`` (semi-left-exactness) or for every 2-category ``B``
    (stable units).

    The family of ``B`` is fixed and its probe counts pinned.  The
    reflection of h4 is left out as a ``B``: its probes took 33 s, because
    the functor search assigns every object before any 1-cell, so the
    object images are tried as a product before a boundary prunes them.
    """

    def test_the_oracle_agrees_with_both_checks(self, oracle_inputs, gallery_objects):
        assert all(tc.is_two_preorder(gallery_objects[b]) for b in PREORDER_SOURCES)
        stable, probes = {}, dict.fromkeys(SOURCES, 0)
        for name, cat in oracle_inputs.items():
            unit = tc.reflect(cat).unit
            verdicts = {b: inverted_pullbacks(unit, gallery_objects[b]) for b in SOURCES}
            for b, found in verdicts.items():
                probes[b] += len(found)
            semi_left_exact = all(all(verdicts[b]) for b in PREORDER_SOURCES)
            assert tc.check_semi_left_exact(cat) == semi_left_exact, name
            stable[name] = all(map(all, verdicts.values()))
        for (a, cat), (b, other) in itertools.product(oracle_inputs.items(), repeat=2):
            assert tc.check_stable_units(cat, other) == (stable[a] and stable[b]), (a, b)
        assert all(stable.values())
        assert probes == {"T0": 209, "T": 131, "v4": 333, "T2": 131}


class TestNegativeControl:
    """The unit of T replaced by the locally discrete inclusion into T,
    which misses the hom from h to h': both checks, ``is_stably_vertical``
    and the definitional oracle reject it, through the code that they run
    on real units."""

    def test_a_unit_that_misses_a_hom_is_rejected(self, monkeypatch):
        T, T2 = tc.make_T(), tc.make_Tn(2)
        inclusion = locally_discrete_inclusion(T)
        verdicts = inverted_pullbacks(inclusion, T)
        assert len(verdicts) == 5 and verdicts.count(False) == 1
        assert not tc.is_stably_vertical(inclusion)
        real = reflection.reflect

        def substituted(cat):
            result = real(cat)
            return dataclasses.replace(result, unit=inclusion) if cat is T else result

        monkeypatch.setattr(reflection, "reflect", substituted)
        assert not tc.check_semi_left_exact(T)
        assert not tc.check_stable_units(T, T2)
        assert not tc.check_stable_units(T2, T)
        assert tc.check_semi_left_exact(T2) and tc.check_stable_units(T2, T2)


@pytest.fixture()
def calls(monkeypatch):
    """The arguments of every ``reflect``, ``fiber_product`` and
    ``find_isomorphism`` call the package makes.  Every pullback, with or
    without tables, builds its carriers by one ``fiber_product`` call."""
    homes = {"reflect": tc, "fiber_product": limits, "find_isomorphism": tc}
    log = {name: [] for name in homes}
    for name, home in homes.items():
        real = getattr(home, name)

        def counting(*args, _name=name, _real=real):
            log[_name].append(args)
            return _real(*args)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("twocat.") and (
                getattr(module, name, None) is real
            ):
                monkeypatch.setattr(module, name, counting)
    return log


def probe_count(cat):
    return len(list(tc.enumerate_two_functors(tc.make_T(), tc.reflect(cat).reflected)))


def reflections_of(cat, calls):
    return sum(args[0] is cat for args in calls["reflect"])


def components_of(cat, calls):
    """Fiber products of the unit of ``cat``, the only functor out of ``cat`` pulled back."""
    return sum(any(leg.source is cat for leg in args) for args in calls["fiber_product"])


class TestEachCategoryIsReflectedOnce:
    """The probe checks reflect each input once and search for no
    isomorphism: semi-left-exactness settles every component by its vertical
    projection onto the probe, and stable units are settled by the units
    alone, with no fiber product built."""

    def test_semi_left_exactness(self, calls, gallery_objects):
        cat = gallery_objects["v4"]
        assert tc.check_semi_left_exact(cat)
        assert [args[0] for args in calls["reflect"]] == [cat]
        assert calls["find_isomorphism"] == []
        assert len(calls["fiber_product"]) == components_of(cat, calls) == probe_count(cat) > 1

    def test_stable_units_pull_nothing_back(self, calls):
        cat, _ = tc.coproduct([tc.make_Tn(2), tc.make_T()])
        other = tc.make_v4()
        assert tc.check_stable_units(cat, other)
        assert [args[0] for args in calls["reflect"]] == [cat, other]
        assert calls["fiber_product"] == []
        assert calls["find_isomorphism"] == []

    def test_stable_units_of_one_object_passed_twice(self, calls, monkeypatch):
        cat, _ = tc.coproduct([tc.make_Tn(2), tc.make_T()])
        checked, real = [], reflection.check_well_formed
        monkeypatch.setattr(reflection, "check_well_formed", lambda x: checked.append(x) or real(x))
        asked, vertical = [], reflection.is_stably_vertical
        monkeypatch.setattr(reflection, "is_stably_vertical", lambda u: asked.append(u) or vertical(u))
        assert tc.check_stable_units(cat, cat)
        assert [args[0] for args in calls["reflect"]] == [cat]
        assert checked == [cat]
        assert [unit.source for unit in asked] == [cat]
        assert calls["fiber_product"] == []

    @pytest.mark.parametrize("check", [tc.reflective_factor, tc.trivial_covering_oracle])
    def test_reflected_square(self, calls, t_family, check):
        fun = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
        check(fun)
        assert reflections_of(fun.source, calls) == reflections_of(fun.target, calls) == 1


def count_groupings(monkeypatch):
    """The ends maps passed to ``core._by_ends``, once per call, through
    every module that binds it."""
    grouped, real = [], core._by_ends

    def by_ends(cells):
        grouped.append(cells)
        return real(cells)

    for name, module in list(sys.modules.items()):
        if name.startswith("twocat.") and getattr(module, "_by_ends", None) is real:
            monkeypatch.setattr(module, "_by_ends", by_ends)
    return grouped


@pytest.fixture()
def witness_work(monkeypatch):
    """The ends maps grouped by boundary, once per grouping built, the
    apexes of the pullbacks that :mod:`twocat.reflection` builds, and the
    functors whose pulled-back homs are walked for a witness."""
    work = {"indexed": count_groupings(monkeypatch), "apexes": [], "walked": []}
    real_pullback, real_walk = reflection.pullback, reflection._pulled_back_homs

    def pullback(f, g):
        square = real_pullback(f, g)
        work["apexes"].append(square.apex)
        return square

    def walk(fun):
        work["walked"].append(fun)
        return real_walk(fun)

    monkeypatch.setattr(reflection, "pullback", pullback)
    monkeypatch.setattr(reflection, "_pulled_back_homs", walk)
    return work


class TestVerdictsBuildNoWitnessWork:
    """The class predicates decide over the carriers: a passing verdict, or
    one that fails below 2-cells, indexes no vertical hom and walks no
    pulled-back hom.  Only :func:`twocat.reflect`, which groups its input
    by boundary, and the probe search into a reflection index anything."""

    def test_semi_left_exactness(self, witness_work):
        v4 = tc.make_v4()
        probes = probe_count(v4)  # groups the carriers of v4's reflection
        indexed, apexes = witness_work["indexed"], witness_work["apexes"]
        indexed.clear()
        assert tc.check_semi_left_exact(v4)
        assert len(apexes) == probes > 1
        assert not any(cells is carrier for apex in apexes for carrier in (apex.one_cells, apex.two_cells)
                       for cells in indexed)
        ones, twos = indexed  # the reflection's, searched for the probes
        reflected = tc.reflect(v4).reflected
        assert (ones, twos) == (reflected.one_cells, reflected.two_cells)
        assert tc.is_two_preorder(reflected) and reflected.objects == v4.objects
        assert witness_work["walked"] == []

    def test_stable_units(self, witness_work):
        cat, _ = tc.coproduct([tc.make_Tn(2), tc.make_T()])
        other = tc.random_instance(3, 4, 16, 32)
        indexed = witness_work["indexed"]
        indexed.clear()
        assert tc.check_stable_units(cat, other)
        # by reflect; other is a 2-preorder and reflects to itself
        assert len(indexed) == 1 and indexed[0] is cat.two_cells
        assert witness_work["walked"] == []

    def test_classify_the_v4_cover_projection(self, witness_work):
        _, p = tc.edm_cover(tc.make_v4())
        witness_work["indexed"].clear()
        report = tc.classify(p)
        assert report.witnesses.keys() == {"vertical", "stably_vertical"}  # not onto objects
        assert witness_work["indexed"] == [] and witness_work["walked"] == []

    def test_a_failing_verdict_walks_once_for_the_least_witness(self, witness_work):
        inclusion = locally_discrete_inclusion(tc.make_T())
        found = []
        assert not tc.is_vertical(inclusion, witness=found)
        assert witness_work["walked"] == [inclusion]
        assert found == [("h", "h'")]


class TestScale:
    def test_semi_left_exactness_of_vh4(self):
        start = time.perf_counter()
        assert tc.check_semi_left_exact(tc.make_vh4())
        # 0.2-0.3 s on a 2-CPU machine, where re-indexing the unit on each of
        # the 1,234 probes took 4-5 s and reflecting vh4 once per probe 21 s
        assert time.perf_counter() - start < 2
