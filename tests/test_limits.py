import dataclasses
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import twocat as tc
from twocat import core, limits
from twocat.core import TwoFunctor, build_two_category
from twocat.limits import FiniteSquare

from conftest import on_reference, pick_functor


@pytest.fixture(scope="module")
def collapse_pair(t_family):
    f = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
    g = pick_functor(t_family[3], t_family[1], t1="t1", t2="t1", t3="t1")
    return f, g


class TestPullback:
    def test_along_identities_gives_the_object_back(self):
        idT = tc.identity_two_functor(tc.make_T())
        result = tc.pullback(idT, idT)
        assert tc.find_isomorphism(result.apex, tc.make_T()) is not None
        assert tc.validate_two_functor(result.proj1) == []
        assert tc.validate_two_functor(result.proj2) == []

    def test_unit_against_collapse_recovers_the_collapsed_object(self, t_family):
        collapse = pick_functor(t_family[3], t_family[1], t1="t1", t2="t1", t3="t1")
        result = tc.pullback(tc.identity_two_functor(t_family[1]), collapse)
        assert tc.find_isomorphism(result.apex, t_family[3]) is not None

    def test_empty_fiber_kills_the_cell_lane(self, t_family):
        inclusion = pick_functor(t_family[0], t_family[1])
        collapse = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
        result = tc.pullback(inclusion, collapse)
        assert tc.find_isomorphism(result.apex, t_family[0]) is not None

    def test_mismatched_targets_raise(self, t_family):
        with pytest.raises(tc.MismatchedTarget):
            tc.pullback(
                tc.identity_two_functor(t_family[1]),
                tc.identity_two_functor(t_family[2]),
            )

    def test_closure_under_pullback(self, collapse_pair):
        f, g = collapse_pair
        assert tc.validate_two_category(tc.pullback(f, g).apex).all_pass

    def test_symmetry_up_to_isomorphism(self, collapse_pair):
        f, g = collapse_pair
        assert tc.find_isomorphism(tc.pullback(f, g).apex, tc.pullback(g, f).apex) is not None

    def test_square_commutes(self, collapse_pair):
        f, g = collapse_pair
        result = tc.pullback(f, g)
        left = tc.compose_two_functors(f, result.proj1)
        right = tc.compose_two_functors(g, result.proj2)
        assert tc.functors_equal(left, right)

    def test_universal_property_by_exhaustive_search(self, collapse_pair, t_family):
        f, g = collapse_pair
        result = tc.pullback(f, g)
        for apex_candidate in (tc.terminal(), t_family[0], t_family[1], t_family[2]):
            mediators_total = 0
            cones = 0
            for u in tc.enumerate_two_functors(apex_candidate, f.source):
                fu = tc.compose_two_functors(f, u)
                for w in tc.enumerate_two_functors(apex_candidate, g.source):
                    if not tc.functors_equal(fu, tc.compose_two_functors(g, w)):
                        continue
                    cones += 1
                    mediators = [
                        t
                        for t in tc.enumerate_two_functors(apex_candidate, result.apex)
                        if tc.functors_equal(tc.compose_two_functors(result.proj1, t), u)
                        and tc.functors_equal(tc.compose_two_functors(result.proj2, t), w)
                    ]
                    assert len(mediators) == 1
                    mediators_total += 1
            assert cones == mediators_total
            assert cones > 0


class TestRelaxedPullback:
    def test_valid_inputs_give_an_all_pass_apex(self, collapse_pair):
        f, g = collapse_pair
        result = tc.pullback(f, g)
        assert tc.validate_two_category(result.apex).all_pass

    def test_pulling_the_broken_probe_back_along_itself_keeps_the_break(self):
        h4na = tc.make_h4_na()
        base = tc.make_h4_assoc()
        phi = tc.TwoFunctor(
            source=h4na,
            target=base,
            f0={x: x for x in h4na.objects},
            f1={u: u for u in h4na.one_cells},
            f2={t: ("a03" if t == "a03x" else t) for t in h4na.two_cells},
        )
        result = tc.pullback(phi, phi)
        report = tc.validate_two_category(result.apex)
        assert not report.passed("h-assoc")


def composition_breaking_legs():
    """``random_instance(8)`` with the first cell of its least parallel pair sent
    to the second, and its identity: boundaries hold, ``vcompose`` does not.

    The pair is the first two cells of the least hom holding more than one.
    """
    cat = tc.random_instance(8)
    homs = core._by_ends(cat.two_cells)
    first, second = homs[min(ends for ends, cells in homs.items() if len(cells) > 1)][:2]
    idC = tc.identity_two_functor(cat)
    f2 = {t: second if t == first else t for t in cat.two_cells}
    return tc.TwoFunctor(cat, cat, idC.f0, idC.f1, f2), idC


class TestLegsThatBreakTheStructure:
    def test_broken_boundaries_are_malformed_and_broken_composition_breaks_a_law(self):
        idT = tc.identity_two_functor(tc.make_T())
        swap = tc.TwoFunctor(idT.source, idT.target, {"a": "b", "b": "a"}, idT.f1, idT.f2)
        message = re.escape("the boundary or identity of apex cell '(a|b)' is outside the fiber")
        with pytest.raises(tc.MalformedData, match=message):
            tc.pullback(swap, idT)
        graph = tc.underlying_graph_morphism
        with pytest.raises(tc.MalformedData, match=message):
            tc.graph_pullback(graph(swap), graph(idT))
        with pytest.raises(tc.LawViolation) as caught:
            tc.pullback(*composition_breaking_legs())
        assert str(caught.value) == (
            "boundary law fails at ((((vid:h|vid:h')|t1)|((vid:h|vid:h')|t2)), "
            "(((vid:h|t1)|vid:h)|((vid:h|t1)|vid:h)))"
        )

    @pytest.mark.parametrize("check", [
        tc.covering_oracle,
        tc.trivial_covering_oracle,
        lambda fun: tc.pullback(tc.identity_two_functor(fun.target), fun),
        lambda fun: tc.pullback(fun, tc.identity_two_functor(fun.target)),
    ], ids=["covering oracle", "trivial covering oracle", "pullback, second leg", "pullback, first leg"])
    @pytest.mark.parametrize("field, kept, cell", [
        ("one_identity", {"a"}, re.escape("'(b|b)'")),
        ("two_identity", {"h'", "id:a", "id:b"}, ".*"),  # the cell named depends on the apex
    ], ids=["1-cell identities", "2-cell identities"])
    def test_a_missing_identity_is_outside_the_fiber(self, check, field, kept, cell):
        T = tc.make_T()
        idT = tc.identity_two_functor(T)
        cut = dataclasses.replace(T, **{field: {x: getattr(T, field)[x] for x in kept}})
        fun = tc.TwoFunctor(cut, T, idT.f0, idT.f1, idT.f2)
        with pytest.raises(tc.MalformedData, match=f"identity of apex cell {cell} is outside the fiber"):
            check(fun)


@pytest.fixture(scope="module")
def several_partners(gallery_objects):
    """Cospans that share legs: the gallery units along every probe into
    their reflections, and the T, T3 and v4 cover projections along every
    probe and along the identity."""
    probe = tc.make_T()
    cospans = []
    for name, cat in gallery_objects.items():
        if name != "vh4":
            unit = tc.reflect(cat).unit
            cospans += [(unit, mu) for mu in tc.enumerate_two_functors(probe, unit.target)]
    for base in (probe, tc.make_Tn(3), tc.make_v4()):
        _, p = tc.edm_cover(base)
        cospans += [(phi, p) for phi in tc.enumerate_two_functors(probe, base)]
        cospans.append((p, tc.identity_two_functor(base)))
    return cospans


class TestPullbackMatchesTheReference:
    """Apex, projections and pair names against the pinned reference."""

    def test_every_corpus_cospan(self, reference, corpus_functors):
        theirs = {id(f): on_reference(reference, f) for f in corpus_functors}
        cospans = 0
        for f in corpus_functors:
            for g in corpus_functors:
                if f.target != g.target:
                    continue
                cospans += 1
                mine, ref = tc.pullback(f, g), reference.pullback(theirs[id(f)], theirs[id(g)])
                for field in dataclasses.fields(mine.apex):
                    assert getattr(mine.apex, field.name) == getattr(ref.apex, field.name)
                for proj, ref_proj in ((mine.proj1, ref.proj1), (mine.proj2, ref.proj2)):
                    assert (proj.f0, proj.f1, proj.f2) == (ref_proj.f0, ref_proj.f1, ref_proj.f2)
                assert mine.names == [
                    {(p1[n], p2[n]): n for n in p1}
                    for p1, p2 in zip(
                        (ref.proj1.f0, ref.proj1.f1, ref.proj1.f2),
                        (ref.proj2.f0, ref.proj2.f1, ref.proj2.f2),
                    )
                ]
        assert cospans == 5038

    def test_broken_composition_names_the_least_pair_off_the_apex(self, reference):
        fun, idC = composition_breaking_legs()
        apex = reference.pullback(on_reference(reference, fun), on_reference(reference, idC)).apex
        with pytest.raises(tc.LawViolation) as caught:
            tc.pullback(fun, idC)
        assert (caught.value.law, caught.value.cells) == ("boundary", least_pair_off(apex))

    def test_legs_pulled_back_against_several_partners(self, reference, several_partners):
        """One functor object against many partners, in both argument
        positions, so that a leg's cached index is read again."""
        cospans = several_partners
        theirs, places = {}, {}
        for f, g in [*cospans, *((g, f) for f, g in cospans)]:
            mine = tc.pullback(f, g)
            ref = reference.pullback(*(
                theirs.setdefault(id(leg), on_reference(reference, leg)) for leg in (f, g)
            ))
            assert_same_pullback(mine, ref)
            assert_in_row_join_order(mine, f, g, places)
        assert len(cospans) == 122

    def test_relaxed_legs_with_the_larger_leg_first_and_second(self, reference):
        """The reference's apex holds the cells that fail: the least pair
        whose composite is off the apex, or the least cell whose boundary or
        identity is.  Each cospan pairs a leg with one of twice its size, a
        fold ``C + C -> C``, built once and pulled back in both positions."""
        fun, idC = composition_breaking_legs()
        idT = tc.identity_two_functor(tc.make_T())
        swap = tc.TwoFunctor(idT.source, idT.target, {"a": "b", "b": "a"}, idT.f1, idT.f2)
        cospans = []
        for broken, valid in ((fun, idC), (swap, idT)):
            union, injections = tc.coproduct([valid.source, valid.source])
            cospans += [
                (tc.copair(union, injections, [valid, valid]), broken),
                (tc.copair(union, injections, [broken, valid]), valid),
            ]
        raised = []
        for f, g in [*cospans, *((g, f) for f, g in cospans)]:
            assert len(f.source.two_cells) != len(g.source.two_cells)
            apex = reference.pullback(on_reference(reference, f), on_reference(reference, g)).apex
            with pytest.raises((tc.LawViolation, tc.MalformedData)) as caught:
                tc.pullback(f, g)
            if isinstance(caught.value, tc.LawViolation):
                assert (caught.value.law, caught.value.cells) == ("boundary", least_pair_off(apex))
            else:
                assert str(caught.value) == (
                    f"the boundary or identity of apex cell {least_dangling_cell(apex)!r}"
                    " is outside the fiber"
                )
            raised.append(type(caught.value).__name__)
        assert raised == (["LawViolation"] * 2 + ["MalformedData"] * 2) * 2


class TestGraphPullback:
    def test_it_is_the_pullback_without_its_tables(self, several_partners):
        """Apex carriers and projection maps equal those of ``pullback``,
        also in iteration order."""
        for f, g in [*several_partners, *((g, f) for f, g in several_partners)]:
            full = tc.pullback(f, g)
            apex, *projs = tc.graph_pullback(f, g)
            assert apex == tc.underlying_two_graph(full.apex)
            for field in dataclasses.fields(apex):
                ours, theirs = getattr(apex, field.name), getattr(full.apex, field.name)
                assert list(ours) == list(theirs), field.name
            for proj, full_proj in zip(projs, (full.proj1, full.proj2)):
                assert proj.source is apex and proj.target is full_proj.target
                for ours, theirs in zip((proj.f0, proj.f1, proj.f2),
                                        (full_proj.f0, full_proj.f1, full_proj.f2)):
                    assert list(ours.items()) == list(theirs.items())


def assert_same_pullback(mine, ref):
    """Apex carriers, tables, projections and names equal the reference's;
    all but the tables also in iteration order."""
    def ordered(value):
        return list(value.items()) if isinstance(value, dict) else list(value)

    for field in dataclasses.fields(mine.apex):
        ours, theirs = getattr(mine.apex, field.name), getattr(ref.apex, field.name)
        assert ours == theirs, field.name
        if field.name not in ("one_compose", "vert_compose", "horiz_compose"):
            assert ordered(ours) == ordered(theirs), field.name
    for proj, ref_proj in ((mine.proj1, ref.proj1), (mine.proj2, ref.proj2)):
        for ours, theirs in zip((proj.f0, proj.f1, proj.f2), (ref_proj.f0, ref_proj.f1, ref_proj.f2)):
            assert list(ours.items()) == list(theirs.items())
    assert [list(level.items()) for level in mine.names] == [
        [((p1[n], p2[n]), n) for n in p1]
        for p1, p2 in zip((ref.proj1.f0, ref.proj1.f1, ref.proj1.f2),
                          (ref.proj2.f0, ref.proj2.f1, ref.proj2.f2))
    ]


def assert_in_row_join_order(result, f, g, places):
    """Each apex table lists its rows by the first leg's row, in that leg's
    table order, then by the second leg's.  (The reference walks the apex's
    composable pairs instead, so its tables are compared as dicts only.)

    ``places`` memoizes each leg's row positions by table."""
    for table, level in (("one_compose", 1), ("vert_compose", 2), ("horiz_compose", 2)):
        legs = [
            ((proj.f1, proj.f2)[level - 1], places.setdefault(
                (id(leg), table), {key: i for i, key in enumerate(getattr(leg.source, table))}))
            for proj, leg in ((result.proj1, f), (result.proj2, g))
        ]
        ranks = [
            tuple(place[m[b], m[a]] for m, place in legs) for b, a in getattr(result.apex, table)
        ]
        assert ranks == sorted(ranks), table


def least_pair_off(apex):
    """The least table key of the first table whose composite is off the apex."""
    return next(
        min(key for key, value in table.items() if value not in cells)
        for table, cells in (
            (apex.one_compose, apex.one_cells),
            (apex.vert_compose, apex.two_cells),
            (apex.horiz_compose, apex.two_cells),
        )
        if not cells.keys() >= set(table.values())
    )


def least_dangling_cell(apex):
    """The least apex cell whose boundary or identity is not an apex cell."""
    return min(
        [x for x in apex.objects if apex.one_identity[x] not in apex.one_cells]
        + [u for u, ends in apex.one_cells.items()
           if not apex.objects >= set(ends) or apex.two_identity[u] not in apex.two_cells]
        + [t for t, ends in apex.two_cells.items() if not apex.one_cells.keys() >= set(ends)]
    )


@pytest.fixture()
def index_builds(monkeypatch):
    """Every functor whose index by image is built, once per build."""
    built = []
    cached = TwoFunctor.__dict__["_by_image"]

    class Counting:
        def __get__(self, fun, owner=None):
            if fun is not None and "_by_image" not in vars(fun):
                built.append(fun)
            return cached.__get__(fun, owner)

    monkeypatch.setattr(TwoFunctor, "_by_image", Counting())
    return built


@pytest.fixture()
def pulled_back(monkeypatch):
    """The legs of every fiber product the package builds, with or without
    tables: both ``pullback`` and ``graph_pullback`` call ``fiber_product``."""
    log = []
    real = limits.fiber_product

    def recording(f, g):
        log.append((f, g))
        return real(f, g)

    monkeypatch.setattr(limits, "fiber_product", recording)
    return log


class TestEachFixedLegIsIndexedOnce:
    """A leg pulled back along many probes is the second leg, indexed by
    image once; the probes, the first legs, are walked and get no index.
    Its table rows are indexed only for a pullback that joins tables."""

    def test_semi_left_exactness(self, index_builds, pulled_back):
        v4 = tc.make_v4()
        assert tc.check_semi_left_exact(v4)
        units = {id(g): g for _, g in pulled_back}
        assert len(units) == 1 and len(pulled_back) > 1
        unit = next(iter(units.values()))
        assert unit.source is v4
        assert index_builds == [unit] and "_by_image" in vars(unit)
        assert "_rows_by_image" in vars(unit)
        assert not any("_by_image" in vars(mu) for mu, _ in pulled_back)

    def test_covering_oracle_of_the_v4_cover_projection(self, index_builds, pulled_back):
        _, p = tc.edm_cover(tc.make_v4())
        assert tc.covering_oracle(p)
        assert [g for _, g in pulled_back] == [p] * 12
        assert index_builds == [p] and "_by_image" in vars(p)
        assert "_rows_by_image" not in vars(p)
        assert not any("_by_image" in vars(phi) for phi, _ in pulled_back)

    def test_trivial_covering_oracle_of_the_v4_cover_projection(self, index_builds, pulled_back):
        """One fiber product: the target's unit, walked, against the induced
        functor, indexed once, its table rows never."""
        _, p = tc.edm_cover(tc.make_v4())
        assert tc.trivial_covering_oracle(p) == tc.is_trivial_covering(p)
        [(unit, induced)] = pulled_back
        assert unit.source is p.target and unit.target is induced.target
        assert induced.source.objects == p.source.objects
        assert index_builds == [induced] and "_rows_by_image" not in vars(induced)


class TableJoined(Exception):
    pass


class TestCarrierOnlyCallersJoinNoTable:
    """The covering oracle reads carriers only and ``check_stable_units``
    builds no pullback, so both answer with the join of the apex tables
    disabled."""

    def test_on_v4_h4_and_the_t_cover_projection(self, monkeypatch):
        v4, h4 = tc.make_v4(), tc.make_h4()
        _, p = tc.edm_cover(tc.make_T())

        def refuse(*args):
            raise TableJoined

        monkeypatch.setattr(limits, "_join", refuse)
        with pytest.raises(TableJoined):
            tc.pullback(p, tc.identity_two_functor(p.target))
        for cat in (v4, h4):
            assert tc.check_stable_units(cat, cat)
            assert tc.covering_oracle(tc.identity_two_functor(cat))
        assert tc.check_stable_units(v4, h4) and tc.check_stable_units(h4, v4)
        assert tc.covering_oracle(p) and tc.is_covering(p)

    def test_both_oracles_name_no_cell(self, monkeypatch):
        """Both oracles read fiber pairs: they join no table, name no apex
        cell, and build no projection and no mediating functor.  The cover
        projections are both coverings, the collapse of T2 onto T neither."""
        projections = [tc.edm_cover(base)[1] for base in (tc.make_T(), tc.make_v4())]
        projections.append(pick_functor(tc.make_Tn(2), tc.make_T(), t1="t1", t2="t1"))  # neither
        expected = [(tc.is_trivial_covering(p), tc.is_covering(p)) for p in projections]

        def refuse(*args, **kwargs):
            raise TableJoined

        for name in ("_join", "encoder", "projections", "pair_into_pullback"):
            real = getattr(limits, name)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("twocat") and (
                    getattr(module, name, None) is real
                ):
                    monkeypatch.setattr(module, name, refuse)
        with pytest.raises(TableJoined):
            tc.pullback(projections[0], tc.identity_two_functor(projections[0].target))
        answers = [(tc.trivial_covering_oracle(p), tc.covering_oracle(p)) for p in projections]
        assert answers == expected


class TestInjectiveNames:
    def test_colliding_pair_names_are_escaped(self):
        left = build_two_category(objects=("a|b", "a"), one_cells={}, two_cells={})
        right = build_two_category(objects=("c", "b|c"), one_cells={}, two_cells={})
        result = tc.product(left, right)
        assert result.apex.carrier_sizes() == (4, 4, 4)
        assert tc.validate_two_category(result.apex).all_pass
        assert sorted(result.apex.objects) == [
            r"(a\|b|b\|c)", r"(a\|b|c)", r"(a|b\|c)", "(a|c)"
        ]
        for proj in (result.proj1, result.proj2):
            assert tc.validate_two_functor(proj) == []

    def test_names_without_collisions_render_plain(self):
        nested = tc.product(tc.product(tc.make_T(), tc.terminal()).apex, tc.terminal())
        assert "((a|pt)|pt)" in nested.apex.objects
        assert "((h|id:pt)|id:pt)" in nested.apex.one_cells


class TestProductAndTerminal:
    def test_terminal_sizes(self):
        assert tc.terminal().carrier_sizes() == (1, 1, 1)
        assert tc.validate_two_category(tc.terminal()).all_pass

    def test_product_with_terminal_is_identity_up_to_iso(self):
        result = tc.product(tc.make_T(), tc.terminal())
        assert tc.find_isomorphism(result.apex, tc.make_T()) is not None

    def test_square_of_the_probe_has_product_carriers(self):
        result = tc.product(tc.make_T(), tc.make_T())
        assert result.apex.carrier_sizes() == (4, 16, 25)
        assert tc.validate_two_category(result.apex).all_pass

    def test_product_of_terminals_is_terminal(self):
        result = tc.product(tc.terminal(), tc.terminal())
        assert tc.find_isomorphism(result.apex, tc.terminal()) is not None

    def test_unique_functor_into_terminal(self, gallery_objects):
        for name in ("terminal", "T0", "T", "T3", "v4"):
            cat = gallery_objects[name]
            assert tc.validate_two_functor(tc.terminal_functor(cat)) == []
            assert len(list(tc.enumerate_two_functors(cat, tc.terminal()))) == 1


def _square_from_cospan(f, g):
    fiber = sorted(
        (x, y) for x in f for y in g if f[x] == g[y]
    )
    p = {f"w{i}": x for i, (x, y) in enumerate(fiber)}
    q = {f"w{i}": y for i, (x, y) in enumerate(fiber)}
    return FiniteSquare(p=p, q=q, f=dict(f), g=dict(g))


finite_maps = st.integers(1, 4).flatmap(
    lambda nz: st.tuples(
        st.dictionaries(
            st.integers(0, 5), st.integers(0, nz - 1), min_size=1, max_size=6
        ),
        st.dictionaries(
            st.integers(10, 15), st.integers(0, nz - 1), min_size=1, max_size=6
        ),
    )
)


class TestPullbackSquare:
    def test_composable_pair_square_of_the_probe(self):
        cat = tc.make_T()
        pairs = {f"{g}*{f}": (g, f) for g, f in core._chains(cat.one_cells)}
        square = FiniteSquare(
            p={w: pair[0] for w, pair in pairs.items()},
            q={w: pair[1] for w, pair in pairs.items()},
            f={u: cat.dom(u) for u in cat.one_cells},
            g={u: cat.cod(u) for u in cat.one_cells},
        )
        assert tc.is_pullback_square(square)

    def test_dropping_one_pair_breaks_the_square(self):
        cat = tc.make_T()
        pairs = {f"{g}*{f}": (g, f) for g, f in core._chains(cat.one_cells)}
        dropped = sorted(pairs)[0]
        del pairs[dropped]
        square = FiniteSquare(
            p={w: pair[0] for w, pair in pairs.items()},
            q={w: pair[1] for w, pair in pairs.items()},
            f={u: cat.dom(u) for u in cat.one_cells},
            g={u: cat.cod(u) for u in cat.one_cells},
        )
        assert not tc.is_pullback_square(square)

    def test_feet_whose_keys_do_not_compare(self):
        """Keys need only be hashable: a foot mixing ints and strings is grouped unsorted."""
        f, g = {"x": 0, 2: 1}, {1: 0, "a": 0, "b": 1}
        pairs = {f"{x}{y}": (x, y) for x in f for y in g if f[x] == g[y]}
        square = FiniteSquare(
            p={w: x for w, (x, _) in pairs.items()}, q={w: y for w, (_, y) in pairs.items()}, f=f, g=g
        )
        assert tc.is_pullback_square(square)
        del square.p["x1"], square.q["x1"]
        assert not tc.is_pullback_square(square)

    @settings(max_examples=60, deadline=None)
    @given(finite_maps)
    def test_canonical_fiber_product_is_recognized(self, maps):
        f, g = maps
        square = _square_from_cospan(f, g)
        assert tc.is_pullback_square(square)

    @settings(max_examples=60, deadline=None)
    @given(finite_maps)
    def test_apex_with_an_element_removed_is_rejected(self, maps):
        f, g = maps
        square = _square_from_cospan(f, g)
        if not square.p:
            return
        victim = sorted(square.p)[0]
        smaller = FiniteSquare(
            p={k: v for k, v in square.p.items() if k != victim},
            q={k: v for k, v in square.q.items() if k != victim},
            f=square.f,
            g=square.g,
        )
        assert not tc.is_pullback_square(smaller)

    @settings(max_examples=60, deadline=None)
    @given(finite_maps)
    def test_duplicated_apex_element_is_rejected(self, maps):
        f, g = maps
        square = _square_from_cospan(f, g)
        if not square.p:
            return
        victim = sorted(square.p)[0]
        bigger = FiniteSquare(
            p={**square.p, "dup": square.p[victim]},
            q={**square.q, "dup": square.q[victim]},
            f=square.f,
            g=square.g,
        )
        assert not tc.is_pullback_square(bigger)
