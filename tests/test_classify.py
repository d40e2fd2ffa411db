import dataclasses
import importlib
import itertools
import sys

import pytest

import twocat as tc
import twocat.classify as bound_name
from twocat import core, limits, reflection

from conftest import (
    descent_probe_setup,
    locally_discrete_inclusion,
    on_reference,
    pick_functor,
)


@pytest.fixture(scope="module")
def named(t_family):
    T0, T, T2, T3 = t_family
    return {
        "collapse2": pick_functor(T2, T, t1="t1", t2="t1"),
        "collapse3": pick_functor(T3, T, t1="t1", t2="t1", t3="t1"),
        "include0": pick_functor(T0, T),
        "includeT": pick_functor(T, T2, t1="t1"),
        "identity": tc.identity_two_functor(T),
    }


class TestEffectiveDescent:
    def test_cover_projection_is_a_descent_morphism(self):
        for base in (tc.make_T(), tc.make_Tn(2)):
            _, p = tc.edm_cover(base)
            assert tc.is_edm(p)

    def test_identity_is_a_descent_morphism(self, named):
        assert tc.is_edm(named["identity"])

    def test_inclusion_missing_a_cell_is_not(self, named):
        found = []
        assert not tc.is_edm(named["include0"], witness=found)
        kind, *cells = found[0]
        assert "t1" in cells

    def test_descent_implies_pointwise_surjectivity(self, corpus_functors):
        for fun in corpus_functors:
            if not tc.is_edm(fun):
                continue
            assert set(fun.f0.values()) == set(fun.target.objects)
            assert set(fun.f1.values()) == set(fun.target.one_cells)
            assert set(fun.f2.values()) == set(fun.target.two_cells)


class TestVertical:
    def test_collapse_is_vertical(self, named):
        assert tc.is_vertical(named["collapse2"])

    def test_inclusion_of_the_empty_hom_is_not(self, named):
        found = []
        assert not tc.is_vertical(named["include0"], witness=found)
        assert found[0] == ("h", "h'")

    def test_identity_is_vertical(self, named):
        assert tc.is_vertical(named["identity"])


class TestStablyVertical:
    def test_collapse_is_stably_vertical(self, named):
        assert tc.is_stably_vertical(named["collapse2"])

    def test_non_full_inclusion_separates_the_classes(self, named):
        assert tc.is_vertical(named["includeT"])
        assert not tc.is_stably_vertical(named["includeT"])

    def test_identity_is_stably_vertical(self, named):
        assert tc.is_stably_vertical(named["identity"])

    def test_pullback_stability_over_the_corpus(self, corpus_functors):
        stably = [f for f in corpus_functors if tc.is_stably_vertical(f)]
        checked = 0
        for e in stably:
            for g in corpus_functors:
                if g.target != e.target or g is e:
                    continue
                projected = tc.pullback(g, e).proj1
                assert tc.is_stably_vertical(projected)
                checked += 1
        assert checked > 100


class TestTrivialCovering:
    def test_vacuous_homs_make_a_trivial_covering(self, named):
        assert tc.is_trivial_covering(named["include0"])

    def test_non_surjective_hom_map_fails(self, named):
        assert not tc.is_trivial_covering(named["includeT"])

    def test_identity_is_a_trivial_covering(self, named):
        assert tc.is_trivial_covering(named["identity"])


class TestCovering:
    def test_inclusion_is_a_covering(self, named):
        assert tc.is_covering(named["includeT"])

    def test_collapse_is_not(self, named):
        found = []
        assert not tc.is_covering(named["collapse2"], witness=found)
        assert found[0] == ("t1", "t2")

    def test_identity_is_a_covering(self, named):
        assert tc.is_covering(named["identity"])

    def test_empty_source_is_a_covering_by_every_probe(self, t_family):
        fun = pick_functor(t_family[0], t_family[1])
        assert tc.covering_oracle(fun)


class TestOracles:
    def test_trivial_covering_oracle_matches_on_named_functors(self, named):
        for fun in named.values():
            assert tc.trivial_covering_oracle(fun) == tc.is_trivial_covering(fun)

    def test_covering_oracle_matches_on_named_functors(self, named):
        for fun in named.values():
            assert tc.covering_oracle(fun) == tc.is_covering(fun)

    def test_unit_of_collapsing_object_is_not_a_trivial_covering(self):
        unit = tc.reflect(tc.make_Tn(3)).unit
        assert not tc.is_trivial_covering(unit)
        assert not tc.trivial_covering_oracle(unit)

    def test_isomorphism_is_a_trivial_covering_by_the_oracle(self, named):
        assert tc.trivial_covering_oracle(named["identity"])


class TestClassify:
    def test_identity_has_every_class(self, named):
        report = tc.classify(named["identity"])
        assert all(report.as_dict().values())
        assert report.witnesses == {}

    def test_collapse_profile(self, named):
        report = tc.classify(named["collapse2"])
        assert report.as_dict() == {
            "edm": True,
            "vertical": True,
            "stably_vertical": True,
            "trivial_covering": False,
            "covering": False,
        }

    def test_inclusion_profile(self, named):
        report = tc.classify(named["include0"])
        assert report.as_dict() == {
            "edm": False,
            "vertical": False,
            "stably_vertical": False,
            "trivial_covering": True,
            "covering": True,
        }

    def test_containments_on_the_corpus(self, corpus_functors):
        for fun in corpus_functors:
            report = tc.classify(fun)
            if report.trivial_covering:
                assert report.covering
            if report.stably_vertical:
                assert report.vertical


class TestTheClassifyName:
    """The package binds the function ``classify`` over its submodule's
    name, and ``importlib`` reaches the submodule."""

    def test_importing_the_name_gives_the_function(self):
        assert bound_name is tc.classify
        assert bound_name.__module__ == "twocat.classify"
        assert not hasattr(bound_name, "is_vertical")

    def test_importlib_gives_the_module(self):
        module = importlib.import_module("twocat.classify")
        assert module is sys.modules["twocat.classify"]
        assert module.classify is tc.classify
        assert module.is_edm is tc.is_edm


class TestLocalization:
    def test_coverings_pull_back_to_trivial_coverings_along_the_cover(
        self, corpus_functors
    ):
        checked = 0
        for fun in corpus_functors:
            if not tc.is_covering(fun) or len(fun.target.two_cells) > 6:
                continue
            _, p = tc.edm_cover(fun.target)
            projected = tc.pullback(p, fun).proj1
            assert tc.is_covering(projected)
            assert tc.is_trivial_covering(projected)
            checked += 1
        assert checked > 10

    def test_a_covering_is_what_the_cover_pulls_back_to_a_trivial_covering(
        self, t_family, functor_corpus
    ):
        # the cover's projection is an effective descent morphism, so by
        # Janelidze-Kelly a functor is a covering exactly when its pullback
        # along the projection is a trivial covering: both directions hold
        projections = [tc.edm_cover(target)[1] for target in t_family]
        verdicts = []
        for (_, n), funs in functor_corpus.items():
            for fun in funs:
                pulled = tc.pullback(projections[n], fun).proj1
                verdicts.append(tc.is_covering(fun))
                assert tc.trivial_covering_oracle(pulled) == verdicts[-1], fun
        assert (len(verdicts), sum(verdicts)) == (128, 60)

    def test_the_seeded_functors_are_coverings_by_descent(self, seeded_functors):
        # the same two directions on the 20 seeded functors, whose targets
        # are random instances rather than members of the T family
        verdicts = []
        for fun in seeded_functors:
            _, p = tc.edm_cover(fun.target)
            verdicts.append(tc.is_covering(fun))
            assert tc.trivial_covering_oracle(tc.pullback(p, fun).proj1) == verdicts[-1], fun
        assert (len(verdicts), sum(verdicts)) == (20, 15)


def _levelwise(fun):
    """The seven carrier levels of a functor as (elements, map) pairs."""
    src = fun.source
    yield sorted(src.objects), dict(fun.f0)
    yield sorted(src.one_cells), dict(fun.f1)
    yield sorted(src.two_cells), dict(fun.f2)
    yield sorted(core._chains(src.one_cells)), {
        (g, f): (fun.f1[g], fun.f1[f]) for g, f in core._chains(src.one_cells)
    }
    yield sorted(core._chains(src.two_cells)), {
        (b, a): (fun.f2[b], fun.f2[a]) for b, a in core._chains(src.two_cells)
    }
    yield sorted(core._chains(src.horiz_ends())), {
        (b, a): (fun.f2[b], fun.f2[a]) for b, a in core._chains(src.horiz_ends())
    }
    # horizontally composable pairs of vertically composable pairs
    over = {}
    for b, a in core._chains(src.two_cells):
        over.setdefault(a, []).append((b, a))
    stacked = [
        (p, q) for ap, a in core._chains(src.horiz_ends())
        for p in over.get(ap, ()) for q in over.get(a, ())
    ]
    yield sorted(stacked), {
        (p, q): ((fun.f2[p[0]], fun.f2[p[1]]), (fun.f2[q[0]], fun.f2[q[1]]))
        for p, q in stacked
    }


class TestComponentSquares:
    def test_trivial_covering_iff_all_seven_unit_squares_are_pullbacks(
        self, corpus_functors
    ):
        # the naturality square of the collapse unit, carrier by carrier,
        # recomputed with the generic finite-square checker
        from twocat.limits import FiniteSquare

        for fun in corpus_functors:
            unit_a = tc.reflect(fun.source).unit
            unit_b = tc.reflect(fun.target).unit
            reflected = tc.reflect_functor(fun)
            levels = zip(
                _levelwise(fun),
                _levelwise(unit_a),
                _levelwise(unit_b),
                _levelwise(reflected),
            )
            squares = []
            for (_, f_map), (_, ua_map), (_, ub_map), (_, rf_map) in levels:
                squares.append(
                    tc.is_pullback_square(
                        FiniteSquare(p=f_map, q=ua_map, f=ub_map, g=rf_map)
                    )
                )
            assert len(squares) == 7
            assert all(squares) == tc.is_trivial_covering(fun)


class TestNegativeDescent:
    def test_missing_triples_make_the_pullback_a_two_category(self):
        h4na, base, phi, cover, p, dropped = descent_probe_setup()
        assert tc.validate_two_functor(phi) == []
        assert tc.validate_two_functor(p) == []
        assert not tc.is_edm(p)
        assert not tc.validate_two_category(h4na).passed("h-assoc")
        result = tc.pullback(phi, p)
        assert tc.validate_two_category(result.apex).all_pass
        assert dropped == 7


#: The predicates pinned against the reference; the last four are hom-wise.
PINNED = ("is_edm", "is_vertical", "is_stably_vertical", "is_trivial_covering", "is_covering")


def graph_maps(cat):
    """Maps out of the identity of ``cat`` that break boundaries: two objects
    merged (``f1`` injective, ``f0`` not), two 1-cells merged (the reverse),
    and the 2-cells rotated by one (``f0`` and ``f1`` injective)."""
    identity = tc.identity_two_functor(cat)
    objects, ones, twos = (sorted(cells) for cells in (cat.objects, cat.one_cells, cat.two_cells))

    def merged(cells):
        return {c: cells[0] if c == cells[-1] else c for c in cells}

    return [
        dataclasses.replace(identity, f0=merged(objects)),
        dataclasses.replace(identity, f1=merged(ones)),
        dataclasses.replace(identity, f2=dict(zip(twos, twos[1:] + twos[:1]))),
    ]


def rich_categories():
    return (tc.make_Tn(3), tc.make_v4(), tc.make_h4(), tc.product(tc.make_T(), tc.make_Tn(2)).apex)


@pytest.fixture(scope="module")
def differential_functors(corpus_functors, seeded_functors):
    """Corpus, seeded and random functors, cover projections and inclusions.

    The functors between small random instances bring non-bijective 1-cell
    maps and empty target homs.
    """
    instances = [
        tc.random_instance(seed, max_objects=4, max_one_cells=10, max_two_cells=14)
        for seed in range(12)
    ]
    between = [
        fun
        for a, b in itertools.product(instances, repeat=2)
        for fun in itertools.islice(tc.enumerate_two_functors(a, b), 4)
    ]
    covers = [tc.edm_cover(base)[1] for base in (tc.make_T(), tc.make_Tn(3))]
    discrete = [locally_discrete_inclusion(cat) for cat in rich_categories()]
    return corpus_functors + seeded_functors + between + covers + discrete


@pytest.fixture(scope="module")
def partial_maps(differential_functors):
    """Each differential functor with its least ``f1`` or ``f2`` entry
    dropped, or sent outside the target, keyed by the edit."""
    edits = {}
    for fun in differential_functors:
        for level, carrier in (("f1", fun.target.one_cells), ("f2", fun.target.two_cells)):
            cells = getattr(fun, level)
            least = min(cells)
            dropped = {cell: image for cell, image in cells.items() if cell != least}
            sent = {**cells, least: max(carrier) + "~"}  # names are strings
            for edit, edited in (("dropped", dropped), ("outside", sent)):
                edits.setdefault(f"{level} {edit}", []).append(
                    dataclasses.replace(fun, **{level: edited})
                )
    return edits


class TestAgainstTheReference:
    """The predicates give the pinned reference's verdicts and least witnesses."""

    @pytest.mark.parametrize("name", PINNED)
    def test_verdicts_and_least_witnesses(
        self, name, differential_functors, partial_maps, reference
    ):
        """Also on maps that lack an entry or leave the target, where the
        reference may raise instead, and then the same exception type."""
        failures = pinned_failures(name, differential_functors, reference)
        assert failures > 100  # the witness paths are exercised
        for functors in partial_maps.values():
            pinned_failures(name, functors, reference)

    def test_edm_on_graph_maps_and_a_cover_that_misses_triples(self, reference):
        """``is_edm`` decides a level by its lemma when the map below is
        injective and sends the ends of each cell to those of its image,
        as on the locally discrete inclusions above, whose ``f2`` is not
        onto.  Each graph map breaks a condition at one level or at both,
        as the projections do, and that level takes the relational path;
        the h4-sized projection misses triples.  The predicates other than
        ``is_edm`` read these maps as functors, so only ``is_edm`` is
        pinned here."""
        graphs = [fun for cat in rich_categories() for fun in graph_maps(cat)]
        missing = descent_probe_setup()[4]
        assert pinned_failures("is_edm", [*graphs, missing], reference) == 5  # rotations and the cover


def pinned_failures(name, functors, reference):
    """The number of ``functors`` that predicate ``name`` rejects, after
    checking its verdicts and least witnesses against the reference's, or
    that both raise the same type of exception."""
    ours, theirs = getattr(tc, name), getattr(reference, name)
    failures = 0
    for fun in functors:
        outcome = judged(ours, fun)
        assert outcome == judged(theirs, on_reference(reference, fun))
        failures += outcome[0] is False
    return failures


def judged(predicate, fun):
    """The verdict of ``predicate`` on ``fun`` and its witnesses, or the
    type of the exception it raised."""
    found = []
    try:
        verdict = predicate(fun)
    except Exception as exc:  # compared across the two packages' error types
        return (type(exc).__name__,)
    assert predicate(fun, witness=found) == verdict
    return verdict, found


def edited_identities(cat):
    """The identity functor of ``cat``, each boundary-preserving edit of its
    ``f2`` at one cell (onto a parallel cell), and each swap of two parallel
    cells.  Most edits are no 2-functors; each swap stays injective on homs."""
    identity, homs = tc.identity_two_functor(cat), core._by_ends(cat.two_cells)
    edits = [{}]
    for t, ends in sorted(cat.two_cells.items()):
        for u in homs[ends]:
            if u != t:
                edits += [{t: u}] + ([{t: u, u: t}] if t < u else [])
    return [tc.TwoFunctor(cat, cat, identity.f0, identity.f1, {**identity.f2, **edit})
            for edit in edits]


def outcome_of(check, fun):
    """The verdict of ``check``, or the type name and message it raised."""
    try:
        return check(fun)
    except Exception as exc:  # compared across the two packages' error types
        return type(exc).__name__, str(exc)


class TestCoveringOracleAgainstTheReference:
    def test_edited_identities(self, gallery_objects, reference):
        """The gallery but vh4 and forty seeded random instances; the
        reference builds every fiber product with its tables."""
        cats = [cat for name, cat in gallery_objects.items() if name != "vh4"]
        cats += [tc.random_instance(seed, 4, 16, 32) for seed in range(40)]
        verdicts = []
        for cat in cats:
            for fun in edited_identities(cat):
                mine = outcome_of(tc.covering_oracle, fun)
                assert mine == outcome_of(reference.covering_oracle, on_reference(reference, fun))
                verdicts.append(mine)
        assert (len(verdicts), verdicts.count(True), verdicts.count(False)) == (261, 119, 142)

    def test_edits_that_break_boundaries(self, gallery_objects):
        """Each outcome is the per-probe apex check's, verdict or error and
        message, on edits that break boundaries or send a cell outside the
        target.  vh4 (1,234 2-cells) is left out, for time."""
        outcomes = []
        for name, cat in gallery_objects.items():
            if name == "vh4":
                continue
            for fun in (*boundary_breaking_edits(cat, max_two_cells=12), *edits_outside_the_target(cat)):
                mine = outcome_of(tc.covering_oracle, fun)
                assert mine == outcome_of(per_probe_covering_oracle, fun), name
                outcomes.append(mine if isinstance(mine, bool) else mine[0])
        assert (len(outcomes), outcomes.count(True), outcomes.count("MalformedData")) == (497, 48, 449)


def per_probe_covering_oracle(fun):
    """The covering oracle from each probe's apex carriers, each cell named
    by its pair, whose check raises on a pair outside the fiber."""
    for phi in tc.enumerate_two_functors(tc.make_T(), fun.target):
        cells = limits._pair_apex(phi, fun)[0]["two_cells"]
        if len(set(cells.values())) < len(cells):
            return False
    return True


def edits_outside_the_target(cat):
    """The identity functor of ``cat`` with one entry of one carrier map
    sent to a cell the target does not have."""
    identity = tc.identity_two_functor(cat)
    maps = (identity.f0, identity.f1, identity.f2)
    for level, mapping in enumerate(maps):
        for cell in sorted(mapping):
            edited = list(maps)
            edited[level] = {**mapping, cell: "outside"}
            yield tc.TwoFunctor(cat, cat, *edited)


def tabled_trivial_covering_oracle(fun):
    """The trivial-covering oracle over the tabled, named pullback square:
    the comparison from the source is a levelwise bijection onto its apex."""
    square, comparison = reflection._reflected_square(fun)
    return all(
        core._bijectivity_witness(mapping, codomain) is None
        for mapping, codomain in (
            (comparison.f0, square.apex.objects),
            (comparison.f1, square.apex.one_cells),
            (comparison.f2, square.apex.two_cells),
        )
    )


def boundary_breaking_edits(cat, max_two_cells):
    """The identity functor of ``cat`` with ``f1`` swapped between two
    parallel 1-cells, and, if ``cat`` has at most ``max_two_cells`` 2-cells,
    with ``f2`` sent at one cell onto a cell of another boundary."""
    identity = tc.identity_two_functor(cat)
    f0, f1, f2 = identity.f0, identity.f1, identity.f2
    by_ends = core._by_ends(cat.one_cells)
    for h, ends in sorted(cat.one_cells.items()):
        for k in by_ends[ends]:
            if h < k:
                yield tc.TwoFunctor(cat, cat, f0, {**f1, h: k, k: h}, f2)
    if len(cat.two_cells) <= max_two_cells:
        for t, ends in sorted(cat.two_cells.items()):
            for u, other in sorted(cat.two_cells.items()):
                if other != ends:
                    yield tc.TwoFunctor(cat, cat, f0, f1, {**f2, t: u})


class TestTrivialCoveringOracleAgainstTheReference:
    """The oracle reads fiber pairs; the reference and the tabled square
    build every fiber product with names and tables."""

    def test_edited_identities(self, gallery_objects, reference):
        """The corpus of :class:`TestCoveringOracleAgainstTheReference`."""
        cats = [cat for name, cat in gallery_objects.items() if name != "vh4"]
        cats += [tc.random_instance(seed, 4, 16, 32) for seed in range(40)]
        verdicts = []
        for cat in cats:
            for fun in edited_identities(cat):
                mine = outcome_of(tc.trivial_covering_oracle, fun)
                assert mine == outcome_of(reference.trivial_covering_oracle,
                                          on_reference(reference, fun))
                verdicts.append(mine)
        assert (len(verdicts), verdicts.count(True), verdicts.count(False)) == (261, 119, 142)

    def test_edits_that_break_boundaries(self, gallery_objects):
        """Each outcome is the tabled square's, verdict or error and message.
        vh4 (1,234 2-cells) is left out, and h4 (58) takes only ``f1`` swaps,
        for time."""
        raised = set()
        for name, cat in gallery_objects.items():
            if name == "vh4":
                continue
            for fun in boundary_breaking_edits(cat, max_two_cells=12):
                mine = outcome_of(tc.trivial_covering_oracle, fun)
                assert mine == outcome_of(tabled_trivial_covering_oracle, fun), name
                raised.add(mine[0])
        assert raised == {"MalformedData", "MismatchedTarget"}


def levelwise_bijection(fun):
    """Whether each carrier map of ``fun`` is a bijection onto the target's."""
    return all(
        sorted(mapping.values()) == sorted(carrier)
        for mapping, carrier in (
            (fun.f0, fun.target.objects),
            (fun.f1, fun.target.one_cells),
            (fun.f2, fun.target.two_cells),
        )
    )


def vertical_oracle(fun):
    """Vertical by definition (Cassidy-Hebert-Kelly): the reflection of
    ``fun`` is an isomorphism, a levelwise bijection that is a 2-functor."""
    reflected = tc.reflect_functor(fun)
    return levelwise_bijection(reflected) and tc.validate_two_functor(reflected) == []


def stably_vertical_oracle(fun, probes):
    """Stably vertical by definition (Carboni-Janelidze-Kelly-Pare): every
    pullback of ``fun`` along a functor from ``probes`` into its target
    passes :func:`vertical_oracle`."""
    return all(
        vertical_oracle(tc.pullback(g, fun).proj1)
        for probe in probes
        for g in tc.enumerate_two_functors(probe, fun.target)
    )


class TestVerticalClassesByDefinition:
    """``is_vertical`` and ``is_stably_vertical`` against their definitions."""

    def test_vertical(self, differential_functors, corpus_functors):
        for fun in differential_functors:
            assert tc.is_vertical(fun) == vertical_oracle(fun)
        assert sum(map(vertical_oracle, corpus_functors)) == 58

    def test_stably_vertical(self, corpus_functors, seeded_functors, t_family):
        counts = []
        for functors in (corpus_functors, seeded_functors):
            verdicts = [stably_vertical_oracle(fun, t_family) for fun in functors]
            assert verdicts == [tc.is_stably_vertical(fun) for fun in functors]
            counts.append(sum(verdicts))
        assert counts == [19, 12]


class TestScale:
    def test_h4_cover_projection(self):
        _, p = tc.edm_cover(tc.make_h4())
        assert p.source.carrier_sizes() == (2024, 11798, 26050)
        report = tc.classify(p)
        assert report.as_dict() == {
            "edm": True,
            "vertical": False,
            "stably_vertical": False,
            "trivial_covering": True,
            "covering": True,
        }
        assert tc.trivial_covering_oracle(p)
