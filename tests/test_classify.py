import dataclasses
import itertools

import pytest

import twocat as tc

from conftest import descent_probe_setup, identity_on_cells, pick_functor


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


def _levelwise(fun):
    """The seven carrier levels of a functor as (elements, map) pairs."""
    src = fun.source
    yield sorted(src.objects), dict(fun.f0)
    yield sorted(src.one_cells), dict(fun.f1)
    yield sorted(src.two_cells), dict(fun.f2)
    yield sorted(src.one_pairs()), {
        (g, f): (fun.f1[g], fun.f1[f]) for g, f in src.one_pairs()
    }
    yield sorted(src.vert_pairs()), {
        (b, a): (fun.f2[b], fun.f2[a]) for b, a in src.vert_pairs()
    }
    yield sorted(src.horiz_pairs()), {
        (b, a): (fun.f2[b], fun.f2[a]) for b, a in src.horiz_pairs()
    }
    yield sorted(src.horiz_vert_pairs()), {
        (p, q): ((fun.f2[p[0]], fun.f2[p[1]]), (fun.f2[q[0]], fun.f2[q[1]]))
        for p, q in src.horiz_vert_pairs()
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
    rich = (tc.make_Tn(3), tc.make_v4(), tc.make_h4(), tc.product(tc.make_T(), tc.make_Tn(2)).apex)
    discrete = [locally_discrete_inclusion(cat) for cat in rich]
    return corpus_functors + seeded_functors + between + covers + discrete


def locally_discrete_inclusion(cat):
    """The inclusion into ``cat`` of its 1-cells with identity 2-cells only.

    Bijective below 2-cells and missing every non-identity hom, so the
    least-witness order of the vertical classes is exercised.
    """
    ids = cat.two_identity
    sub = tc.TwoCategory(
        objects=cat.objects,
        one_cells=cat.one_cells,
        one_identity=cat.one_identity,
        one_compose=cat.one_compose,
        two_cells={ids[h]: (h, h) for h in cat.one_cells},
        two_identity=ids,
        vert_compose={(ids[h], ids[h]): ids[h] for h in cat.one_cells},
        horiz_compose={(ids[g], ids[f]): ids[gf] for (g, f), gf in cat.one_compose.items()},
    )
    identity = {t: t for t in sub.two_cells}
    return tc.TwoFunctor(sub, cat, {x: x for x in cat.objects}, identity_on_cells(cat), identity)


def on_reference(reference, fun):
    """``fun`` rebuilt from the reference package's own carrier types."""

    def category(cat):
        return reference.TwoCategory(
            **{field.name: getattr(cat, field.name) for field in dataclasses.fields(cat)}
        )

    return reference.TwoFunctor(category(fun.source), category(fun.target), fun.f0, fun.f1, fun.f2)


class TestAgainstTheReference:
    """The predicates give the pinned reference's verdicts and least witnesses."""

    @pytest.mark.parametrize("name", PINNED)
    def test_verdicts_and_least_witnesses(self, name, differential_functors, reference):
        ours, theirs = getattr(tc, name), getattr(reference, name)
        failures = 0
        for fun in differential_functors:
            twin = on_reference(reference, fun)
            found, expected = [], []
            verdict = ours(fun)
            assert verdict == ours(fun, witness=found)
            assert verdict == theirs(twin) == theirs(twin, witness=expected)
            assert found == expected
            failures += not verdict
        assert failures > 100  # the witness paths are exercised


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
