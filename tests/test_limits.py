import pytest
from hypothesis import given, settings, strategies as st

import twocat as tc
from twocat.core import build_two_category
from twocat.limits import FiniteSquare

from conftest import pick_functor


@pytest.fixture(scope="module")
def collapse_pair(t_family):
    f = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
    g = pick_functor(t_family[3], t_family[1], t1="t1", t2="t1", t3="t1")
    return f, g


class TestPullback:
    def test_along_identities_gives_the_object_back(self):
        idT = tc.identity_two_functor(tc.make_T())
        result = tc.pullback(idT, idT)
        assert tc.is_isomorphic(result.apex, tc.make_T())
        assert tc.validate_two_functor(result.proj1) == []
        assert tc.validate_two_functor(result.proj2) == []

    def test_unit_against_collapse_recovers_the_collapsed_object(self, t_family):
        collapse = pick_functor(t_family[3], t_family[1], t1="t1", t2="t1", t3="t1")
        result = tc.pullback(tc.identity_two_functor(t_family[1]), collapse)
        assert tc.is_isomorphic(result.apex, t_family[3])

    def test_empty_fiber_kills_the_cell_lane(self, t_family):
        inclusion = pick_functor(t_family[0], t_family[1])
        collapse = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
        result = tc.pullback(inclusion, collapse)
        assert tc.is_isomorphic(result.apex, t_family[0])

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
        assert tc.is_isomorphic(tc.pullback(f, g).apex, tc.pullback(g, f).apex)

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
        assert tc.is_isomorphic(result.apex, tc.make_T())

    def test_square_of_the_probe_has_product_carriers(self):
        result = tc.product(tc.make_T(), tc.make_T())
        assert result.apex.carrier_sizes() == (4, 16, 25)
        assert tc.validate_two_category(result.apex).all_pass

    def test_product_of_terminals_is_terminal(self):
        result = tc.product(tc.terminal(), tc.terminal())
        assert tc.is_isomorphic(result.apex, tc.terminal())

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
        pairs = {f"{g}*{f}": (g, f) for g, f in cat.one_pairs()}
        square = FiniteSquare(
            p={w: pair[0] for w, pair in pairs.items()},
            q={w: pair[1] for w, pair in pairs.items()},
            f={u: cat.dom(u) for u in cat.one_cells},
            g={u: cat.cod(u) for u in cat.one_cells},
        )
        assert tc.is_pullback_square(square)

    def test_dropping_one_pair_breaks_the_square(self):
        cat = tc.make_T()
        pairs = {f"{g}*{f}": (g, f) for g, f in cat.one_pairs()}
        dropped = sorted(pairs)[0]
        del pairs[dropped]
        square = FiniteSquare(
            p={w: pair[0] for w, pair in pairs.items()},
            q={w: pair[1] for w, pair in pairs.items()},
            f={u: cat.dom(u) for u in cat.one_cells},
            g={u: cat.cod(u) for u in cat.one_cells},
        )
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
