import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import twocat as tc
from twocat import core, gallery
from twocat.gallery import TwoGraphPresentation, by_name
from twocat.serialize import dumps, parse_document

from conftest import (
    brute_horizontal_triples,
    brute_vertical_triples,
    chain_presentation,
    law_breaking_document,
    reference_category,
)


class TestProbeFamily:
    def test_probe_carrier_sizes(self):
        assert tc.make_T().carrier_sizes() == (2, 4, 5)

    def test_zero_cells_make_a_preorder(self):
        t0 = tc.make_Tn(0)
        assert tc.is_two_preorder(t0)
        assert t0.carrier_sizes() == (2, 4, 4)

    def test_three_cells_reflect_onto_the_probe(self):
        result = tc.reflect(tc.make_Tn(3))
        assert tc.find_isomorphism(result.reflected, tc.make_T()) is not None
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
        # a cycle longer than the interpreter's recursion limit
        n = 1500
        long_loop = TwoGraphPresentation(
            objects=tuple(f"o{i}" for i in range(n)),
            generators={f"g{i}": (f"o{i}", f"o{(i + 1) % n}") for i in range(n)},
            relations=(),
        )
        for presentation, last in ((loop, "y"), (long_loop, f"o{n - 1}")):
            with pytest.raises(tc.CyclicPresentation, match=f"through object '{last}'"):
                tc.free_two_preorder(presentation)

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


class TestPresentationRejections:
    """Each malformed relation, and generator names whose paths collide,
    is rejected with its own message."""

    GENERATORS = {"x": ("a", "b"), "y": ("b", "c"), "z": ("a", "b")}

    @pytest.mark.parametrize(
        "relation, message",
        [
            (((), ("x",)), "relation sides must be nonempty generator paths"),
            ((("x",), ()), "relation sides must be nonempty generator paths"),
            ((("x",), ("w",)), r"relation \('x',\) <= \('w',\) uses unknown paths"),
            ((("y", "x"), ("y", "z")), "uses unknown paths"),
            ((("x",), ("y",)), r"relation \('x',\) <= \('y',\) is not parallel"),
            ((("x",), ("x", "y")), "is not parallel"),
        ],
    )
    def test_a_malformed_relation(self, relation, message):
        presentation = TwoGraphPresentation(("a", "b", "c"), self.GENERATORS, (relation,))
        with pytest.raises(tc.MalformedData, match=message):
            tc.free_two_preorder(presentation)

    def test_relations_are_checked_in_order(self):
        relations = ((("x",), ("z",)), (("x",), ("y",)), ((), ("x",)))
        presentation = TwoGraphPresentation(("a", "b", "c"), self.GENERATORS, relations)
        with pytest.raises(tc.MalformedData, match="is not parallel"):
            tc.free_two_preorder(presentation)

    def test_a_generator_named_like_a_path(self):
        generators = {**self.GENERATORS, "x.y": ("a", "c")}
        presentation = TwoGraphPresentation(("a", "b", "c"), generators, ())
        with pytest.raises(tc.MalformedData, match="colliding path identifiers"):
            tc.free_two_preorder(presentation)

    def test_a_bad_relation_is_reported_before_a_collision(self):
        generators = {**self.GENERATORS, "x.y": ("a", "c")}
        presentation = TwoGraphPresentation(("a", "b", "c"), generators, ((("x",), ("y",)),))
        with pytest.raises(tc.MalformedData, match="is not parallel"):
            tc.free_two_preorder(presentation)


class TestCollapsesMatchTheReference:
    """Both collapses of h4 equal the pinned reference's, field by field:
    the same cells and the same table rows."""

    @pytest.mark.parametrize("name", ["make_h4_na", "make_h4_assoc"])
    def test_fields(self, name, reference):
        ours, theirs = getattr(tc, name)(), getattr(reference, name)()
        for field in dataclasses.fields(ours):
            assert getattr(ours, field.name) == getattr(theirs, field.name), field.name


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
        """The chain walk lists every composable pair and triple at each
        level, ``(h, g, f)`` in identifier order of ``f``, then ``g``, then
        ``h``: the edm-cover tags and the assembled tables follow it."""
        for name in ("T0", "T2", "v4", "h4", "h4na"):
            cat = tc.make_h4_na() if name == "h4na" else gallery_objects[name]
            for ends in (cat.one_cells, cat.two_cells, cat.horiz_ends()):
                for length in (2, 3):
                    brute = sorted(
                        chain for chain in itertools.product(ends, repeat=length)
                        if all(ends[f][1] == ends[g][0] for f, g in zip(chain, chain[1:]))
                    )
                    walked = list(core._chains(ends, length))
                    assert walked == [chain[::-1] for chain in brute], (name, length)
            for ends, triples in (
                (cat.two_cells, brute_vertical_triples(cat)),
                (cat.horiz_ends(), brute_horizontal_triples(cat)),
            ):
                walked = [(c1, c2, c3) for c3, c2, c1 in core._chains(ends, 3)]
                assert walked == sorted(triples), name

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

    def test_each_call_shares_one_fresh_part_per_kind(self):
        base = tc.make_T()
        calls = tc.edm_summands(base), tc.edm_summands(base)
        for kind in ("v", "h"):
            first, second = ({id(part) for k, _, part, _ in call if k == kind} for call in calls)
            assert len(first) == len(second) == 1
            assert first != second

    def test_a_mutated_part_changes_no_later_cover(self):
        base = tc.make_T()

        def written(summands):
            return [(kind, triple, dumps(leg)) for kind, triple, _, leg in summands]

        summands, cover = written(tc.edm_summands(base)), dumps(list(tc.edm_cover(base)))
        for _, _, part, _ in tc.edm_summands(base):
            for name in core._DICT_FIELDS:
                getattr(part, name).clear()
        assert written(tc.edm_summands(base)) == summands
        assert dumps(list(tc.edm_cover(base))) == cover

    def test_pullbacks_along_the_cover_validate(self, t_family):
        base = t_family[1]
        _, p = tc.edm_cover(base)
        for probe in list(tc.enumerate_two_functors(t_family[2], base))[:4]:
            apex = tc.pullback(probe, p).apex
            assert tc.validate_two_category(apex).all_pass


#: Bases whose descent covers are pinned against the reference.
COVER_BASES = {
    "T": tc.make_T,
    "T3": lambda: tc.make_Tn(3),
    "v4": tc.make_v4,
    "h4": tc.make_h4,
    "h4_assoc": tc.make_h4_assoc,
}


class TestPathWalkMatchesTheReference:
    """The path walk lists cells in the pinned reference's order; the
    tables hold the same rows."""

    PRESENTATIONS = {
        "v4": tc.gallery.V4_PRESENTATION,
        "h4": tc.gallery.H4_PRESENTATION,
        "vh4": tc.gallery.VH4_PRESENTATION,
        **{f"chain{n}": chain_presentation(n, None) for n in range(2, 31)},
        **{f"chain{n}-doubled": chain_presentation(n, (n - 1) // 2) for n in (2, 7, 16, 30)},
    }

    @pytest.mark.parametrize("name", sorted(PRESENTATIONS))
    def test_cells_and_tables(self, name, reference):
        presentation = self.PRESENTATIONS[name]
        ours = tc.free_two_preorder(presentation)
        theirs = reference.free_two_preorder(
            reference.TwoGraphPresentation(*dataclasses.astuple(presentation))
        )
        assert list(ours.one_cells.items()) == list(theirs.one_cells.items())
        assert list(ours.two_cells.items()) == list(theirs.two_cells.items())
        for table in ("one_compose", "vert_compose", "horiz_compose"):
            assert getattr(ours, table) == getattr(theirs, table)

    def test_a_cycle_is_reported_before_an_unknown_endpoint(self):
        presentation = TwoGraphPresentation(
            objects=("x", "y"),
            generators={"f": ("x", "y"), "g": ("y", "x"), "u": ("x", "nowhere")},
            relations=(),
        )
        with pytest.raises(tc.CyclicPresentation, match="through object 'y'"):
            tc.free_two_preorder(presentation)
        acyclic = dataclasses.replace(presentation, generators={"f": ("x", "y"), "u": ("x", "?")})
        with pytest.raises(tc.MalformedData, match="'u' has unknown endpoints"):
            tc.free_two_preorder(acyclic)

    def test_the_cycle_named_is_the_one_the_path_walk_meets_first(self):
        """On small random presentations, some with generators leaving the
        objects, the linear cycle check names the object the full path walk
        names, and an acyclic presentation lists the same paths."""
        rng = random.Random(0)
        outcomes = set()
        for _ in range(2000):
            nodes = "abcde"[: rng.randint(1, 5)]
            objects = tuple(rng.sample(nodes, rng.randint(1, len(nodes))))
            generators = {
                f"g{k}": (rng.choice(nodes), rng.choice(nodes)) for k in range(rng.randint(0, 6))
            }
            presentation = TwoGraphPresentation(objects, generators, ())
            try:
                ours = tc.gallery._enumerate_paths(presentation)
            except tc.CyclicPresentation as exc:
                ours = str(exc)
            assert ours == walked_paths(presentation), presentation
            outcomes.add(type(ours))
        assert outcomes == {str, dict}

    def test_a_cycle_after_a_million_paths(self):
        """The cycle comes after the 2^21 - 1 paths through twenty diamonds
        of parallel generators, and is reported before any is listed."""
        generators = {
            f"a{i:02}{side}": (f"x{i:02}", f"x{i + 1:02}") for i in range(20) for side in "lr"
        }
        generators.update(b=("x00", "y"), c=("y", "z"), d=("z", "y"))
        presentation = TwoGraphPresentation(
            objects=tuple(sorted({end for ends in generators.values() for end in ends})),
            generators=generators,
            relations=(),
        )
        with pytest.raises(tc.CyclicPresentation, match="through object 'z'"):
            tc.free_two_preorder(presentation)


def walked_paths(presentation):
    """The path walk with the cycle test inline, as the definition of the
    object a cycle is reported through: every path from each object, depth
    first along generators in identifier order, keyed ``(start, gens)`` and
    mapped to its end; or the message of the cycle it meets first, through
    the object a generator leaves to come back onto its path.  Exponential
    in the presentation, so for small ones only."""
    gens = presentation.generators
    ends = {}
    for start in sorted(presentation.objects):
        stack = [((), start, frozenset((start,)))]
        while stack:
            path, at, on_path = stack.pop()
            ends[start, path] = at
            for gen in sorted(gens, reverse=True):
                if gens[gen][0] == at:
                    if gens[gen][1] in on_path:
                        return f"directed cycle through object {at!r}"
                    stack.append((path + (gen,), gens[gen][1], on_path | {gens[gen][1]}))
    return ends


class TestCoversMatchTheReference:
    """Each leg is the pinned reference's projection onto its triple."""

    @pytest.mark.parametrize("name", sorted(COVER_BASES))
    def test_summands(self, name, reference):
        base = COVER_BASES[name]()
        ours = tc.edm_summands(base)
        theirs = reference.edm_summands(reference_category(reference, base))
        assert [(kind, triple) for kind, triple, _, _ in ours] == [
            (kind, triple) for kind, triple, _, _ in theirs
        ]
        for (_, _, part, leg), (_, _, twin_part, twin_leg) in zip(ours, theirs):
            assert reference_category(reference, part) == twin_part
            assert (leg.f0, leg.f1, leg.f2) == (twin_leg.f0, twin_leg.f1, twin_leg.f2)

    @pytest.mark.parametrize("name", sorted(COVER_BASES))
    def test_cover_and_projection_documents(self, name, reference, reference_serialize):
        from twocat.serialize import category_to_document, functor_to_document

        base = COVER_BASES[name]()
        cover, p = tc.edm_cover(base)
        twin_cover, twin_p = reference.edm_cover(reference_category(reference, base))
        assert category_to_document(cover) == reference_serialize.category_to_document(twin_cover)
        assert functor_to_document(p) == reference_serialize.functor_to_document(twin_p)


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

    def test_an_unchanged_block_is_a_fresh_object_each_call(self):
        # seed 2 draws the v4 block and no closure steps
        first, second = tc.random_instance(2), tc.random_instance(2)
        assert first == second == tc.make_v4()
        assert first is not second
        first.one_cells["extra"] = ("a", "a")
        assert tc.random_instance(2) == second

    def test_a_mutated_instance_changes_no_later_one(self):
        # seed 3 reflects the T0 block and seed 111 the v4 block: a
        # 2-preorder reflects to a value that shares its carriers
        for seed in (3, 111):
            first = tc.random_instance(seed)
            written = dumps(first)
            for name in core._DICT_FIELDS:
                getattr(first, name).clear()
            assert dumps(tc.random_instance(seed)) == written

    @pytest.mark.parametrize("budget", [(6, 24, 48), (4, 16, 32)])
    def test_seeds_match_the_reference(self, budget, reference, reference_serialize):
        to_document = reference_serialize.category_to_document
        for seed in range(40):
            ours = reference_category(reference, tc.random_instance(seed, *budget))
            assert to_document(ours) == to_document(reference.random_instance(seed, *budget))

    def test_minimal_budget_forces_the_terminal_object(self):
        for seed in (0, 1, 9):
            cat = tc.random_instance(seed, 1, 1, 1)
            assert tc.find_isomorphism(cat, tc.terminal()) is not None

    def test_impossible_budget_raises(self):
        with pytest.raises(tc.BudgetExceeded):
            tc.random_instance(0, 0, 0, 0)


class TestFreeConstructionsAreBuiltOnce:
    def test_the_free_v4_and_h4_are_each_built_once_per_process(self, monkeypatch):
        built, build = [], gallery._free_two_preorder_with_meta

        def counted(presentation):
            built.append(presentation)
            return build(presentation)

        monkeypatch.setattr(gallery, "_free_two_preorder_with_meta", counted)
        gallery._free_pair.cache_clear()
        gallery._building_blocks.cache_clear()
        for _ in range(2):
            by_name("h4")
            tc.random_instance(2)
            tc.make_v4()
            tc.edm_summands(tc.make_T())
            tc.random_instance(111)
            tc.make_h4()
            by_name("v4")
        assert built.count(gallery.V4_PRESENTATION) == 1
        assert built.count(gallery.H4_PRESENTATION) == 1

    def test_each_call_hands_out_a_copy_of_its_own(self):
        for make in (tc.make_v4, tc.make_h4):
            first, second = make(), make()
            assert first == second
            for name in core._DICT_FIELDS:
                assert getattr(first, name) is not getattr(second, name), name


class TestNames:
    def test_gallery_names_resolve(self):
        for name in ("T", "T3", "v4", "h4", "vh4", "h4na", "terminal"):
            assert by_name(name) is not None

    def test_unknown_name_is_malformed(self):
        with pytest.raises(tc.MalformedData):
            by_name("mystery")

    def test_the_largest_count_is_the_one_the_budget_holds(self, monkeypatch):
        assert len(tc.make_Tn(3).two_cells) == 3 + 4
        most = gallery.EDM_COVER_MAX_TWO_CELLS - 4
        built = []
        monkeypatch.setattr(gallery, "make_Tn", built.append)
        by_name(f"T{most}")
        by_name(f"T000{most}")
        assert built == [most, most]
        for name in (f"T{most + 1}", f"T0{most + 1}"):
            with pytest.raises(tc.BudgetExceeded):
                by_name(name)
        assert built == [most, most]
