import dataclasses
import itertools
import random
import sys

import pytest

import twocat as tc
from twocat import core
from twocat.core import build_two_category

from conftest import identity_on_cells, on_reference, pick_functor, reference_category


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

    @pytest.mark.parametrize(
        "one_cells, two_cells, message",
        [
            ({"id:a": ("a", "b")}, {}, "cell 'id:a' is reserved for the identity of 'a'"),
            ({"u": ("a", "b")}, {"vid:u": ("u", "id:a")}, "'vid:u' is reserved for the identity"),
        ],
    )
    def test_a_listed_identity_name_off_its_loop(self, one_cells, two_cells, message):
        with pytest.raises(tc.MalformedData, match=message):
            build_two_category(objects=("a", "b"), one_cells=one_cells, two_cells=two_cells)

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

    def test_non_composable_source_row_is_malformed(self):
        fun = tc.identity_two_functor(tc.make_T())
        rows = {**fun.source.vert_compose, ("t1", "t1"): "t1"}
        broken = dataclasses.replace(
            fun, source=dataclasses.replace(fun.source, vert_compose=rows)
        )
        with pytest.raises(tc.MalformedData, match=r"vcompose has a non-composable row \('t1', 't1'\)"):
            tc.validate_two_functor(broken)


#: The gallery objects whose tables, identity maps and reflection units
#: the kernel pins mutate.
MUTATED = {"T2": lambda: tc.make_Tn(2), "v4": tc.make_v4, "h4na": tc.make_h4_na}

#: The map fields of a 2-category, each with the carrier its values lie in.
CATEGORY_MAPS = {
    "one_identity": "one_cells",
    "one_compose": "one_cells",
    "two_identity": "two_cells",
    "vert_compose": "two_cells",
    "horiz_compose": "two_cells",
}

#: The composition tables of a 2-category, each with the carrier its values
#: lie in and the carrier one level down.
TABLES = {
    "one_compose": ("one_cells", "objects"),
    "vert_compose": ("two_cells", "one_cells"),
    "horiz_compose": ("two_cells", "one_cells"),
}

#: The maps of a 2-functor, each with the target carrier its values lie in.
FUNCTOR_MAPS = {"f0": "objects", "f1": "one_cells", "f2": "two_cells"}


def single_entry_mutations(owner, maps, carriers):
    """Copies of ``owner`` with one entry of one of its ``maps`` changed.

    Each entry is dropped, set to a name that is no cell, and set to each of
    the next two cells after its value in identifier order of its carrier
    (read from ``carriers``).
    """
    for field, carrier in maps.items():
        mapping = getattr(owner, field)
        cells = sorted(getattr(carriers, carrier))
        for key, value in mapping.items():
            at = cells.index(value)
            others = {cells[(at + step) % len(cells)] for step in (1, 2)} - {value}
            for new in (None, "?", *sorted(others)):
                changed = dict(mapping)
                if new is None:
                    del changed[key]
                else:
                    changed[key] = new
                yield dataclasses.replace(owner, **{field: changed})


def boundary_mutations(cat):
    """Copies of ``cat`` with one end of one 1-cell or 2-cell changed.

    The end is set to a name that is no cell, or to the least cell below.
    """
    for field, below in (("one_cells", cat.objects), ("two_cells", cat.one_cells)):
        cells = getattr(cat, field)
        for u, (d, c) in cells.items():
            for ends in ((d, "?"), ("?", c), (min(below), c)):
                yield dataclasses.replace(cat, **{field: {**cells, u: ends}})


def row_malformations(cat):
    """Copies of ``cat`` with one table row malformed.

    Per table: a row on the least pair that is not composable; and for each
    row, the row dropped, its key replaced by something that is not a pair
    (a triple, a 1-tuple, the two names run together), and its value
    replaced by a cell of the level below.
    """
    for field, (carrier, below) in TABLES.items():
        table = getattr(cat, field)
        cells = sorted(getattr(cat, carrier))
        loose = next((g, f) for g in cells for f in cells if (g, f) not in table)
        yield dataclasses.replace(cat, **{field: {**table, loose: cells[0]}})
        lower = min(getattr(cat, below))
        for (g, f), value in table.items():
            rest = {key: v for key, v in table.items() if key != (g, f)}
            yield dataclasses.replace(cat, **{field: rest})
            for key in ((g, f, g), (g,), f"{g}{f}"):
                yield dataclasses.replace(cat, **{field: {**rest, key: value}})
            yield dataclasses.replace(cat, **{field: {**table, (g, f): lower}})


def outcome(check, value, errors):
    """What ``check(value)`` returns, or the name and text of the package
    error (one of ``errors``) that it raises."""
    try:
        return check(value)
    except errors as error:
        return type(error).__name__, str(error)


def law_failures(reference, cat):
    """The failed laws of ``cat``, or its error text, equal to the
    reference's and recorded in the same order."""
    ours = outcome(lambda c: list(tc.validate_two_category(c).failures.items()), cat, tc.TwoCatError)
    theirs = outcome(
        lambda c: list(reference.validate_two_category(c).failures.items()),
        reference_category(reference, cat),
        reference.TwoCatError,
    )
    assert ours == theirs, cat
    return dict(ours) if isinstance(ours, list) else ours


def functor_outcomes(reference, unit):
    """What ``validate_two_functor`` says of each single-entry mutation of
    ``unit``, each equal to the reference's."""
    for broken in single_entry_mutations(unit, FUNCTOR_MAPS, unit.target):
        ours = outcome(tc.validate_two_functor, broken, tc.TwoCatError)
        theirs = outcome(
            reference.validate_two_functor,
            on_reference(reference, broken),
            reference.TwoCatError,
        )
        assert ours == theirs, (broken.f0, broken.f1, broken.f2)
        yield ours


class TestKernelChecksMatchTheReference:
    """Broken tables and maps get the reference's verdicts, texts and order."""

    @pytest.mark.parametrize("name", sorted(MUTATED))
    def test_category_mutations(self, name, reference):
        cat = MUTATED[name]()
        mutations = single_entry_mutations(cat, CATEGORY_MAPS, cat)
        compared = 0
        for broken in itertools.chain(mutations, boundary_mutations(cat)):
            law_failures(reference, broken)
            compared += 1
        assert compared > 4 * len(cat.one_compose)

    def test_one_cell_and_vertical_rows_broken_at_once(self, reference):
        # the boundary law reports the first level that fails
        cat = tc.make_Tn(2)
        boundary_broken = 0
        for first in single_entry_mutations(cat, {"one_compose": "one_cells"}, cat):
            for broken in single_entry_mutations(first, {"vert_compose": "two_cells"}, cat):
                failures = law_failures(reference, broken)
                boundary_broken += isinstance(failures, dict) and "boundary" in failures
        assert boundary_broken > 0

    @pytest.mark.parametrize("name", sorted(MUTATED))
    def test_row_malformations(self, name, reference):
        # the counting check hands every malformed table to the set-based
        # check, which names the row and keeps the order between tables
        cat = MUTATED[name]()
        errors = [law_failures(reference, broken) for broken in row_malformations(cat)]
        assert {kind for kind, _ in errors} == {"MalformedData"}
        for table in ("compose1", "vcompose", "hcompose"):
            assert any(text.startswith(table) for _, text in errors)

    def test_a_key_that_spells_a_composable_pair(self, reference):
        # "ff" unpacks to the pair ("f", "f") it replaces, so only the
        # type of the key tells it from a row
        cat = build_two_category(
            objects=("x",), one_cells={"f": ("x", "x")}, two_cells={},
            one_compose={("f", "f"): "f"},
        )
        rows = {key: v for key, v in cat.one_compose.items() if key != ("f", "f")}
        broken = dataclasses.replace(cat, one_compose={**rows, "ff": "f"})
        assert law_failures(reference, broken) == (
            "MalformedData", "compose1 has a non-composable row ff"
        )

    def test_table_mutations_of_random_instances(self, reference):
        compared = failed = 0
        for seed in range(60):
            cat = tc.random_instance(seed)
            tables = {field: carrier for field, (carrier, _) in TABLES.items()}
            for broken in single_entry_mutations(cat, tables, cat):
                failures = law_failures(reference, broken)
                compared += 1
                failed += isinstance(failures, dict) and bool(failures)
        assert compared > 10_000 and failed > 1_000

    def test_identity_mutations_of_random_instances(self, reference):
        # one identity retargeted, to any cell or to another identity, and
        # in every other input one table row too: the unit laws fail, so a
        # walk may skip only the identities of the levels whose laws hold
        compared = 0
        laws = set()
        for seed in range(60):
            cat = tc.random_instance(seed)
            rng = random.Random(seed)
            for step in range(60):
                field, carrier = rng.choice([("one_identity", "one_cells"), ("two_identity", "two_cells")])
                identity = dict(getattr(cat, field))
                pool = sorted(identity.values()) if step % 3 == 0 else sorted(getattr(cat, carrier))
                identity[rng.choice(sorted(identity))] = rng.choice(pool)
                broken = dataclasses.replace(cat, **{field: identity})
                if step % 2:
                    table_field = rng.choice(sorted(TABLES))
                    table = dict(getattr(cat, table_field))
                    values = sorted(getattr(cat, TABLES[table_field][0]))
                    table[rng.choice(sorted(table))] = rng.choice(values)
                    broken = dataclasses.replace(broken, **{table_field: table})
                failures = law_failures(reference, broken)
                compared += 1
                laws.update(failures if isinstance(failures, dict) else ())
        assert compared == 3_600 and laws == set(core.LAW_NAMES) - {"parallelism"}

    @pytest.mark.parametrize("name", sorted(MUTATED))
    def test_unit_mutations(self, name, reference):
        unit = tc.reflect(MUTATED[name]()).unit
        levels_mixed = 0
        for ours in functor_outcomes(reference, unit):
            kinds = {text.split()[0] for text in ours} if isinstance(ours, list) else set()
            levels_mixed += {"compose1", "vdom"} <= kinds
        # the order of the levels is pinned only where both levels fail
        assert levels_mixed > 0

    @pytest.mark.parametrize("name", sorted(MUTATED))
    def test_violations_come_in_pair_order_not_row_order(self, name, reference):
        unit = tc.reflect(MUTATED[name]()).unit
        rows = {field: dict(reversed(getattr(unit.source, field).items())) for field in TABLES}
        unit = dataclasses.replace(unit, source=dataclasses.replace(unit.source, **rows))
        several = 0
        for ours in functor_outcomes(reference, unit):
            several += isinstance(ours, list) and sum("compose " in v for v in ours) > 1
        assert several > 0


class TestLawsAreReadFromTheRows:
    """On well-formed input the kernel checks derive no composable pairs
    and leave no cached attribute on the category."""

    @pytest.mark.parametrize("name", ["T2", "h4na", "v4 cover", "vh4"])
    def test_no_pair_walk_and_no_cache(self, name, monkeypatch):
        make = {**MUTATED, "v4 cover": lambda: tc.edm_cover(tc.make_v4())[0], "vh4": tc.make_vh4}
        cat = dataclasses.replace(make[name]())
        fields = set(vars(cat))

        def refuse(*args):
            raise AssertionError("derived the composable pairs")

        monkeypatch.setattr(core, "_chains", refuse)
        monkeypatch.setattr(core, "_check_table", refuse)
        core.check_well_formed(cat)
        report = tc.validate_two_category(cat)
        assert set(report.failures) == ({"h-assoc"} if name == "h4na" else set())
        assert set(vars(cat)) == fields


class CountingTable(dict):
    """A composition table that counts its ``get`` calls."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def walk_counts(cat, monkeypatch):
    """The report of ``cat``, the triples each associativity walk compares
    (two reads each) and the quads the interchange walk compares (one
    vertical read each); a walk that does not run compares none."""
    tables = (cat.one_compose, cat.vert_compose, cat.horiz_compose)
    triples, quads = [0, 0, 0], [0]
    assoc_law, interchange_law = core._assoc_law, core._interchange_law

    def assoc(table, after):
        level = next(k for k, t in enumerate(tables) if t is table)
        table = CountingTable(table)
        bad = assoc_law(table, after)
        triples[level] = table.gets // 2
        return bad

    def interchange(two, vc, hc):
        vc = CountingTable(vc)
        bad = interchange_law(two, vc, hc)
        quads[0] = vc.gets
        return bad

    monkeypatch.setattr(core, "_assoc_law", assoc)
    monkeypatch.setattr(core, "_interchange_law", interchange)
    report = tc.validate_two_category(cat)
    return report, tuple(triples), quads[0]


def row_broken(cat, field, unit):
    """``cat`` with one row of table ``field`` sent to the least other cell:
    the right unit row of the least non-identity cell if ``unit``, else the
    least row through no identity."""
    cells = cat.one_cells if field == "one_compose" else cat.two_cells
    identities = {*cat.one_identity.values(), *cat.two_identity.values()}
    table = dict(getattr(cat, field))
    if unit:
        f = min(cells.keys() - identities)
        row = min(key for key in table if key[0] == f and key[1] in identities)
    else:
        row = min(key for key in table if not identities & set(key))
    table[row] = min(cells.keys() - {table[row]})
    return dataclasses.replace(cat, **{field: table})


class TestTheUnitLemmaSkipsIdentities:
    """Where a level's unit law holds, its associativity walk compares no
    chain through an identity.  The interchange walk compares every quad.
    Counted, not timed, on the v4 descent cover (202 / 1,054 / 2,300
    cells) beside T2, which makes the union no 2-preorder, so the thin
    lemma leaves every walk to run; T2 adds no chain off the identities."""

    #: Triples per associativity law: those of every walk, and those that
    #: run through no identity.
    EVERY = 5_326, 7_587, 14_286
    OFF_IDENTITIES = 256, 229, 864
    #: Quads of the interchange walk.
    QUADS = 13_728

    @pytest.fixture(scope="class")
    def cover(self):
        return tc.coproduct([tc.edm_cover(tc.make_v4())[0], tc.make_Tn(2)])[0]

    def test_only_chains_off_the_identities(self, cover, monkeypatch):
        report, triples, quads = walk_counts(cover, monkeypatch)
        assert report.all_pass
        assert (triples, quads) == (self.OFF_IDENTITIES, self.QUADS)

    @pytest.mark.parametrize("broken, walked_whole", [
        (("one_compose",), {"1-assoc", "h-assoc"}),
        (("vert_compose",), {"v-assoc", "h-assoc"}),
        (("horiz_compose",), {"h-assoc"}),
        (("one_compose", "vert_compose", "horiz_compose"), {"1-assoc", "v-assoc", "h-assoc"}),
        ((), set()),
    ], ids=["1-unit", "v-unit", "h-unit", "all units", "a row off the identities"])
    def test_a_failing_law_walks_what_it_guards(
        self, cover, monkeypatch, reference, broken, walked_whole
    ):
        # every broken row breaks the boundary law too; the last case keeps
        # the unit laws and breaks a horizontal row through no identity
        for field in broken:
            cover = row_broken(cover, field, unit=True)
        if not broken:
            cover = row_broken(cover, "horiz_compose", unit=False)
        report, triples, compared = walk_counts(cover, monkeypatch)
        laws = ("1-assoc", "v-assoc", "h-assoc")
        assert triples == tuple(
            every if law in walked_whole else part
            for law, every, part in zip(laws, self.EVERY, self.OFF_IDENTITIES)
        )
        assert "boundary" in report.failures and compared == self.QUADS
        monkeypatch.undo()
        law_failures(reference, cover)

    def test_horizontal_tables_over_one_loop(self, reference):
        # One object, one 1-cell and the 2-cells r, s and its identity, where
        # g after f is f on r and s.  Every law below the horizontal ones
        # holds, so the horizontal unit law alone decides whether the
        # walks may skip the horizontal identities.  A seeded sample of the
        # 3^9 horizontal tables.
        cells = ["r", "s", "vid:i"]
        vert = {(g, f): g if f == "vid:i" else f for g in cells for f in cells}
        base = build_two_category(
            objects=["x"], one_cells={"i": ("x", "x")}, one_identity={"x": "i"},
            two_cells={"r": ("i", "i"), "s": ("i", "i")}, vert_compose=vert,
        )
        laws = set()
        for index in random.Random(0).sample(range(3 ** len(vert)), 3_000):
            values = [cells[index // 3 ** k % 3] for k in range(len(vert))]
            broken = dataclasses.replace(base, horiz_compose=dict(zip(sorted(vert), values)))
            laws.update(law_failures(reference, broken))
        assert laws == {"h-unit", "h-assoc", "identity-exchange", "interchange"}

    def test_a_horizontal_identity_row_is_walked_unless_the_cells_are_parallel(self, reference):
        # b runs from u: x -> y to w: z -> y, so its composite with the
        # identity of x has no vertical codomain; every unit law holds
        cat = build_two_category(
            objects="xyz", one_cells={"u": ("x", "y"), "w": ("z", "y")}, two_cells={"b": ("u", "w")},
        )
        assert law_failures(reference, cat) == {
            "parallelism": ("b",), "boundary": ("b", "vid:id:x"),
        }


class TestTheThinLemma:
    """In a 2-preorder parallel 2-cells are equal, so once the boundary law
    holds the walks of v-assoc and interchange do not run, nor h-assoc
    where 1-assoc holds and identity-exchange where v-unit holds.  Every
    report equals the reference's, which walks every law."""

    @pytest.fixture(scope="class")
    def cover(self):
        return tc.edm_cover(tc.make_v4())[0]

    def test_the_v4_cover_walks_only_one_cell_triples(self, cover, monkeypatch, reference):
        assert tc.is_two_preorder(cover)
        report, triples, quads = walk_counts(cover, monkeypatch)
        assert report.all_pass
        assert (triples, quads) == ((256, 0, 0), 0)
        monkeypatch.undo()
        assert law_failures(reference, cover) == {}

    @pytest.mark.parametrize("field, unit, laws", [
        ("one_compose", True, {"boundary", "1-unit", "identity-exchange"}),
        ("one_compose", False, {"boundary", "identity-exchange"}),
        ("vert_compose", True, {"boundary", "v-unit"}),
        ("vert_compose", False, {"boundary"}),
        ("horiz_compose", True, {"boundary", "h-unit"}),
        ("horiz_compose", False, {"boundary", "h-assoc", "interchange"}),
    ])
    def test_a_broken_boundary_walks_every_law(self, cover, monkeypatch, reference, field, unit, laws):
        broken = row_broken(cover, field, unit)
        assert tc.is_two_preorder(broken)
        report, triples, quads = walk_counts(broken, monkeypatch)
        # the boundary law fails, so interchange walks every quad
        assert set(report.failures) == laws and 0 not in triples and quads == 13_714
        monkeypatch.undo()
        law_failures(reference, broken)

    def test_a_failing_one_assoc_walks_h_assoc(self, monkeypatch, reference):
        # one object and the loops p, q under a unital magma that is not
        # associative, (pp)q = p but p(pq) = q; its only 2-cells are the
        # identities, composed horizontally as their 1-cells are
        magma = {("p", "p"): "q", ("p", "q"): "q", ("q", "p"): "p", ("q", "q"): "p"}
        loops = build_two_category(
            objects=["x"], one_cells={"p": ("x", "x"), "q": ("x", "x")}, two_cells={},
            one_compose=magma,
        )
        cat = dataclasses.replace(loops, horiz_compose={
            (f"vid:{g}", f"vid:{f}"): f"vid:{gf}" for (g, f), gf in loops.one_compose.items()
        })
        assert tc.is_two_preorder(cat)
        report, triples, quads = walk_counts(cat, monkeypatch)
        assert list(report.failures) == ["1-assoc", "h-assoc"]
        assert (triples, quads) == ((8, 0, 8), 0)
        monkeypatch.undo()
        law_failures(reference, cat)

    def test_a_failing_v_unit_walks_identity_exchange(self, monkeypatch, reference):
        # the locally discrete a -f-> b -g-> c with the identity of f
        # moved onto that of g: no row changes, so the boundary law holds
        cat = build_two_category(
            objects="abc", one_cells={"f": ("a", "b"), "g": ("b", "c"), "gf": ("a", "c")},
            two_cells={}, one_compose={("g", "f"): "gf"},
            horiz_compose={("vid:g", "vid:f"): "vid:gf"},
        )
        cat = dataclasses.replace(cat, two_identity={**cat.two_identity, "f": "vid:g"})
        assert tc.is_two_preorder(cat)
        report, triples, quads = walk_counts(cat, monkeypatch)
        assert list(report.failures) == ["v-unit", "identity-exchange"]
        assert triples[1:] == (0, 0) and quads == 0
        monkeypatch.undo()
        law_failures(reference, cat)


class TestChainWalkCachesNothing:
    """``is_edm`` and ``edm_summands`` walk composable triples inside the
    call and leave no cached attribute on the category."""

    MAKE = {
        "T3": lambda: tc.make_Tn(3),
        "v4": tc.make_v4,
        "v4 cover": lambda: tc.edm_cover(tc.make_v4())[0],
    }

    @pytest.mark.parametrize("name", ["T3", "v4", "v4 cover"])
    def test_is_edm(self, name):
        cat = dataclasses.replace(self.MAKE[name]())
        fields = set(vars(cat))
        assert tc.is_edm(tc.identity_two_functor(cat))
        assert set(vars(cat)) == fields

    @pytest.mark.parametrize("name", ["T3", "v4"])
    def test_edm_summands(self, name):
        cat = dataclasses.replace(self.MAKE[name]())
        fields = set(vars(cat))
        assert tc.edm_summands(cat)
        assert set(vars(cat)) == fields


class TestVerticalHom:
    def test_single_cell_between_the_parallel_arrows(self):
        assert frozenset(tc.make_T().hom("h", "h'")) == frozenset({"t1"})

    def test_reverse_direction_is_empty(self):
        assert frozenset(tc.make_T().hom("h'", "h")) == frozenset()

    def test_endo_hom_is_the_identity_cell(self):
        assert frozenset(tc.make_T().hom("h", "h")) == frozenset({"vid:h"})

    def test_unknown_cell_raises(self):
        with pytest.raises(tc.UnknownCell):
            frozenset(tc.make_T().hom("h", "nope"))

    def test_product_hom_sizes_multiply(self):
        prod = tc.product(tc.make_Tn(2), tc.make_Tn(3)).apex
        assert len(frozenset(prod.hom("(h|h)", "(h'|h')"))) == 6


class TestCategoriesArePlainData:
    """A 2-category keeps no index: each call groups the carriers it reads,
    so it answers from the current carriers and stores nothing on them."""

    def test_a_changed_carrier_is_read_by_hom_and_the_enumeration(self):
        cat, t2 = tc.make_T(), tc.make_Tn(2)
        assert cat.hom("h", "h'") == ("t1",)
        before = list(tc.enumerate_two_functors(tc.make_T(), cat))
        for field in core._DICT_FIELDS:
            getattr(cat, field).update(getattr(t2, field))
        assert cat == t2 and cat.hom("h", "h'") == ("t1", "t2")
        after = [fun.f2 for fun in tc.enumerate_two_functors(tc.make_T(), cat)]
        assert after == [fun.f2 for fun in tc.enumerate_two_functors(tc.make_T(), t2)]
        assert len(after) > len(before)

    def test_no_operation_stores_an_attribute(self):
        names = [name for name in tc.gallery.GALLERY_NAMES if name != "vh4"]
        cats = [dataclasses.replace(tc.gallery.by_name(name)) for name in names]
        cats += [tc.make_Tn(2), tc.make_Tn(3)]
        fields = [dict(vars(cat)) for cat in cats]
        made = []  # the 2-categories the operations return
        for cat in cats:
            h = min(cat.one_cells)
            cat.hom(h, h)
            result = tc.reflect(cat)
            made.append(result.reflected)
            for fun in (tc.identity_two_functor(cat), result.unit):
                tc.classify(fun)
                tc.covering_oracle(fun)
                tc.trivial_covering_oracle(fun)
                for factor in (tc.reflective_factor, tc.monotone_light_factor):
                    made.append(factor(fun).middle)
            made += [fun.target for fun in tc.enumerate_two_functors(tc.make_T(), cat)]
            assert tc.check_semi_left_exact(cat) and tc.check_stable_units(cat, cat)
        assert [vars(cat) for cat in cats] == fields
        for cat in made:
            assert vars(cat).keys() == {field.name for field in dataclasses.fields(cat)}


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
        assert tc.find_isomorphism(union, tc.make_v4()) is not None


class TestCopair:
    """Each leg must start at its part and all legs must end in one target."""

    def test_legs_into_one_target_give_the_cotuple(self):
        T, T2 = tc.make_T(), tc.make_Tn(2)
        union, injections = tc.coproduct([T, T2])
        legs = [pick_functor(T, T2, t1="t2"), tc.identity_two_functor(T2)]
        cotuple = tc.copair(union, injections, legs)
        for inj, leg in zip(injections, legs):
            assert tc.compose_two_functors(cotuple, inj) == leg

    @pytest.mark.parametrize(
        "case, message",
        [
            ("one leg short", "one leg per coproduct part is required"),
            ("legs swapped", "leg does not start at its coproduct part"),
            ("two targets", "legs end in different targets"),
            ("no parts", "the empty coproduct has no canonical leg target"),
        ],
    )
    def test_a_mismatched_boundary(self, case, message):
        T, T2 = tc.make_T(), tc.make_Tn(2)
        union, injections = tc.coproduct([T, T2])
        id_t, id_t2 = tc.identity_two_functor(T), tc.identity_two_functor(T2)
        args = {
            "one leg short": (union, injections, [id_t]),
            "legs swapped": (union, injections, [id_t2, id_t]),
            "two targets": (union, injections, [id_t, id_t2]),
            "no parts": (*tc.coproduct([]), []),
        }[case]
        with pytest.raises(tc.MismatchedBoundary, match=message):
            tc.copair(*args)


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
                forth = tc.find_isomorphism(gallery_objects[a], gallery_objects[b])
                back = tc.find_isomorphism(gallery_objects[b], gallery_objects[a])
                assert (forth is None) == (back is None)

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
