"""Finite 2-categories and 2-functors: carriers, law validation, search.

A 2-category is stored as explicit finite carriers (objects, 1-cells,
2-cells) together with total composition tables.  Composable chains are
never stored: the law checks read the tables' rows, and ``_chains`` walks
the composable pairs or triples of a map from cells to their ends inside
each call that needs them.  Values are treated as immutable: no operation
mutates its inputs.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter

from .errors import (
    LawViolation,
    MalformedData,
    MismatchedBoundary,
    SearchCapExceeded,
    UnknownCell,
)

#: Law names in report order.
LAW_NAMES = (
    "1-assoc",
    "1-unit",
    "v-assoc",
    "v-unit",
    "h-assoc",
    "h-unit",
    "boundary",
    "identity-exchange",
    "interchange",
    "parallelism",
)


class _Carriers:
    """Boundary accessors and hom sets of explicit finite carriers.

    ``one_cells`` maps a 1-cell id to its ``(dom, cod)`` objects;
    ``two_cells`` maps a 2-cell id to its ``(vdom, vcod)`` 1-cells; both,
    and :meth:`horiz_ends`, are ends maps that :func:`_chains` walks.
    Pairs ``(g, f)`` mean "g after f".
    """

    def __post_init__(self):
        object.__setattr__(self, "objects", frozenset(self.objects))

    # -- boundary accessors -------------------------------------------------
    def dom(self, u):
        return self.one_cells[u][0]

    def cod(self, u):
        return self.one_cells[u][1]

    def vdom(self, t):
        return self.two_cells[t][0]

    def vcod(self, t):
        return self.two_cells[t][1]

    def horiz_ends(self):
        """Each 2-cell's ``(hdom, hcod)``, the ends of its vdom (``(None, None)`` if none)."""
        one, none = self.one_cells, (None, None)
        return {t: one.get(h, none) for t, (h, _) in self.two_cells.items()}

    def hom(self, h, k):
        """The 2-cells from ``h`` to ``k``, in identifier order, read from
        the current carriers.

        Raises :class:`UnknownCell` unless both are 1-cells.
        """
        for u in (h, k):
            if u not in self.one_cells:
                raise UnknownCell(f"unknown 1-cell {u!r}")
        return tuple(sorted(t for t, ends in self.two_cells.items() if ends == (h, k)))

    def carrier_sizes(self):
        return len(self.objects), len(self.one_cells), len(self.two_cells)


def _chains(ends, length=2):
    """Composable pairs ``(g, f)``, or triples ``(h, g, f)`` if ``length`` is 3.

    ``ends`` maps each cell to its ``(start, end)``; ``g`` follows ``f``
    when ``g`` starts where ``f`` ends, and ``f`` is applied first.  Chains
    come in identifier order of ``f``, then ``g``, then ``h``; the cells are
    grouped by start for the call and the walk is lazy.
    """
    by_start = _group(ends, lambda cell: ends[cell][0])
    if length == 2:
        return ((g, f) for f in sorted(ends) for g in by_start.get(ends[f][1], ()))
    return (
        (h, g, f)
        for f in sorted(ends)
        for g in by_start.get(ends[f][1], ())
        for h in by_start.get(ends[g][1], ())
    )


def _group(cells, key):
    """``cells`` grouped by ``key``, each group in identifier order."""
    index = {}
    for cell in sorted(cells):
        index.setdefault(key(cell), []).append(cell)
    return index


def _by_ends(cells):
    """The cells of an ends map grouped by their ``(start, end)``, each
    group in identifier order: objects to 1-cells, or 1-cells to 2-cells
    (the vertical homs).  Built per call; nothing is kept."""
    return _group(cells, cells.__getitem__)


@dataclass(frozen=True)
class TwoReflexiveGraph(_Carriers):
    """Carriers with boundary and identity maps only, no composition."""

    objects: frozenset
    one_cells: dict
    one_identity: dict
    two_cells: dict
    two_identity: dict


@dataclass(frozen=True)
class TwoCategory(_Carriers):
    """Finite 2-category given by carriers and total composition tables.

    The carriers are those of :class:`TwoReflexiveGraph`.  The composition
    tables are keyed ``(g, f)`` meaning "g after f": 1-cell pairs with
    ``dom(g) == cod(f)``, vertical pairs with ``vdom(g) == vcod(f)``,
    horizontal pairs with ``hdom(g) == hcod(f)``.

    Instances are treated as immutable; operations always build new values.
    Nothing here enforces the algebraic laws -- see
    :func:`validate_two_category`.  A value of this type whose laws are not
    known to hold is referred to as a relaxed structure.
    """

    objects: frozenset
    one_cells: dict
    one_identity: dict
    one_compose: dict
    two_cells: dict
    two_identity: dict
    vert_compose: dict
    horiz_compose: dict


@dataclass(frozen=True)
class TwoFunctor:
    """Triple of carrier maps between 2-categories.

    Validity (commutation with all structure maps) is checked by
    :func:`validate_two_functor`, never assumed by the container.  Like
    its ends, a functor is treated as immutable: the fiber products of
    :mod:`twocat.limits` build its image indexes, of cells and of table
    rows, each on first use and keep them for the functor's lifetime.
    """

    source: TwoCategory
    target: TwoCategory
    f0: dict
    f1: dict
    f2: dict

    @cached_property
    def _by_image(self):
        """Per level, the source cells grouped by image."""
        s = self.source
        carriers = zip((s.objects, s.one_cells, s.two_cells), (self.f0, self.f1, self.f2))
        return [_group(xs, m.__getitem__) for xs, m in carriers]

    @cached_property
    def _rows_by_image(self):
        """Per table of a 2-category source, its rows ``(g, f, v)`` grouped
        by the images of ``(g, f)``, in table order."""
        rows = [{} for _ in _TABLES]
        for index, name, m in zip(rows, _TABLES, (self.f1, self.f2, self.f2)):
            for (g, f), v in getattr(self.source, name).items():
                index.setdefault((m[g], m[f]), []).append((g, f, v))
        return rows


@dataclass(frozen=True)
class AxiomReport:
    """Per-law verdicts with one counterexample per failed law.

    ``failures`` maps a law name from :data:`LAW_NAMES` to the
    lexicographically least offending cell tuple, written outermost first
    for associativity laws (the last entry is applied first).
    """

    failures: dict

    @property
    def all_pass(self):
        return not self.failures

    def passed(self, law):
        return law not in self.failures

    def counterexample(self, law):
        return self.failures.get(law)

    def lines(self):
        out = []
        for law in LAW_NAMES:
            if law in self.failures:
                cells = ", ".join(self.failures[law])
                out.append(f"{law}: fail ({cells})")
            else:
                out.append(f"{law}: pass")
        return out


@dataclass(frozen=True)
class SearchCaps:
    """Carrier-size ceiling for exhaustive isomorphism search.

    ``random_instance`` reads its size budget through :meth:`admits` too.
    """

    max_objects: int = 10
    max_one_cells: int = 32
    max_two_cells: int = 64

    def admits(self, cat):
        n0, n1, n2 = cat.carrier_sizes()
        return (
            n0 <= self.max_objects
            and n1 <= self.max_one_cells
            and n2 <= self.max_two_cells
        )


DEFAULT_CAPS = SearchCaps()


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def build_two_category(
    objects,
    one_cells,
    two_cells,
    one_identity=None,
    one_compose=None,
    two_identity=None,
    vert_compose=None,
    horiz_compose=None,
):
    """Assemble a :class:`TwoCategory`, synthesizing what identities force.

    Omitted identity cells are created under the reserved names
    ``id:<object>`` and ``vid:<1-cell>`` (a listed cell already carrying
    such a name is adopted as the identity).  The rows the unit laws force
    are filled in where their pair composes, by the rule of
    :func:`_unit_maps` that the writers read to leave them out; explicit
    rows always win.  Totality of anything not forced by units is the
    caller's responsibility and is checked by :func:`validate_two_category`.
    """
    objects = frozenset(objects)
    one_cells = dict(one_cells)
    two_cells = dict(two_cells)
    one_identity = dict(one_identity or {})
    two_identity = dict(two_identity or {})

    for below, cells, identity, prefix in (
        (objects, one_cells, one_identity, "id:"),
        (one_cells, two_cells, two_identity, "vid:"),
    ):
        keys = None  # the key object of each cell, built at the first adoption
        for x in sorted(below):
            listed = x in identity
            name = identity[x] if listed else f"{prefix}{x}"
            if name in cells:
                if not listed:
                    if cells[name] != (x, x):
                        raise MalformedData(f"cell {name!r} is reserved for the identity of {x!r}")
                    keys = keys or {cell: cell for cell in cells}
                    name = keys.get(name, name)
            else:
                cells[name] = (x, x)
            identity[x] = name

    tables = (dict(one_compose or {}), dict(vert_compose or {}), dict(horiz_compose or {}))
    _add_unit_rows(tables, one_cells, one_identity, two_cells, two_identity)
    one_compose, vert_compose, horiz_compose = tables

    return TwoCategory(
        objects=objects,
        one_cells=one_cells,
        one_identity=one_identity,
        one_compose=one_compose,
        two_cells=two_cells,
        two_identity=two_identity,
        vert_compose=vert_compose,
        horiz_compose=horiz_compose,
    )


def _unit_maps(one_cells, one_identity, two_cells, two_identity):
    """Per level (compose1, vcompose, hcompose), the right and the left
    identity maps: a cell starting at ``x`` composes on its right with
    ``right[x]``, and a cell ending at ``x`` on its left with ``left[x]``.
    The identity of ``x`` is kept on a side only where it has the boundary
    that pair needs: its end (right) or start (left) is ``x``, horizontally
    its ``hcod`` or ``hdom``.  So an identity that is not a loop serves one
    side at most, and one naming a missing cell none.  O(objects + 1-cells).
    """
    none = (None, None)
    r1, l1, rv, lv, rh, lh = {}, {}, {}, {}, {}, {}
    for x, e in one_identity.items():
        d, c = one_cells.get(e, none)
        hd, hc = one_cells.get(two_cells.get(t := two_identity.get(e), none)[0], none)
        if c == x:
            r1[x] = e
        if d == x:
            l1[x] = e
        if hc == x:
            rh[x] = t
        if hd == x:
            lh[x] = t
    for u, e in two_identity.items():
        d, c = two_cells.get(e, none)
        if c == u:
            rv[u] = e
        if d == u:
            lv[u] = e
    return (r1, l1), (rv, lv), (rh, lh)


def _add_unit_rows(tables, one_cells, one_identity, two_cells, two_identity):
    """Add ``(f, e) -> f`` and ``(e, f) -> f`` to the compose1, vcompose and
    hcompose ``tables`` for the identities :func:`_unit_maps` gives each
    cell ``f``, where a table has no row.  Two such rows on one pair agree,
    so the order of the cells does not matter."""
    none = (None, None)
    horiz_ends = {t: one_cells.get(h, none) for t, (h, _) in two_cells.items()}
    for table, ends, (right, left) in zip(
        tables,
        (one_cells, two_cells, horiz_ends),
        _unit_maps(one_cells, one_identity, two_cells, two_identity),
    ):
        for f, (d, c) in ends.items():
            if (e := right.get(d)) is not None:
                table.setdefault((f, e), f)
            if (e := left.get(c)) is not None:
                table.setdefault((e, f), f)


def _listed_rows(cat):
    """Per composition table of ``cat``, the table and the sorted keys of
    the rows a document lists.  A row ``(g, f) -> v`` is left out exactly
    when ``v == g`` and ``f`` is the right identity at the start of ``g``,
    or ``v == f`` and ``g`` is the left identity at the end of ``f``, by
    :func:`_unit_maps`: the rows :func:`build_two_category` restores with
    the same value.  No forced row is built."""
    none, out = (None, None), []
    for table, ends, (right, left) in zip(
        (cat.one_compose, cat.vert_compose, cat.horiz_compose),
        (cat.one_cells, cat.two_cells, cat.horiz_ends()),
        _unit_maps(cat.one_cells, cat.one_identity, cat.two_cells, cat.two_identity),
    ):
        keys = []
        for key, v in table.items():
            g, f = key
            if not (v == g and f == right.get(ends.get(g, none)[0])
                    or v == f and g == left.get(ends.get(f, none)[1])):
                keys.append(key)
        keys.sort()
        out.append((table, keys))
    return out


def assemble_two_category(graph, one_rule, vert_rule, horiz_rule):
    """The 2-category on the carriers of ``graph`` whose tables follow rules.

    ``graph`` is a :class:`TwoReflexiveGraph`.  Each rule maps a composable
    pair ``(g, f)`` of its table to the composite; the pairs are derived
    from the boundaries.  A composite that is not a cell breaks the boundary
    law, and :class:`LawViolation` names the least such pair.
    """

    def table(ends, rule):
        out = {pair: rule(pair) for pair in _chains(ends)}
        if not ends.keys() >= set(out.values()):
            raise LawViolation("boundary", min(p for p, v in out.items() if v not in ends))
        return out

    return TwoCategory(
        objects=graph.objects,
        one_cells=graph.one_cells,
        one_identity=graph.one_identity,
        one_compose=table(graph.one_cells, one_rule),
        two_cells=graph.two_cells,
        two_identity=graph.two_identity,
        vert_compose=table(graph.two_cells, vert_rule),
        horiz_compose=table(graph.horiz_ends(), horiz_rule),
    )


# ---------------------------------------------------------------------------
# well-formedness
# ---------------------------------------------------------------------------

def check_well_formed(cat):
    """Raise :class:`MalformedData` unless carriers and tables are coherent.

    Coherent means: every boundary reference resolves, the identity maps are
    total, and each composition table is keyed by exactly the derived set of
    composable pairs; the algebraic laws are not checked here.  Distinct
    keys are exactly the composable pairs when each is a pair whose ends
    meet and they are as many as the pairs.  Only a table that fails this
    count is compared with the pair set, for its least bad row.  Every row
    of every table is tested: this is :func:`_check_rows` on the full tables.
    """
    _check_rows(cat, (cat.one_compose, cat.vert_compose, cat.horiz_compose))


def _check_rows(cat, listed):
    """The checks of :func:`check_well_formed`, testing one by one only the
    rows of ``listed``, a dict per table (compose1, vcompose, hcompose).

    Each table's size is still compared with the count of all its
    composable pairs.  A row outside ``listed`` must be known to compose
    and to land on a cell, as every unit row :func:`build_two_category`
    adds does, so a reader passes the rows its document lists.  A table
    that fails the count or a tested row is compared in full with the pair
    set, so each message is that of the full check.
    """
    _check_carriers(cat)
    # each table's cells with their ends; a table's values must be among them
    for table, rows, ends, name in zip(
        (cat.one_compose, cat.vert_compose, cat.horiz_compose),
        listed,
        (cat.one_cells, cat.two_cells, cat.horiz_ends()),
        ("compose1", "vcompose", "hcompose"),
    ):
        try:
            starts = {}  # cells per meeting point, counted by where they start
            for x, _ in ends.values():
                starts[x] = starts.get(x, 0) + 1
            counted = (
                len(table) == sum(map(starts.get, map(itemgetter(1), ends.values()), repeat(0)))
                and set(map(type, rows)) <= {tuple}
                and all(ends[g][0] == ends[f][1] for g, f in rows)
                and ends.keys() >= set(rows.values())
            )
        except (KeyError, TypeError, ValueError):
            counted = False
        if not counted:
            _check_table(table, set(_chains(ends)), ends, name)


def _check_carriers(cat):
    """The boundary and identity checks of :func:`check_well_formed`, also on 2-graphs."""
    for kind, ends, cells, below_kind, below, name, identity in (
        ("1-cell", "endpoint", cat.one_cells, "objects", cat.objects,
         "one_identity", cat.one_identity),
        ("2-cell", "boundary", cat.two_cells, "1-cells", cat.one_cells,
         "two_identity", cat.two_identity),
    ):
        for u, (d, c) in cells.items():
            if d not in below or c not in below:
                raise MalformedData(f"{kind} {u!r} has unknown {ends} {d!r} or {c!r}")
        if set(identity) != set(below):
            missing = set(below) ^ set(identity)
            raise MalformedData(f"{name} is not total on {below_kind}: {sorted(missing)}")
        for x, u in identity.items():
            if u not in cells:
                raise MalformedData(f"identity of {x!r} is unknown {kind} {u!r}")


def _check_table(table, domain, carrier, name):
    keys = set(table)
    if keys != domain:
        extra = sorted(keys - domain)
        if extra:
            raise MalformedData(f"{name} has a non-composable row {extra[0]}")
        missing = sorted(domain - keys)
        raise MalformedData(f"{name} is missing the row {missing[0]}")
    for key, value in table.items():
        if value not in carrier:
            raise MalformedData(f"{name}{key} = {value!r} is not a known cell")


# ---------------------------------------------------------------------------
# axiom validation
# ---------------------------------------------------------------------------

def validate_two_category(cat):
    """Check every 2-category law on ``cat`` and report per-law verdicts.

    The data must be well formed (total tables over the derived pair sets);
    otherwise :class:`MalformedData` is raised.  Each failed law carries its
    lexicographically least counterexample.  Associativity failures are
    reported outermost first, so ``(c, b, a)`` compares ``c(ba)`` with
    ``(cb)a``.  The laws are read from each table's rows, which an
    associativity walk indexes by the cell applied first while it runs.

    The unit laws are checked first, and the walks then use the unit
    lemma.  Where a level's unit law holds, the boundary walk leaves out
    that level's rows through an identity, and associativity its chains
    through one.  The horizontal level asks all three unit laws and
    parallelism, so that its identities are loops whose rows keep their
    ends.  Each item left out holds by laws already checked, so verdicts
    and witnesses are those of the full walk.

    A 2-preorder (:func:`is_two_preorder`) then uses the thin lemma: two
    parallel 2-cells are equal, so a 2-cell equation holds once the laws
    that make its two sides parallel hold.  Where the boundary law holds,
    v-assoc and interchange are not walked; h-assoc also needs 1-assoc,
    since its sides' boundaries differ by a reassociation of 1-cells, and
    identity-exchange needs v-unit, which checks each identity's boundary.
    A law not walked holds, so verdicts and witnesses stay those of the
    full walk.
    """
    check_well_formed(cat)
    return _law_report(cat)


def is_two_preorder(cat):
    """Whether no two distinct 2-cells share both vertical boundaries."""
    return len(set(cat.two_cells.values())) == len(cat.two_cells)


def _law_report(cat):
    """The :class:`AxiomReport` of :func:`validate_two_category` for a
    ``cat`` that :func:`check_well_formed` has passed.

    Failures are recorded in the order parallelism, boundary, the three
    unit laws, the three associativity laws, identity-exchange and
    interchange, whichever walks the unit lemma shortens and the thin
    lemma leaves out.
    """
    one, two = cat.one_cells, cat.two_cells
    c1, vc, hc = cat.one_compose, cat.vert_compose, cat.horiz_compose
    e1, e2 = cat.one_identity, cat.two_identity
    e = {x: e2[u] for x, u in e1.items()}  # the identity 2-cell of each object
    failures = {}

    def ex(law, bad, key=None):
        if bad:
            failures[law] = min(bad, key=key)

    parallel = [(t,) for t, (h, k) in two.items() if one[h] != one[k]]
    units = {
        "1-unit": _unit_law(cat.objects, one, e1, c1),
        "v-unit": _unit_law(one, two, e2, vc),
        "h-unit": [
            (t,) for t, (h, _) in two.items()
            if hc.get((e[one[h][1]], t)) != t or hc.get((t, e[one[h][0]])) != t
        ],
    }
    # the identities the unit lemma lets the walks leave out (see
    # validate_two_category); where a guarding law fails, none
    ids1 = set() if units["1-unit"] else set(e1.values())
    ids2 = set() if units["v-unit"] else set(e2.values())
    idsh = set() if parallel or any(units.values()) else set(e.values())
    ex("parallelism", parallel)
    ex("boundary", _boundary_law(cat, ids1, ids2, idsh), key=itemgetter(1, 0))  # least by (f, g)
    for law, bad in units.items():
        ex(law, bad)
    # the thin lemma (see validate_two_category): where its guard holds, a
    # walk below would compare parallel 2-cells of a 2-preorder, which are equal
    thin = "boundary" not in failures and is_two_preorder(cat)
    ex("1-assoc", _assoc_law(c1, _rows_after(c1, ids1)))
    if not thin:
        ex("v-assoc", _assoc_law(vc, _rows_after(vc, ids2)))
    if not thin or "1-assoc" in failures:
        ex("h-assoc", _assoc_law(hc, _rows_after(hc, idsh)))
    if not thin or "v-unit" in failures:
        # horizontal composite of vertical identities, least by (h, k)
        ex("identity-exchange", [
            (k, h) for (k, h), kh in c1.items() if hc.get((e2[k], e2[h])) != e2[kh]
        ], key=itemgetter(1, 0))
    if not thin:
        ex("interchange", _interchange_law(two, vc, hc))
    return AxiomReport(failures)


def _unit_law(below, cells, identity, table):
    """The cells of ``below`` whose identity has the wrong boundary, or
    else the cells of ``cells`` that an identity does not fix."""
    bad = [(x,) for x in below if cells[identity[x]] != (x, x)]
    return bad or [
        (f,) for f, (d, c) in cells.items()
        if table.get((identity[c], f)) != f or table.get((f, identity[d])) != f
    ]


def _rows_after(table, skip):
    """The rows of ``table`` through no cell of ``skip``, by the cell
    applied first: ``after[f][g] == table[g, f]``."""
    after = {}
    for (g, f), v in table.items():
        if g not in skip and f not in skip:
            if f in after:
                after[f][g] = v
            else:  # setdefault's spare dicts would fragment the heap
                after[f] = {g: v}
    return after


def _boundary_law(cat, ids1, ids2, idsh):
    """The rows ``(g, f)`` through no cell of the level's ``ids`` whose
    composite has the wrong boundary, at the first level that has one."""
    c1, two = cat.one_compose, cat.two_cells
    for cells, table, skip in ((cat.one_cells, c1, ids1), (two, cat.vert_compose, ids2)):
        bad = [
            (g, f) for (g, f), v in table.items()
            if g not in skip and f not in skip
            and (cells[v][0] != cells[f][0] or cells[v][1] != cells[g][1])
        ]
        if bad:
            return bad
    return [
        (b, a) for (b, a), v in cat.horiz_compose.items()
        if b not in idsh and a not in idsh
        and two[v] != (c1.get((two[b][0], two[a][0])), c1.get((two[b][1], two[a][1])))
    ]


def _assoc_law(table, after):
    """The triples ``(c, b, a)`` of ``after``, the rows of ``table`` by the
    cell applied first, with ``c(ba) != (cb)a``.  A composite with a corrupt
    boundary has no row; the boundary law reports it."""
    bad = []
    for a, row_a in after.items():
        for b, ba in row_a.items():
            for c, cb in after.get(b, {}).items():
                lhs, rhs = table.get((c, ba)), table.get((cb, a))
                if lhs != rhs and None not in (lhs, rhs):
                    bad.append((c, b, a))
    return bad


def _interchange_law(two, vc, hc):
    """The quads ``(b', a', b, a)`` with ``(b'a')(ba) != (b'b)(a'a)``."""
    vert = {t: {} for t in two}  # every vertical row starts some quad
    for (b, a), ba in vc.items():
        vert[a][b] = ba
    bad = []
    for (ap, a), apa in hc.items():
        v_ap = vert[ap]
        for b, ba in vert[a].items():
            for bp, bpap in v_ap.items():
                lhs, rhs = hc.get((bpap, ba)), vc.get((hc.get((bp, b)), apa))
                if lhs != rhs and None not in (lhs, rhs):
                    bad.append((bp, ap, b, a))
    return bad


# ---------------------------------------------------------------------------
# 2-functors
# ---------------------------------------------------------------------------

def validate_two_functor(fun):
    """Return the list of structure equations ``fun`` breaks (empty = valid).

    Dangling identifiers in any of the three maps, ends whose boundaries or
    identities name no cell, and a source that is not well formed raise
    :class:`MalformedData`; genuine non-commutation is reported as
    violations citing the offending cells, table by table and by ``(f, g)``
    within a table.
    """
    graph = _graph_violations(fun)
    check_well_formed(fun.source)
    return _preservation_violations(fun, *graph)


def _preservation_violations(fun, ones, twos):
    """``ones`` and ``twos``, the :func:`_graph_violations` of ``fun``, each
    followed by the rows of its level's tables that ``fun`` does not
    preserve, as one list.  ``fun.source`` must have passed
    :func:`check_well_formed`."""
    src, tgt = fun.source, fun.target
    for bad, m, table, image, name in (
        (ones, fun.f1, src.one_compose, tgt.one_compose, "compose1"),
        (twos, fun.f2, src.vert_compose, tgt.vert_compose, "vcompose"),
        (twos, fun.f2, src.horiz_compose, tgt.horiz_compose, "hcompose"),
    ):
        broken = [
            (f, g) for (g, f), v in table.items()
            if m[v] != (want := image.get((m[g], m[f]))) or want is None
        ]
        bad += [f"{name} not preserved at ({g!r}, {f!r})" for f, g in sorted(broken)]
    return ones + twos


def _graph_violations(fun, ends=None):
    """The boundary and identity equations ``fun`` breaks, one list per level.

    ``fun`` may also run between reflexive 2-graphs.  A map that is not
    total, or that sends a cell outside the target, raises
    :class:`MalformedData`, and so do ends whose boundaries or identities
    name no cell.  The carriers of ``ends``, by default both ends, are
    checked for that; a caller passes only the ends no check has passed.
    Violations are collected unsorted and sorted by cell, so each level
    lists them in identifier order.
    """
    src, tgt = fun.source, fun.target
    for name, mapping, domain, codomain in (
        ("f0", fun.f0, src.objects, tgt.objects),
        ("f1", fun.f1, src.one_cells, tgt.one_cells),
        ("f2", fun.f2, src.two_cells, tgt.two_cells),
    ):
        if set(mapping) != set(domain):
            missing = set(domain) ^ set(mapping)
            raise MalformedData(f"{name} is not total: {sorted(missing)[:3]}")
        for key, value in mapping.items():
            if value not in codomain:
                raise MalformedData(f"{name}[{key!r}] = {value!r} is not in the target")

    for end in (src, tgt) if ends is None else ends:
        _check_carriers(end)
    levels = []
    for kind, dom, cod, below_kind, m, below, cells, images, identity, image_identity in (
        ("1-cell", "dom", "cod", "object", fun.f1, fun.f0,
         src.one_cells, tgt.one_cells, src.one_identity, tgt.one_identity),
        ("2-cell", "vdom", "vcod", "1-cell", fun.f2, fun.f1,
         src.two_cells, tgt.two_cells, src.two_identity, tgt.two_identity),
    ):
        moved = []  # (cell, 0 for its start or 1 for its end, that end's name)
        for u, (d, c) in cells.items():
            image_d, image_c = images[m[u]]
            if image_d != below[d]:
                moved.append((u, 0, dom))
            if image_c != below[c]:
                moved.append((u, 1, cod))
        lost = [x for x, e in identity.items() if m[e] != image_identity[below[x]]]
        levels.append(
            [f"{end} not preserved at {kind} {u!r}" for u, _, end in sorted(moved)]
            + [f"identity {kind} not preserved at {below_kind} {x!r}" for x in sorted(lost)]
        )
    return levels


def _bijectivity_witness(mapping, codomain):
    """Least witness that a carrier map is not a bijection, else ``None``.

    The witness is the least colliding pair of keys, or else the least
    element of ``codomain`` that is not hit.
    """
    images = set(mapping.values())
    if len(images) == len(mapping) and images == set(codomain):
        return None
    images = {}
    for key in sorted(mapping):
        value = mapping[key]
        if value in images:
            return (images[value], key)
        images[value] = key
    unhit = set(codomain) - set(images)
    return (min(unhit),) if unhit else None


def identity_two_functor(cat):
    maps = ({c: c for c in cells} for cells in (cat.objects, cat.one_cells, cat.two_cells))
    return TwoFunctor(cat, cat, *maps)


def compose_two_functors(g, f):
    """The componentwise composite ``g . f``; ends must meet exactly."""
    if g.source != f.target:
        raise MismatchedBoundary("target of the first functor is not the source of the second")
    levels = ((f.f0, g.f0), (f.f1, g.f1), (f.f2, g.f2))
    maps = ({c: outer[v] for c, v in inner.items()} for inner, outer in levels)
    return TwoFunctor(f.source, g.target, *maps)


def functors_equal(f, g):
    """Identifier-level equality of two functors (same ends, same maps)."""
    return f == g


# ---------------------------------------------------------------------------
# coproducts
# ---------------------------------------------------------------------------

#: The dict fields of a :class:`TwoCategory` by kind: the carriers with
#: their boundaries, the identity maps and the composition tables.
_BOUNDARIES = ("one_cells", "two_cells")
_IDENTITIES = ("one_identity", "two_identity")
_TABLES = ("one_compose", "vert_compose", "horiz_compose")
_DICT_FIELDS = (*_BOUNDARIES, *_IDENTITIES, *_TABLES)


def coproduct(parts):
    """Disjoint union of 2-categories; cells are tagged by part index.

    Returns the union and the list of injection functors, which are jointly
    surjective and pairwise disjoint on carriers.
    """
    objects, tagged = set(), []
    fields = {name: {} for name in _DICT_FIELDS}
    for index, part in enumerate(parts):
        tag = f"{index}:".__add__
        maps = [{c: tag(c) for c in cells} for cells in (part.objects, part.one_cells, part.two_cells)]
        tagged.append((part, maps))
        objects.update(maps[0].values())
        for name in _BOUNDARIES:
            fields[name].update(
                {tag(u): (tag(d), tag(c)) for u, (d, c) in getattr(part, name).items()}
            )
        for name in _IDENTITIES:
            fields[name].update({tag(x): tag(u) for x, u in getattr(part, name).items()})
        for name in _TABLES:
            fields[name].update(
                {(tag(g), tag(f)): tag(v) for (g, f), v in getattr(part, name).items()}
            )

    union = TwoCategory(objects=frozenset(objects), **fields)
    return union, [TwoFunctor(part, union, *maps) for part, maps in tagged]


def copair(union, injections, legs):
    """The functor out of a coproduct determined by one leg per part."""
    if len(injections) != len(legs):
        raise MismatchedBoundary("one leg per coproduct part is required")
    target = None
    maps = ({}, {}, {})
    for inj, leg in zip(injections, legs):
        if leg.source != inj.source:
            raise MismatchedBoundary("leg does not start at its coproduct part")
        if target is None:
            target = leg.target
        elif target != leg.target:
            raise MismatchedBoundary("legs end in different targets")
        for out, into, via in zip(maps, (inj.f0, inj.f1, inj.f2), (leg.f0, leg.f1, leg.f2)):
            out.update({v: via[x] for x, v in into.items()})
    if target is None:
        raise MismatchedBoundary("the empty coproduct has no canonical leg target")
    return TwoFunctor(union, target, *maps)


# ---------------------------------------------------------------------------
# exhaustive functor enumeration and isomorphism search
# ---------------------------------------------------------------------------

def enumerate_two_functors(source, target, *, bijective=False):
    """Yield every valid 2-functor ``source -> target``.

    Backtracking assigns objects, then non-identity 1-cells, then
    non-identity 2-cells, pruning with the boundary maps.  The identity
    cells of a level are filled in when the level opens, and each
    composition-table row is checked as soon as all of its cells are
    assigned.  With ``bijective=True`` only levelwise bijections are
    produced.  Output order is deterministic (identifier order at every
    choice point).  The search keeps its own stack, so its depth is not
    bounded by the interpreter's recursion limit.
    """
    if bijective and source.carrier_sizes() != target.carrier_sizes():
        return
    src, tgt = source, target
    maps = ({}, {}, {})
    used = [set(), set(), set()]
    # per level, each identity cell with the cell below it that it is on
    identities = (
        (),
        [(src.one_identity[x], x) for x in sorted(src.objects)],
        [(src.two_identity[h], h) for h in sorted(src.one_cells)],
    )
    target_identity = (None, tgt.one_identity, tgt.two_identity)
    pools = (None, _by_ends(tgt.one_cells), _by_ends(tgt.two_cells))
    tgt_objects = sorted(tgt.objects)

    # one slot per free cell: (level, cell, boundary), in identifier order;
    # a level opens at the depth of its first slot
    slots = [(0, x, None) for x in sorted(src.objects)]
    opening = {}
    for level, cells, fixed in (
        (1, src.one_cells, set(src.one_identity.values())),
        (2, src.two_cells, set(src.two_identity.values())),
    ):
        opening.setdefault(len(slots), []).append(level)
        slots += [(level, c, cells[c]) for c in sorted(cells) if c not in fixed]

    # watch index: each row is checked at the slot that completes it, or
    # when its level opens if all of its cells are identities
    slot_of = ({}, {}, {})
    for depth, (level, cell, _) in enumerate(slots):
        slot_of[level][cell] = depth
    checks = [[] for _ in slots]
    on_open = ([], [], [])
    for level, table, image in (
        (1, src.one_compose, tgt.one_compose),
        (2, src.vert_compose, tgt.vert_compose),
        (2, src.horiz_compose, tgt.horiz_compose),
    ):
        where = slot_of[level]
        for (g, f), v in table.items():
            at = max(where.get(g, -1), where.get(f, -1), where.get(v, -1))
            row = (maps[level], image, g, f, v)
            (checks[at] if at >= 0 else on_open[level]).append(row)

    def rows_hold(rows):
        for m, image, g, f, v in rows:
            if image.get((m[g], m[f])) != m[v]:
                return False
        return True

    def arrive(depth):
        """Open the levels whose free cells start at ``depth``."""
        for level in opening.get(depth, ()):
            m, below, ids = maps[level], maps[level - 1], target_identity[level]
            m.clear()
            for cell, under in identities[level]:
                image = ids[below[under]]
                if m.setdefault(cell, image) != image:
                    return False
            if bijective:
                used[level] = set(m.values())
                if len(used[level]) != len(m):
                    return False
            if not rows_hold(on_open[level]):
                return False
        return True

    def pool(depth):
        level, _, ends = slots[depth]
        if level == 0:
            return iter(tgt_objects)
        below = maps[level - 1]
        return iter(pools[level].get((below[ends[0]], below[ends[1]]), ()))

    def functor():
        return TwoFunctor(source, target, *map(dict, maps))

    if not arrive(0):
        return
    if not slots:
        yield functor()
        return
    stack = [pool(0)]
    chosen = [None] * len(slots)
    while stack:
        depth = len(stack) - 1
        level, cell, _ = slots[depth]
        m = maps[level]
        if bijective:
            used[level].discard(chosen[depth])
        for image in stack[-1]:
            if bijective and image in used[level]:
                continue
            m[cell] = image
            if rows_hold(checks[depth]) and arrive(depth + 1):
                break
        else:
            chosen[depth] = None
            stack.pop()
            continue
        if bijective:
            used[level].add(image)
            chosen[depth] = image
        if depth + 1 == len(slots):
            yield functor()
        else:
            stack.append(pool(depth + 1))


def find_isomorphism(a, b, caps=DEFAULT_CAPS):
    """A structure-preserving levelwise bijection ``a -> b``, or ``None``.

    Carrier-size mismatch settles the question without search; otherwise
    both carriers must fit under ``caps`` or :class:`SearchCapExceeded`
    is raised.
    """
    if a.carrier_sizes() != b.carrier_sizes():
        return None
    if not caps.admits(a) or not caps.admits(b):
        raise SearchCapExceeded(
            f"carriers {a.carrier_sizes()} exceed search caps {caps}"
        )
    return next(enumerate_two_functors(a, b, bijective=True), None)
