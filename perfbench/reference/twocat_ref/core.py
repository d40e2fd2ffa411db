"""Finite 2-categories and 2-functors: carriers, law validation, search.

A 2-category is stored as explicit finite carriers (objects, 1-cells,
2-cells) together with total composition tables.  Composable-pair sets are
never stored; they are derived from the boundary maps on demand.  All values
are immutable after construction and every operation is a pure function.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct

from .errors import (
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


@dataclass(frozen=True)
class TwoCategory:
    """Finite 2-category given by carriers and total composition tables.

    ``one_cells`` maps a 1-cell id to its ``(dom, cod)`` objects;
    ``two_cells`` maps a 2-cell id to its ``(vdom, vcod)`` 1-cells.  The
    composition tables are keyed ``(g, f)`` meaning "g after f": 1-cell
    pairs with ``dom(g) == cod(f)``, vertical pairs with
    ``vdom(g) == vcod(f)``, horizontal pairs with ``hdom(g) == hcod(f)``.

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

    def hdom(self, t):
        return self.one_cells[self.two_cells[t][0]][0]

    def hcod(self, t):
        return self.one_cells[self.two_cells[t][0]][1]

    # -- derived pair sets --------------------------------------------------
    def one_pairs(self):
        """Composable 1-cell pairs ``(g, f)`` with ``dom g == cod f``."""
        by_dom = self._ones_by_dom
        for f in sorted(self.one_cells):
            for g in by_dom.get(self.cod(f), ()):
                yield g, f

    def vert_pairs(self):
        """Vertically composable 2-cell pairs ``(b, a)``."""
        by_vdom = self._twos_by_vdom
        for a in sorted(self.two_cells):
            for b in by_vdom.get(self.vcod(a), ()):
                yield b, a

    def horiz_pairs(self):
        """Horizontally composable 2-cell pairs ``(b, a)``."""
        by_hdom = self._twos_by_hdom
        for a in sorted(self.two_cells):
            for b in by_hdom.get(self.hcod(a), ()):
                yield b, a

    def vert_triples(self):
        """Vertically composable triples ``(c3, c2, c1)``, c1 applied first."""
        by_vdom = self._twos_by_vdom
        for c1 in sorted(self.two_cells):
            for c2 in by_vdom.get(self.vcod(c1), ()):
                for c3 in by_vdom.get(self.vcod(c2), ()):
                    yield c3, c2, c1

    def horiz_triples(self):
        """Horizontally composable triples ``(c3, c2, c1)``, c1 applied first."""
        by_hdom = self._twos_by_hdom
        for c1 in sorted(self.two_cells):
            for c2 in by_hdom.get(self.hcod(c1), ()):
                for c3 in by_hdom.get(self.hcod(c2), ()):
                    yield c3, c2, c1

    def horiz_vert_pairs(self):
        """Horizontally composable pairs of vertically composable pairs.

        Yields ``(left, right)`` with ``right`` applied first; both entries
        are ``(b, a)`` pairs from :meth:`vert_pairs`.
        """
        pairs = sorted(self.vert_pairs())
        by_hcod = {}
        for pair in pairs:
            by_hcod.setdefault(self.hcod(pair[1]), []).append(pair)
        for left in pairs:
            for right in by_hcod.get(self.hdom(left[1]), ()):
                yield left, right

    @cached_property
    def _ones_by_dom(self):
        index = {}
        for u in sorted(self.one_cells):
            index.setdefault(self.dom(u), []).append(u)
        return index

    @cached_property
    def _twos_by_vdom(self):
        index = {}
        for t in sorted(self.two_cells):
            index.setdefault(self.vdom(t), []).append(t)
        return index

    @cached_property
    def _twos_by_hdom(self):
        index = {}
        for t in sorted(self.two_cells):
            index.setdefault(self.hdom(t), []).append(t)
        return index

    @cached_property
    def _hom_index(self):
        index = {}
        for t in sorted(self.two_cells):
            index.setdefault(self.two_cells[t], []).append(t)
        return index

    def hom(self, h, k):
        """The 2-cells from ``h`` to ``k``, in identifier order."""
        return tuple(self._hom_index.get((h, k), ()))

    def carrier_sizes(self):
        return len(self.objects), len(self.one_cells), len(self.two_cells)


#: A 2-category-shaped value whose laws may fail; checked by AxiomReport.
RelaxedTwoCategory = TwoCategory


@dataclass(frozen=True)
class TwoFunctor:
    """Triple of carrier maps between 2-categories.

    Validity (commutation with all structure maps) is checked by
    :func:`validate_two_functor`, never assumed by the container.
    """

    source: TwoCategory
    target: TwoCategory
    f0: dict
    f1: dict
    f2: dict


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
    """Carrier-size ceiling for exhaustive isomorphism search."""

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
    such a name is adopted as the identity).  Table rows forced by the unit
    laws are filled in; explicit rows always win.  Totality of anything
    not forced by units is the caller's responsibility and is checked by
    :func:`validate_two_category`.
    """
    objects = frozenset(objects)
    one_cells = dict(one_cells)
    two_cells = dict(two_cells)
    one_identity = dict(one_identity or {})
    two_identity = dict(two_identity or {})

    for x in sorted(objects):
        name = one_identity.get(x, f"id:{x}")
        if name in one_cells:
            if x not in one_identity and one_cells[name] != (x, x):
                raise MalformedData(f"cell {name!r} is reserved for the identity of {x!r}")
        else:
            one_cells[name] = (x, x)
        one_identity[x] = name

    for h in sorted(one_cells):
        name = two_identity.get(h, f"vid:{h}")
        if name in two_cells:
            if h not in two_identity and two_cells[name] != (h, h):
                raise MalformedData(f"cell {name!r} is reserved for the identity of {h!r}")
        else:
            two_cells[name] = (h, h)
        two_identity[h] = name

    one_compose = dict(one_compose or {})
    for f in sorted(one_cells):
        d, c = one_cells[f]
        if d in one_identity:
            one_compose.setdefault((f, one_identity[d]), f)
        if c in one_identity:
            one_compose.setdefault((one_identity[c], f), f)

    vert_compose = dict(vert_compose or {})
    horiz_compose = dict(horiz_compose or {})
    for t in sorted(two_cells):
        vd, vc = two_cells[t]
        if vd in two_identity:
            vert_compose.setdefault((t, two_identity[vd]), t)
        if vc in two_identity:
            vert_compose.setdefault((two_identity[vc], t), t)
        ends = one_cells.get(vd)
        if ends is None:
            continue
        hd, hc = ends
        if hd in one_identity and one_identity[hd] in two_identity:
            horiz_compose.setdefault((t, two_identity[one_identity[hd]]), t)
        if hc in one_identity and one_identity[hc] in two_identity:
            horiz_compose.setdefault((two_identity[one_identity[hc]], t), t)

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


# ---------------------------------------------------------------------------
# well-formedness
# ---------------------------------------------------------------------------

def check_well_formed(cat):
    """Raise :class:`MalformedData` unless carriers and tables are coherent.

    Coherent means: every boundary reference resolves, the identity maps are
    total, and each composition table is keyed by exactly the derived set of
    composable pairs.  The algebraic laws are not checked here.
    """
    objs = cat.objects
    for u, (d, c) in cat.one_cells.items():
        if d not in objs or c not in objs:
            raise MalformedData(f"1-cell {u!r} has unknown endpoint {d!r} or {c!r}")
    if set(cat.one_identity) != set(objs):
        missing = set(objs) ^ set(cat.one_identity)
        raise MalformedData(f"one_identity is not total on objects: {sorted(missing)}")
    for x, u in cat.one_identity.items():
        if u not in cat.one_cells:
            raise MalformedData(f"identity of {x!r} is unknown 1-cell {u!r}")
    for t, (vd, vc) in cat.two_cells.items():
        if vd not in cat.one_cells or vc not in cat.one_cells:
            raise MalformedData(f"2-cell {t!r} has unknown boundary {vd!r} or {vc!r}")
    if set(cat.two_identity) != set(cat.one_cells):
        missing = set(cat.one_cells) ^ set(cat.two_identity)
        raise MalformedData(f"two_identity is not total on 1-cells: {sorted(missing)}")
    for h, t in cat.two_identity.items():
        if t not in cat.two_cells:
            raise MalformedData(f"identity of {h!r} is unknown 2-cell {t!r}")

    _check_table(cat.one_compose, set(cat.one_pairs()), cat.one_cells, "compose1")
    _check_table(cat.vert_compose, set(cat.vert_pairs()), cat.two_cells, "vcompose")
    _check_table(cat.horiz_compose, set(cat.horiz_pairs()), cat.two_cells, "hcompose")


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
    ``(cb)a``.
    """
    check_well_formed(cat)
    failures = {}

    def ex(law, *cells):
        if law not in failures:
            failures[law] = tuple(cells)

    # parallelism of 2-cell boundaries
    for t in sorted(cat.two_cells):
        vd, vc = cat.two_cells[t]
        if cat.one_cells[vd] != cat.one_cells[vc]:
            ex("parallelism", t)
            break

    # boundary of composites
    for g, f in cat.one_pairs():
        gf = cat.one_compose[(g, f)]
        if cat.dom(gf) != cat.dom(f) or cat.cod(gf) != cat.cod(g):
            ex("boundary", g, f)
            break
    else:
        for b, a in cat.vert_pairs():
            ba = cat.vert_compose[(b, a)]
            if cat.vdom(ba) != cat.vdom(a) or cat.vcod(ba) != cat.vcod(b):
                ex("boundary", b, a)
                break
        else:
            for b, a in cat.horiz_pairs():
                ba = cat.horiz_compose[(b, a)]
                want = (
                    cat.one_compose.get((cat.vdom(b), cat.vdom(a))),
                    cat.one_compose.get((cat.vcod(b), cat.vcod(a))),
                )
                if cat.two_cells[ba] != want:
                    ex("boundary", b, a)
                    break

    _unit_laws(cat, ex)
    _assoc_law(cat, cat.one_cells, cat.one_compose, _one_comp_key(cat), "1-assoc", ex)
    _assoc_law(cat, cat.two_cells, cat.vert_compose, _vert_comp_key(cat), "v-assoc", ex)
    _assoc_law(cat, cat.two_cells, cat.horiz_compose, _horiz_comp_key(cat), "h-assoc", ex)

    # horizontal composite of vertical identities
    for k, h in cat.one_pairs():
        lhs = cat.horiz_compose.get((cat.two_identity[k], cat.two_identity[h]))
        if lhs != cat.two_identity[cat.one_compose[(k, h)]]:
            ex("identity-exchange", k, h)
            break

    _interchange_law(cat, ex)
    return AxiomReport(failures)


def _one_comp_key(cat):
    def key(g, f):
        return (g, f) if cat.dom(g) == cat.cod(f) else None

    return key


def _vert_comp_key(cat):
    def key(g, f):
        return (g, f) if cat.vdom(g) == cat.vcod(f) else None

    return key


def _horiz_comp_key(cat):
    def key(g, f):
        return (g, f) if cat.hdom(g) == cat.hcod(f) else None

    return key


def _unit_laws(cat, ex):
    for x in sorted(cat.objects):
        e = cat.one_identity[x]
        if cat.one_cells[e] != (x, x):
            ex("1-unit", x)
            break
    else:
        for f in sorted(cat.one_cells):
            left = cat.one_compose.get((cat.one_identity[cat.cod(f)], f))
            right = cat.one_compose.get((f, cat.one_identity[cat.dom(f)]))
            if left != f or right != f:
                ex("1-unit", f)
                break

    for h in sorted(cat.one_cells):
        ve = cat.two_identity[h]
        if cat.two_cells[ve] != (h, h):
            ex("v-unit", h)
            break
    else:
        for t in sorted(cat.two_cells):
            left = cat.vert_compose.get((cat.two_identity[cat.vcod(t)], t))
            right = cat.vert_compose.get((t, cat.two_identity[cat.vdom(t)]))
            if left != t or right != t:
                ex("v-unit", t)
                break

    for t in sorted(cat.two_cells):
        he_dom = cat.two_identity[cat.one_identity[cat.hdom(t)]]
        he_cod = cat.two_identity[cat.one_identity[cat.hcod(t)]]
        left = cat.horiz_compose.get((he_cod, t))
        right = cat.horiz_compose.get((t, he_dom))
        if left != t or right != t:
            ex("h-unit", t)
            break


def _assoc_law(cat, carrier, table, comp_key, law, ex):
    # c-major iteration makes the first hit the least (c, b, a) tuple
    by_key = {}
    for (g, f) in table:
        by_key.setdefault(g, []).append(f)
    for c in sorted(carrier):
        for b in sorted(by_key.get(c, ())):
            cb = table[(c, b)]
            for a in sorted(by_key.get(b, ())):
                ba = table[(b, a)]
                lhs = table.get(comp_key(c, ba)) if comp_key(c, ba) else None
                rhs = table.get(comp_key(cb, a)) if comp_key(cb, a) else None
                if lhs is None or rhs is None:
                    # boundary corruption; flagged by the boundary law
                    continue
                if lhs != rhs:
                    ex(law, c, b, a)
                    return


def _interchange_law(cat, ex):
    vt = cat.vert_compose
    ht = cat.horiz_compose
    for (bp, ap), (b, a) in cat.horiz_vert_pairs():
        lhs = ht.get((vt[(bp, ap)], vt[(b, a)]))
        hb = ht.get((bp, b))
        ha = ht.get((ap, a))
        if hb is None or ha is None:
            continue
        rhs = vt.get((hb, ha))
        if lhs is None or rhs is None:
            continue
        if lhs != rhs:
            ex("interchange", bp, ap, b, a)
            return


# ---------------------------------------------------------------------------
# 2-functors
# ---------------------------------------------------------------------------

def validate_two_functor(fun):
    """Return the list of structure equations ``fun`` breaks (empty = valid).

    Dangling identifiers in any of the three maps raise
    :class:`MalformedData`; genuine non-commutation is reported as
    violations citing the offending cells.
    """
    src, tgt = fun.source, fun.target
    _check_map_total(fun.f0, src.objects, tgt.objects, "f0")
    _check_map_total(fun.f1, src.one_cells, tgt.one_cells, "f1")
    _check_map_total(fun.f2, src.two_cells, tgt.two_cells, "f2")

    bad = []
    for u in sorted(src.one_cells):
        image = fun.f1[u]
        if tgt.dom(image) != fun.f0[src.dom(u)]:
            bad.append(f"dom not preserved at 1-cell {u!r}")
        if tgt.cod(image) != fun.f0[src.cod(u)]:
            bad.append(f"cod not preserved at 1-cell {u!r}")
    for x in sorted(src.objects):
        if fun.f1[src.one_identity[x]] != tgt.one_identity[fun.f0[x]]:
            bad.append(f"identity 1-cell not preserved at object {x!r}")
    for g, f in src.one_pairs():
        want = tgt.one_compose.get((fun.f1[g], fun.f1[f]))
        if fun.f1[src.one_compose[(g, f)]] != want or want is None:
            bad.append(f"compose1 not preserved at ({g!r}, {f!r})")
    for t in sorted(src.two_cells):
        image = fun.f2[t]
        if tgt.vdom(image) != fun.f1[src.vdom(t)]:
            bad.append(f"vdom not preserved at 2-cell {t!r}")
        if tgt.vcod(image) != fun.f1[src.vcod(t)]:
            bad.append(f"vcod not preserved at 2-cell {t!r}")
    for h in sorted(src.one_cells):
        if fun.f2[src.two_identity[h]] != tgt.two_identity[fun.f1[h]]:
            bad.append(f"identity 2-cell not preserved at 1-cell {h!r}")
    for b, a in src.vert_pairs():
        want = tgt.vert_compose.get((fun.f2[b], fun.f2[a]))
        if fun.f2[src.vert_compose[(b, a)]] != want or want is None:
            bad.append(f"vcompose not preserved at ({b!r}, {a!r})")
    for b, a in src.horiz_pairs():
        want = tgt.horiz_compose.get((fun.f2[b], fun.f2[a]))
        if fun.f2[src.horiz_compose[(b, a)]] != want or want is None:
            bad.append(f"hcompose not preserved at ({b!r}, {a!r})")
    return bad


def _check_map_total(mapping, domain, codomain, name):
    if set(mapping) != set(domain):
        missing = set(domain) ^ set(mapping)
        raise MalformedData(f"{name} is not total: {sorted(missing)[:3]}")
    for key, value in mapping.items():
        if value not in codomain:
            raise MalformedData(f"{name}[{key!r}] = {value!r} is not in the target")


def vertical_hom(cat, h, k):
    """The set of 2-cells with vertical domain ``h`` and codomain ``k``."""
    if h not in cat.one_cells:
        raise UnknownCell(f"unknown 1-cell {h!r}")
    if k not in cat.one_cells:
        raise UnknownCell(f"unknown 1-cell {k!r}")
    return frozenset(cat.hom(h, k))


def identity_two_functor(cat):
    return TwoFunctor(
        source=cat,
        target=cat,
        f0={x: x for x in cat.objects},
        f1={u: u for u in cat.one_cells},
        f2={t: t for t in cat.two_cells},
    )


def compose_two_functors(g, f):
    """The componentwise composite ``g . f``; ends must meet exactly."""
    if g.source != f.target:
        raise MismatchedBoundary("target of the first functor is not the source of the second")
    return TwoFunctor(
        source=f.source,
        target=g.target,
        f0={x: g.f0[v] for x, v in f.f0.items()},
        f1={u: g.f1[v] for u, v in f.f1.items()},
        f2={t: g.f2[v] for t, v in f.f2.items()},
    )


def functors_equal(f, g):
    """Identifier-level equality of two functors (same ends, same maps)."""
    return (
        f.source == g.source
        and f.target == g.target
        and f.f0 == g.f0
        and f.f1 == g.f1
        and f.f2 == g.f2
    )


# ---------------------------------------------------------------------------
# coproducts
# ---------------------------------------------------------------------------

def coproduct(parts):
    """Disjoint union of 2-categories; cells are tagged by part index.

    Returns the union and the list of injection functors, which are jointly
    surjective and pairwise disjoint on carriers.
    """
    objects = set()
    one_cells = {}
    one_identity = {}
    one_compose = {}
    two_cells = {}
    two_identity = {}
    vert_compose = {}
    horiz_compose = {}
    injections = []

    for index, part in enumerate(parts):
        tag = f"{index}:".__add__
        objects.update(tag(x) for x in part.objects)
        one_cells.update(
            {tag(u): (tag(d), tag(c)) for u, (d, c) in part.one_cells.items()}
        )
        one_identity.update({tag(x): tag(u) for x, u in part.one_identity.items()})
        one_compose.update(
            {(tag(g), tag(f)): tag(v) for (g, f), v in part.one_compose.items()}
        )
        two_cells.update(
            {tag(t): (tag(h), tag(k)) for t, (h, k) in part.two_cells.items()}
        )
        two_identity.update({tag(h): tag(t) for h, t in part.two_identity.items()})
        vert_compose.update(
            {(tag(b), tag(a)): tag(v) for (b, a), v in part.vert_compose.items()}
        )
        horiz_compose.update(
            {(tag(b), tag(a)): tag(v) for (b, a), v in part.horiz_compose.items()}
        )

    union = TwoCategory(
        objects=frozenset(objects),
        one_cells=one_cells,
        one_identity=one_identity,
        one_compose=one_compose,
        two_cells=two_cells,
        two_identity=two_identity,
        vert_compose=vert_compose,
        horiz_compose=horiz_compose,
    )
    for index, part in enumerate(parts):
        tag = f"{index}:".__add__
        injections.append(
            TwoFunctor(
                source=part,
                target=union,
                f0={x: tag(x) for x in part.objects},
                f1={u: tag(u) for u in part.one_cells},
                f2={t: tag(t) for t in part.two_cells},
            )
        )
    return union, injections


def copair(union, injections, legs):
    """The functor out of a coproduct determined by one leg per part."""
    if len(injections) != len(legs):
        raise MismatchedBoundary("one leg per coproduct part is required")
    target = None
    f0, f1, f2 = {}, {}, {}
    for inj, leg in zip(injections, legs):
        if leg.source != inj.source:
            raise MismatchedBoundary("leg does not start at its coproduct part")
        if target is None:
            target = leg.target
        elif target != leg.target:
            raise MismatchedBoundary("legs end in different targets")
        f0.update({v: leg.f0[x] for x, v in inj.f0.items()})
        f1.update({v: leg.f1[u] for u, v in inj.f1.items()})
        f2.update({v: leg.f2[t] for t, v in inj.f2.items()})
    if target is None:
        raise MismatchedBoundary("the empty coproduct has no canonical leg target")
    return TwoFunctor(source=union, target=target, f0=f0, f1=f1, f2=f2)


# ---------------------------------------------------------------------------
# exhaustive functor enumeration and isomorphism search
# ---------------------------------------------------------------------------

def enumerate_two_functors(source, target, *, bijective=False):
    """Yield every valid 2-functor ``source -> target``.

    Backtracking assigns objects, then non-identity 1-cells, then
    non-identity 2-cells, pruning with the boundary maps and checking each
    composition-table row as soon as all of its cells are assigned.  With
    ``bijective=True`` only levelwise bijections are produced.  Output order
    is deterministic (identifier order at every choice point).
    """
    if bijective and source.carrier_sizes() != target.carrier_sizes():
        return

    src_objs = sorted(source.objects)
    tgt_objs = sorted(target.objects)
    one_ids = set(source.one_identity.values())
    two_ids = set(source.two_identity.values())
    free_ones = [u for u in sorted(source.one_cells) if u not in one_ids]
    free_twos = [t for t in sorted(source.two_cells) if t not in two_ids]

    one_rows = [(g, f, v) for (g, f), v in sorted(source.one_compose.items())]
    one_watch = _watch_index(one_rows)
    two_rows = [
        (g, f, v, True) for (g, f), v in sorted(source.vert_compose.items())
    ] + [(g, f, v, False) for (g, f), v in sorted(source.horiz_compose.items())]
    two_watch = _watch_index((g, f, v) for (g, f, v, _) in two_rows)

    for f0_choice in _object_maps(src_objs, tgt_objs, bijective):
        f0 = dict(zip(src_objs, f0_choice))
        f1 = {}
        ok = True
        for x in src_objs:
            cell = source.one_identity[x]
            image = target.one_identity[f0[x]]
            if cell in f1 and f1[cell] != image:
                ok = False
                break
            f1[cell] = image
        if not ok or (bijective and len(set(f1.values())) != len(f1)):
            continue
        yield from _assign_ones(
            source, target, f0, f1, free_ones, 0, one_rows, one_watch,
            two_rows, two_watch, free_twos, bijective,
        )


def _object_maps(src_objs, tgt_objs, bijective):
    if not src_objs:
        yield ()
        return
    if bijective:
        from itertools import permutations

        yield from permutations(tgt_objs, len(src_objs))
    else:
        yield from iproduct(tgt_objs, repeat=len(src_objs))


def _watch_index(rows):
    index = {}
    for pos, (g, f, v) in enumerate(rows):
        for cell in {g, f, v}:
            index.setdefault(cell, []).append(pos)
    return index


def _row_ok(rows, pos, assignment, table):
    g, f, v = rows[pos][0], rows[pos][1], rows[pos][2]
    ig, iff, iv = assignment.get(g), assignment.get(f), assignment.get(v)
    if ig is None or iff is None or iv is None:
        return True
    return table.get((ig, iff)) == iv


def _assign_ones(source, target, f0, f1, free_ones, depth, one_rows, one_watch,
                 two_rows, two_watch, free_twos, bijective):
    if depth == len(free_ones):
        for pos in range(len(one_rows)):
            if not _row_ok(one_rows, pos, f1, target.one_compose):
                return
        yield from _start_twos(
            source, target, f0, f1, two_rows, two_watch, free_twos, bijective
        )
        return
    cell = free_ones[depth]
    want = (f0[source.dom(cell)], f0[source.cod(cell)])
    used = set(f1.values()) if bijective else ()
    for image in sorted(target.one_cells):
        if target.one_cells[image] != want:
            continue
        if bijective and image in used:
            continue
        f1[cell] = image
        if all(
            _row_ok(one_rows, pos, f1, target.one_compose)
            for pos in one_watch.get(cell, ())
        ):
            yield from _assign_ones(
                source, target, f0, f1, free_ones, depth + 1, one_rows,
                one_watch, two_rows, two_watch, free_twos, bijective,
            )
        del f1[cell]


def _start_twos(source, target, f0, f1, two_rows, two_watch, free_twos, bijective):
    f2 = {}
    for h in sorted(source.one_cells):
        cell = source.two_identity[h]
        image = target.two_identity[f1[h]]
        if cell in f2 and f2[cell] != image:
            return
        f2[cell] = image
    if bijective and len(set(f2.values())) != len(f2):
        return
    yield from _assign_twos(
        source, target, f0, f1, f2, free_twos, 0, two_rows, two_watch, bijective
    )


def _two_row_ok(source, target, row, f2):
    g, f, v, vertical = row
    ig, iff, iv = f2.get(g), f2.get(f), f2.get(v)
    if ig is None or iff is None or iv is None:
        return True
    table = target.vert_compose if vertical else target.horiz_compose
    return table.get((ig, iff)) == iv


def _assign_twos(source, target, f0, f1, f2, free_twos, depth, two_rows,
                 two_watch, bijective):
    if depth == len(free_twos):
        if all(_two_row_ok(source, target, row, f2) for row in two_rows):
            yield TwoFunctor(
                source=source, target=target, f0=dict(f0), f1=dict(f1), f2=dict(f2)
            )
        return
    cell = free_twos[depth]
    want = (f1[source.vdom(cell)], f1[source.vcod(cell)])
    used = set(f2.values()) if bijective else ()
    for image in target.hom(*want):
        if bijective and image in used:
            continue
        f2[cell] = image
        if all(
            _two_row_ok(source, target, two_rows[pos], f2)
            for pos in two_watch.get(cell, ())
        ):
            yield from _assign_twos(
                source, target, f0, f1, f2, free_twos, depth + 1, two_rows,
                two_watch, bijective,
            )
        del f2[cell]


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


def is_isomorphic(a, b, caps=DEFAULT_CAPS):
    return find_isomorphism(a, b, caps) is not None
