"""Pointwise finite limits: pullbacks, binary products, the terminal object.

Apex cells are canonical pair encodings ``(x|y)`` of the input identifiers
(escaped where plain names would collide, see :func:`encoder`),
so results are deterministic and counterexamples stay readable.  The same
componentwise construction serves both law-abiding inputs and relaxed
structures; only the expectations on the result differ.
"""

import re
from dataclasses import dataclass
from functools import cached_property

from .core import TwoCategory, TwoFunctor, TwoReflexiveGraph, assemble_two_category
from .errors import MalformedData, MismatchedTarget


@dataclass(frozen=True)
class PullbackResult:
    apex: TwoCategory
    proj1: TwoFunctor
    proj2: TwoFunctor

    @cached_property
    def names(self):
        """Per level, the apex cell over each pair: the projections inverted."""
        return [
            {(p1[n], p2[n]): n for n in p1}
            for p1, p2 in zip(
                (self.proj1.f0, self.proj1.f1, self.proj1.f2),
                (self.proj2.f0, self.proj2.f1, self.proj2.f2),
            )
        ]


@dataclass(frozen=True)
class FiniteSquare:
    """A commuting-square candidate of finite maps ``f.p == g.q``.

    ``p: W -> X``, ``q: W -> Y``, ``f: X -> Z``, ``g: Y -> Z``; each map is
    a dict and its key set is the carrier of its domain.
    """

    p: dict
    q: dict
    f: dict
    g: dict


_DELIMITER = re.compile(r"[\\()|]|=>")

#: Plain names by number of parts: a pair, or a parallel pair tagged with a cell.
_PLAIN = {2: lambda x, y: f"({x}|{y})", 3: lambda h, k, b: f"({h}=>{k}|{b})"}


def encoder(levels, arity=2):
    """Names for the tuples on each level: ``(x|y)``, or ``(h=>k|b)`` for arity 3.

    Returns the encoding and, per level, a map from each name to its tuple.
    Parts render as they are unless that gives two tuples of one level the
    same name; then every name is encoded again with ``\\``, ``(``, ``)``,
    ``|`` and ``=>`` backslash-escaped inside each part, which is injective.
    """
    plain = _PLAIN[arity]

    def escaped(*parts):
        return plain(*(_DELIMITER.sub(r"\\\g<0>", str(p)) for p in parts))

    for encode in (plain, escaped):
        named = [{encode(*cells): cells for cells in level} for level in levels]
        if all(len(names) == len(level) for names, level in zip(named, levels)):
            break
    return encode, named


def _fiber(xs, ys, f, g):
    """The pairs ``(x, y)`` with ``f[x] == g[y]``, in the order of ``xs`` then ``ys``."""
    by_image = {}
    for y in ys:
        by_image.setdefault(g[y], []).append(y)
    return [(x, y) for x in xs for y in by_image.get(f[x], ())]


def fiber_product(a, c, f, g):
    """Carrier-level fiber product of maps ``f: a -> z <- c: g`` of carriers.

    ``a`` and ``c`` are 2-reflexive graphs or 2-categories, and ``f`` and
    ``g`` their ``(f0, f1, f2)`` carrier maps.  Returns the apex as a
    :class:`TwoReflexiveGraph`, its pair maps (per level, apex cell ->
    ``(x, y)``) and the encoding that named the cells.
    """
    levels = [
        _fiber(sorted(xs), sorted(ys), fm, gm)
        for xs, ys, fm, gm in zip(
            (a.objects, a.one_cells, a.two_cells), (c.objects, c.one_cells, c.two_cells), f, g
        )
    ]
    name, pairs = encoder(levels)
    objs, ones, twos = pairs
    one_cells, two_identity = {}, {}
    for n, (u, w) in ones.items():
        (du, cu), (dw, cw) = a.one_cells[u], c.one_cells[w]
        one_cells[n] = (name(du, dw), name(cu, cw))
        two_identity[n] = name(a.two_identity[u], c.two_identity[w])
    two_cells = {}
    for n, (s, t) in twos.items():
        (ds, cs), (dt, ct) = a.two_cells[s], c.two_cells[t]
        two_cells[n] = (name(ds, dt), name(cs, ct))
    apex = TwoReflexiveGraph(
        objects=objs,
        one_cells=one_cells,
        one_identity={
            n: name(a.one_identity[x], c.one_identity[y]) for n, (x, y) in objs.items()
        },
        two_cells=two_cells,
        two_identity=two_identity,
    )
    return apex, pairs, name


def projections(pairs, side):
    """The carrier maps of one projection out of a fiber product's pair maps."""
    return [{n: pair[side] for n, pair in level.items()} for level in pairs]


def pullback(f, g):
    """Componentwise fiber product of two 2-functors with a common target.

    The apex pairs cells of ``f.source`` with cells of ``g.source`` that
    agree in the target, with all tables computed componentwise; for valid
    inputs the apex is again a 2-category.
    """
    if f.target != g.target:
        raise MismatchedTarget("pullback needs morphisms into the same 2-category")
    a, c = f.source, g.source
    graph, pairs, name = fiber_product(a, c, (f.f0, f.f1, f.f2), (g.f0, g.f1, g.f2))

    def componentwise(cells, table_a, table_c):
        def rule(key):
            (ga, gc), (fa, fc) = cells[key[0]], cells[key[1]]
            return name(table_a[(ga, fa)], table_c[(gc, fc)])

        return rule

    apex = assemble_two_category(
        graph,
        componentwise(pairs[1], a.one_compose, c.one_compose),
        componentwise(pairs[2], a.vert_compose, c.vert_compose),
        componentwise(pairs[2], a.horiz_compose, c.horiz_compose),
    )
    return PullbackResult(
        apex=apex,
        proj1=TwoFunctor(apex, a, *projections(pairs, 0)),
        proj2=TwoFunctor(apex, c, *projections(pairs, 1)),
    )


def pair_into_pullback(result, u, w):
    """The mediating functor of a commuting cone ``(u, w)`` over a pullback."""
    if u.source != w.source:
        raise MismatchedTarget("cone legs must share their source")
    src = u.source
    try:
        maps = [
            {x: names[(um[x], wm[x])] for x in carrier}
            for names, carrier, um, wm in zip(
                result.names,
                (src.objects, src.one_cells, src.two_cells),
                (u.f0, u.f1, u.f2),
                (w.f0, w.f1, w.f2),
            )
        ]
    except KeyError as exc:
        raise MismatchedTarget(f"the cone does not commute at {exc}") from None
    return TwoFunctor(src, result.apex, *maps)


def terminal():
    """The one-object, one-1-cell, one-2-cell 2-category."""
    return TwoCategory(
        objects=frozenset({"pt"}),
        one_cells={"id:pt": ("pt", "pt")},
        one_identity={"pt": "id:pt"},
        one_compose={("id:pt", "id:pt"): "id:pt"},
        two_cells={"vid:id:pt": ("id:pt", "id:pt")},
        two_identity={"id:pt": "vid:id:pt"},
        vert_compose={("vid:id:pt", "vid:id:pt"): "vid:id:pt"},
        horiz_compose={("vid:id:pt", "vid:id:pt"): "vid:id:pt"},
    )


def terminal_functor(cat, point=None):
    """The unique functor into the terminal 2-category."""
    point = point if point is not None else terminal()
    return TwoFunctor(
        source=cat,
        target=point,
        f0={x: "pt" for x in cat.objects},
        f1={u: "id:pt" for u in cat.one_cells},
        f2={t: "vid:id:pt" for t in cat.two_cells},
    )


def product(a, b):
    """Binary product, computed as the pullback over the terminal object."""
    point = terminal()
    return pullback(terminal_functor(a, point), terminal_functor(b, point))


def is_pullback_square(square):
    """Whether ``square`` commutes and its apex is the canonical fiber product.

    True iff ``f.p == g.q`` and ``w -> (p w, q w)`` is a bijection onto
    ``{(x, y) | f x == g y}``.
    """
    if set(square.p) != set(square.q):
        raise MalformedData("the two apex maps have different domains")
    for w in square.p:
        if square.p[w] not in square.f or square.q[w] not in square.g:
            raise MalformedData(f"apex element {w!r} maps outside the cospan feet")
        if square.f[square.p[w]] != square.g[square.q[w]]:
            return False
    fiber = set(_fiber(square.f, square.g, square.f, square.g))
    canonical = {(square.p[w], square.q[w]) for w in square.p}
    return len(canonical) == len(square.p) and canonical == fiber
