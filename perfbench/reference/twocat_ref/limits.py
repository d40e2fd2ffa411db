"""Pointwise finite limits: pullbacks, binary products, the terminal object.

Apex cells are canonical pair encodings ``(x|y)`` of the input identifiers,
so results are deterministic and counterexamples stay readable.  The same
componentwise construction serves both law-abiding inputs and relaxed
structures; only the expectations on the result differ.
"""

from dataclasses import dataclass

from .core import TwoCategory, TwoFunctor
from .errors import MalformedData, MismatchedTarget


@dataclass(frozen=True)
class PullbackResult:
    apex: TwoCategory
    proj1: TwoFunctor
    proj2: TwoFunctor


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


def _pair(x, y):
    return f"({x}|{y})"


def pullback(f, g):
    """Componentwise fiber product of two 2-functors with a common target.

    The apex pairs cells of ``f.source`` with cells of ``g.source`` that
    agree in the target, with all tables computed componentwise; for valid
    inputs the apex is again a 2-category.
    """
    if f.target != g.target:
        raise MismatchedTarget("pullback needs morphisms into the same 2-category")
    a, c = f.source, g.source

    objects = []
    obj_pairs = {}
    for x in sorted(a.objects):
        for y in sorted(c.objects):
            if f.f0[x] == g.f0[y]:
                name = _pair(x, y)
                objects.append(name)
                obj_pairs[name] = (x, y)

    one_cells = {}
    one_pairs = {}
    for u in sorted(a.one_cells):
        for w in sorted(c.one_cells):
            if f.f1[u] == g.f1[w]:
                name = _pair(u, w)
                one_cells[name] = (_pair(a.dom(u), c.dom(w)), _pair(a.cod(u), c.cod(w)))
                one_pairs[name] = (u, w)

    two_cells = {}
    two_pairs = {}
    for s in sorted(a.two_cells):
        for t in sorted(c.two_cells):
            if f.f2[s] == g.f2[t]:
                name = _pair(s, t)
                two_cells[name] = (_pair(a.vdom(s), c.vdom(t)), _pair(a.vcod(s), c.vcod(t)))
                two_pairs[name] = (s, t)

    one_identity = {
        name: _pair(a.one_identity[x], c.one_identity[y])
        for name, (x, y) in obj_pairs.items()
    }
    two_identity = {
        name: _pair(a.two_identity[u], c.two_identity[w])
        for name, (u, w) in one_pairs.items()
    }

    apex = TwoCategory(
        objects=frozenset(objects),
        one_cells=one_cells,
        one_identity=one_identity,
        one_compose={},
        two_cells=two_cells,
        two_identity=two_identity,
        vert_compose={},
        horiz_compose={},
    )
    one_compose = {
        (gg, ff): _pair(
            a.one_compose[(one_pairs[gg][0], one_pairs[ff][0])],
            c.one_compose[(one_pairs[gg][1], one_pairs[ff][1])],
        )
        for gg, ff in apex.one_pairs()
    }
    vert_compose = {
        (b, x): _pair(
            a.vert_compose[(two_pairs[b][0], two_pairs[x][0])],
            c.vert_compose[(two_pairs[b][1], two_pairs[x][1])],
        )
        for b, x in apex.vert_pairs()
    }
    horiz_compose = {
        (b, x): _pair(
            a.horiz_compose[(two_pairs[b][0], two_pairs[x][0])],
            c.horiz_compose[(two_pairs[b][1], two_pairs[x][1])],
        )
        for b, x in apex.horiz_pairs()
    }
    apex = TwoCategory(
        objects=frozenset(objects),
        one_cells=one_cells,
        one_identity=one_identity,
        one_compose=one_compose,
        two_cells=two_cells,
        two_identity=two_identity,
        vert_compose=vert_compose,
        horiz_compose=horiz_compose,
    )

    proj1 = TwoFunctor(
        source=apex,
        target=a,
        f0={name: pair[0] for name, pair in obj_pairs.items()},
        f1={name: pair[0] for name, pair in one_pairs.items()},
        f2={name: pair[0] for name, pair in two_pairs.items()},
    )
    proj2 = TwoFunctor(
        source=apex,
        target=c,
        f0={name: pair[1] for name, pair in obj_pairs.items()},
        f1={name: pair[1] for name, pair in one_pairs.items()},
        f2={name: pair[1] for name, pair in two_pairs.items()},
    )
    return PullbackResult(apex=apex, proj1=proj1, proj2=proj2)


def relaxed_pullback(f, g):
    """Componentwise fiber product for structure-map-preserving morphisms.

    No law is assumed or promised: the caller inspects the apex with an
    axiom report afterwards.
    """
    return pullback(f, g)


def pair_into_pullback(result, u, w):
    """The mediating functor of a commuting cone ``(u, w)`` over a pullback."""
    if u.source != w.source:
        raise MismatchedTarget("cone legs must share their source")
    return TwoFunctor(
        source=u.source,
        target=result.apex,
        f0={x: _pair(u.f0[x], w.f0[x]) for x in u.source.objects},
        f1={c: _pair(u.f1[c], w.f1[c]) for c in u.source.one_cells},
        f2={t: _pair(u.f2[t], w.f2[t]) for t in u.source.two_cells},
    )


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
    fiber = {
        (x, y)
        for x in square.f
        for y in square.g
        if square.f[x] == square.g[y]
    }
    canonical = {(square.p[w], square.q[w]) for w in square.p}
    return len(canonical) == len(square.p) and canonical == fiber
