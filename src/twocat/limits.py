"""Pointwise finite limits: pullbacks, binary products, the terminal object,
and the probe family ``T_n``, whose ``T = T_1`` is the probe that
:func:`~twocat.reflection.check_semi_left_exact` pulls back along.

Every fiber product starts from the apex pairs of :func:`fiber_product`.
:func:`pullback` and :func:`graph_pullback` name each apex cell by the
canonical pair encoding ``(x|y)`` of the input identifiers (escaped where
plain names would collide, see :func:`encoder`), so results are
deterministic and counterexamples stay readable; callers that only count
or compare apex cells keep them as pairs.  The same componentwise
construction serves both law-abiding inputs and relaxed structures; only
the expectations on the result differ.
"""

import re
from dataclasses import dataclass

from .core import _TABLES, TwoCategory, TwoFunctor, TwoReflexiveGraph, build_two_category
from .errors import LawViolation, MalformedData, MismatchedTarget


@dataclass(frozen=True)
class PullbackResult:
    apex: TwoCategory
    proj1: TwoFunctor
    proj2: TwoFunctor
    names: list  # per level, the apex cell over each pair


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

    Returns, per level, a map from each tuple to its name.  Parts render as
    they are unless that gives two tuples of one level the same name; then
    every name is encoded again with ``\\``, ``(``, ``)``, ``|`` and ``=>``
    backslash-escaped inside each part, which is injective.
    """
    plain = _PLAIN[arity]

    def escaped(*parts):
        return plain(*(_DELIMITER.sub(r"\\\g<0>", str(p)) for p in parts))

    for encode in (plain, escaped):
        named = [{cells: encode(*cells) for cells in level} for level in levels]
        if all(len(set(names.values())) == len(names) for names in named):
            break
    return named


def fiber_product(f, g):
    """The apex pairs of the fiber product of the carrier maps of ``f`` and ``g``.

    The sources are 2-reflexive graphs or 2-categories.  Returns, per
    level, the pairs ``(x, y)`` of cells that ``f`` and ``g`` send to one
    cell, in identifier order of ``x``, then ``y``.  The cells of ``f`` are
    walked and matched in the cached index by image of ``g``, so a second
    leg that is pulled back against many partners is indexed once.
    """
    a = f.source
    return [
        [(x, y) for x in sorted(xs) for y in index.get(m[x], ())]
        for xs, m, index in zip((a.objects, a.one_cells, a.two_cells), (f.f0, f.f1, f.f2),
                                g._by_image)
    ]


def _apex(f, g, names):
    """The apex carriers over the fiber pairs of ``f`` and ``g``, as keyword
    arguments of :class:`TwoReflexiveGraph`, each cell named by ``names``,
    per level a map from each pair to its name.  Legs that break boundaries,
    or sources whose identity maps are not total, can put the boundary or
    identity pair of an apex cell outside the fiber; then
    :class:`MalformedData` names the least such cell by its :func:`encoder`
    name, whatever ``names`` are.
    """
    a, c = f.source, g.source
    objs, ones, twos = names
    try:
        one_identity = {n: ones[a.one_identity[x], c.one_identity[y]] for (x, y), n in objs.items()}
        one_cells, two_identity, two_cells = {}, {}, {}
        for (u, w), n in ones.items():
            (du, cu), (dw, cw) = a.one_cells[u], c.one_cells[w]
            one_cells[n] = (objs[du, dw], objs[cu, cw])
            two_identity[n] = twos[a.two_identity[u], c.two_identity[w]]
        for (s, t), n in twos.items():
            (ds, cs), (dt, ct) = a.two_cells[s], c.two_cells[t]
            two_cells[n] = (ones[ds, dt], ones[cs, ct])
    except KeyError:
        objs, ones, twos = names = encoder(names)
        # per level, the pairs of an apex cell's boundary and identity, by
        # index; a missing identity makes a pair outside the fiber
        needs = (
            lambda x, y: [(ones, (a.one_identity.get(x), c.one_identity.get(y)))],
            lambda u, w: [*((objs, p) for p in zip(a.one_cells[u], c.one_cells[w])),
                          (twos, (a.two_identity.get(u), c.two_identity.get(w)))],
            lambda s, t: [(ones, p) for p in zip(a.two_cells[s], c.two_cells[t])],
        )
        least = min(
            n for level, need in zip(names, needs) for (x, y), n in level.items()
            if any(p not in index for index, p in need(x, y))
        )
        raise MalformedData(
            f"the boundary or identity of apex cell {least!r} is outside the fiber"
        ) from None
    return dict(objects=objs.values(), one_cells=one_cells, one_identity=one_identity,
                two_cells=two_cells, two_identity=two_identity)


def _pair_apex(f, g):
    """The apex carriers of :func:`_apex` with each cell named by its own
    pair, and those per-level pair maps: no name is built."""
    names = [dict(zip(level, level)) for level in fiber_product(f, g)]
    return _apex(f, g, names), names


def _pair_boundaries(f, g):
    """Per apex 2-cell ``(s, t)`` of :func:`fiber_product`, the boundaries
    of ``s`` and ``t``: for legs that keep boundaries and identities, the
    apex boundary of :func:`_pair_apex` with its parts regrouped."""
    a2, c2 = f.source.two_cells, g.source.two_cells
    return [(a2[s], c2[t]) for s, t in fiber_product(f, g)[2]]


def _join(f, g, k, names):
    """Table ``k`` of the apex (compose1, vcompose, hcompose): a row per
    pair of the legs' rows whose ``(g, f)`` images agree, in the first
    leg's row order, then the second's.  The rows of ``f`` are walked and
    matched in the cached index of ``g``.  A composite outside the fiber
    breaks the boundary law, and :class:`LawViolation` names the least
    such apex pair.
    """
    index, m = g._rows_by_image[k], (f.f1, f.f2, f.f2)[k]
    table = {
        (names[ga, gc], names[fa, fc]): names.get((va, vc))
        for (ga, fa), va in getattr(f.source, _TABLES[k]).items()
        for gc, fc, vc in index.get((m[ga], m[fa]), ())
    }
    if None in table.values():
        raise LawViolation("boundary", min(key for key, v in table.items() if v is None))
    return table


def projections(names, side):
    """The carrier maps of one projection out of a fiber product's pair names."""
    return [{n: pair[side] for pair, n in level.items()} for level in names]


def pullback(f, g):
    """Componentwise fiber product of two 2-functors with a common target.

    The apex pairs cells of ``f.source`` with cells of ``g.source`` that
    agree in the target, with all tables computed componentwise; for valid
    inputs the apex is again a 2-category.
    """
    if f.target != g.target:
        raise MismatchedTarget("pullback needs morphisms into the same 2-category")
    names = encoder(fiber_product(f, g))
    apex = TwoCategory(
        **_apex(f, g, names),
        one_compose=_join(f, g, 0, names[1]),
        vert_compose=_join(f, g, 1, names[2]),
        horiz_compose=_join(f, g, 2, names[2]),
    )
    return PullbackResult(
        apex,
        TwoFunctor(apex, f.source, *projections(names, 0)),
        TwoFunctor(apex, g.source, *projections(names, 1)),
        names,
    )


def graph_pullback(f, g):
    """Componentwise fiber product of graph morphisms with a common target.

    The apex carriers and projections of :func:`pullback`, from the same
    :func:`fiber_product`, without the composition tables: the apex is a
    :class:`TwoReflexiveGraph`.
    """
    if f.target != g.target:
        raise MismatchedTarget("graph pullback needs a common target")
    names = encoder(fiber_product(f, g))
    apex = TwoReflexiveGraph(**_apex(f, g, names))
    proj1 = TwoFunctor(apex, f.source, *projections(names, 0))
    proj2 = TwoFunctor(apex, g.source, *projections(names, 1))
    return apex, proj1, proj2


def pair_into_pullback(result, u, w):
    """The mediating functor of a commuting cone ``(u, w)`` over a pullback."""
    if u.source != w.source:
        raise MismatchedTarget("cone legs must share their source")
    return TwoFunctor(u.source, result.apex, *_cone(result.names, u, w))


def _cone(names, u, w):
    """Per level, the map from each cell ``x`` of the cone's source to the
    apex cell that ``names`` gives the pair ``(u x, w x)``.  A pair outside
    the fiber raises :class:`MismatchedTarget`."""
    src = u.source
    try:
        return [
            {x: level[um[x], wm[x]] for x in carrier}
            for level, carrier, um, wm in zip(
                names,
                (src.objects, src.one_cells, src.two_cells),
                (u.f0, u.f1, u.f2),
                (w.f0, w.f1, w.f2),
            )
        ]
    except KeyError as exc:
        raise MismatchedTarget(f"the cone does not commute at {exc}") from None


def terminal():
    """The one-object, one-1-cell, one-2-cell 2-category."""
    return build_two_category(("pt",), {}, {})


def make_Tn(n):
    """Two objects, two parallel non-identity arrows, n parallel 2-cells."""
    if n < 0:
        raise MalformedData("the number of parallel 2-cells must be >= 0")
    return build_two_category(
        objects=("a", "b"),
        one_cells={"h": ("a", "b"), "h'": ("a", "b")},
        two_cells={f"t{i}": ("h", "h'") for i in range(1, n + 1)},
    )


def make_T():
    """The probe 2-preorder: one non-identity 2-cell between parallel arrows."""
    return make_Tn(1)


def terminal_functor(cat):
    """The unique functor into the terminal 2-category."""
    return TwoFunctor(
        source=cat,
        target=terminal(),
        f0={x: "pt" for x in cat.objects},
        f1={u: "id:pt" for u in cat.one_cells},
        f2={t: "vid:id:pt" for t in cat.two_cells},
    )


def product(a, b):
    """Binary product, computed as the pullback over the terminal object."""
    return pullback(terminal_functor(a), terminal_functor(b))


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
    by_image = {}
    for y, z in square.g.items():
        by_image.setdefault(z, []).append(y)
    fiber = {(x, y) for x, z in square.f.items() for y in by_image.get(z, ())}
    canonical = {(square.p[w], square.q[w]) for w in square.p}
    return len(canonical) == len(square.p) and canonical == fiber
