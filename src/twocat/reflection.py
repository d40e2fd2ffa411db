"""Collapse of parallel 2-cells onto 2-preorders, and what it preserves.

The reflected structure keeps objects and 1-cells and identifies all
2-cells sharing their vertical boundary pair.  The unit is the quotient map
on 2-cells; its underlying graph morphism is bijective on objects and
1-cells and surjective on 2-cells (the ground-structure class checked by
:func:`in_class_E`).

The classes the reflection defines start here: :func:`is_vertical` (the
functors it inverts) and :func:`is_stably_vertical` (their pullback-stable
part).  The checks of semi-left-exactness and of stable units decide the
paper's claims with them: the first pulls the unit back along every probe
from ``T`` of :mod:`.limits`, and the second asks whether each unit is
stably vertical, with no pullback or probe.
"""

from dataclasses import dataclass, replace

from .core import (
    TwoCategory,
    TwoFunctor,
    TwoReflexiveGraph,
    _bijectivity_witness,
    _by_ends,
    _graph_violations,
    check_well_formed,
    enumerate_two_functors,
    is_two_preorder,
)
from .errors import LawViolation, MismatchedTarget
from .limits import make_T, pair_into_pullback, pullback


@dataclass(frozen=True)
class ReflectionResult:
    """Reflected 2-preorder, quotient unit, and the collapse fibers."""

    reflected: TwoCategory
    unit: TwoFunctor
    fibers: dict


def reflect(cat):
    """Identify all 2-cells of ``cat`` with the same vertical boundary pair.

    The class of a boundary pair is named after its least member, the
    induced tables are computed from representatives (the result is
    representative-independent because a class is determined by its
    boundary), and ``fibers`` records the partition of the original
    2-cells.  Law-breaking input on which the induced tables are not
    well defined raises :class:`LawViolation`.

    A 2-preorder reflects to itself: its classes are singletons, so the
    result is a copy of ``cat`` sharing its carriers and tables, the unit
    is the identity and each 2-cell is its own fiber; no boundary is
    indexed.
    """
    if is_two_preorder(cat):
        reflected = replace(cat)
        maps = ({x: x for x in cells} for cells in (cat.objects, cat.one_cells, cat.two_cells))
        fibers = {t: frozenset((t,)) for t in cat.two_cells}
        return ReflectionResult(reflected, TwoFunctor(cat, reflected, *maps), fibers)
    classes = _by_ends(cat.two_cells)
    name_of = {boundary: members[0] for boundary, members in classes.items()}
    f2 = {t: name_of[boundary] for t, boundary in cat.two_cells.items()}
    cls = f2.__getitem__
    reflected = TwoCategory(
        objects=cat.objects,
        one_cells=dict(cat.one_cells),
        one_identity=dict(cat.one_identity),
        one_compose=dict(cat.one_compose),
        two_cells={name: boundary for boundary, name in name_of.items()},
        two_identity={h: cls(t) for h, t in cat.two_identity.items()},
        vert_compose=_induced(cat.vert_compose, cls),
        horiz_compose=_induced(cat.horiz_compose, cls),
    )
    unit = TwoFunctor(
        source=cat,
        target=reflected,
        f0={x: x for x in cat.objects},
        f1={u: u for u in cat.one_cells},
        f2=f2,
    )
    fibers = {
        name_of[boundary]: frozenset(members)
        for boundary, members in classes.items()
    }
    return ReflectionResult(reflected=reflected, unit=unit, fibers=fibers)


def _induced(table, cls):
    """``table`` read on classes.

    Two composites over one pair of classes that land in different classes
    break the boundary law; :class:`LawViolation` names the least pair that
    disagrees with a smaller one.
    """
    out = {}
    for (b, a), v in table.items():
        value = cls(v)
        if out.setdefault((cls(b), cls(a)), value) != value:
            break
    else:
        return out
    # rescan in identifier order to report the least conflict
    first = {}
    for (b, a), v in sorted(table.items()):
        if first.setdefault((cls(b), cls(a)), cls(v)) != cls(v):
            raise LawViolation("boundary", (b, a))


def reflect_functor(fun):
    """The induced functor between the reflections of source and target."""
    return _induced_functor(fun, reflect(fun.source), reflect(fun.target))


def _induced_functor(fun, src, tgt):
    """``fun`` read between the reflections ``src`` and ``tgt`` of its ends,
    each class at the member it is named after, not at a hash-ordered one."""
    f2 = {name: tgt.unit.f2[fun.f2[name]] for name in src.fibers}
    return TwoFunctor(src.reflected, tgt.reflected, dict(fun.f0), dict(fun.f1), f2)


def _reflected_square(fun):
    """The target's unit pulled back along the reflected ``fun``.

    Returns the square and the comparison into it from ``fun.source``.
    Each end is reflected once, the target first.
    """
    tgt, src = reflect(fun.target), reflect(fun.source)
    square = pullback(tgt.unit, _induced_functor(fun, src, tgt))
    return square, pair_into_pullback(square, fun, src.unit)


def underlying_two_graph(cat):
    """Forget the composition tables."""
    return TwoReflexiveGraph(
        objects=cat.objects,
        one_cells=dict(cat.one_cells),
        one_identity=dict(cat.one_identity),
        two_cells=dict(cat.two_cells),
        two_identity=dict(cat.two_identity),
    )


def underlying_graph_morphism(fun):
    """``fun`` as a :class:`TwoFunctor` between the underlying 2-graphs."""
    ends = underlying_two_graph(fun.source), underlying_two_graph(fun.target)
    return TwoFunctor(*ends, *map(dict, (fun.f0, fun.f1, fun.f2)))


def validate_graph_morphism(mor):
    """Violated boundary/identity equations of a graph morphism (empty = valid).

    The graph half of :func:`validate_two_functor`, in its order and words;
    a dangling map entry raises :class:`MalformedData`.
    """
    ones, twos = _graph_violations(mor)
    return ones + twos


def in_class_E(mor):
    """Bijective on objects and 1-cells, surjective on 2-cells."""
    return _bijective_below(mor, None) and set(mor.f2.values()) == set(mor.target.two_cells)


def connected_component(cat, mu):
    """Pullback of the reflection unit of ``cat`` along a probe into it."""
    return _component(reflect(cat).unit, mu)


def _component(unit, mu):
    """Pullback of a reflection ``unit`` along a probe into its target."""
    if mu.target != unit.target:
        raise MismatchedTarget("the probe must end in the reflection of the 2-category")
    return pullback(unit, mu)


def _bijective_below(fun, witness):
    """Whether ``f0`` and ``f1`` are bijections, else the least witness goes to ``witness``."""
    for mapping, codomain in ((fun.f0, fun.target.objects), (fun.f1, fun.target.one_cells)):
        bad = _bijectivity_witness(mapping, codomain)
        if bad is not None:
            return _refuted(witness, bad)
    return True


def _refuted(witness, found):
    """A refuting verdict: ``found`` goes to ``witness`` when one is kept, and False."""
    if witness is not None:
        witness.append(found)
    return False


def _pulled_back_homs(fun):
    """The target's nonempty vertical homs over source 1-cells, least first:
    the walk for a failing vertical verdict's witness, ``f1`` a bijection."""
    inverse = {v: u for u, v in fun.f1.items()}
    homs = _by_ends(fun.target.two_cells)
    return sorted(((inverse[h], inverse[k]), b) for (h, k), b in homs.items())


def is_vertical(fun, witness=None):
    """Bijective below 2-cells and reflecting nonemptiness of vertical homs:
    through ``f1``, the source's boundaries hold every target boundary."""
    if not _bijective_below(fun, witness):
        return False
    get = fun.f1.get
    pairs = {(get(h), get(k)) for h, k in fun.source.two_cells.values()}
    if pairs.issuperset(fun.target.two_cells.values()):
        return True
    boundaries = set(fun.source.two_cells.values())
    for pair, _cells in _pulled_back_homs(fun):
        if pair not in boundaries:
            return _refuted(witness, pair)
    return True


def is_stably_vertical(fun, witness=None):
    """Bijective below 2-cells and surjective on every vertical hom: through
    ``f1`` and a total ``f2``, the source's cells hold each target cell."""
    if not _bijective_below(fun, witness):
        return False
    get, f2, src = fun.f1.get, fun.f2, fun.source
    if src.two_cells.keys() <= f2.keys() and {
        (get(h), get(k), f2[t]) for t, (h, k) in src.two_cells.items()
    }.issuperset((h, k, b) for b, (h, k) in fun.target.two_cells.items()):
        return True
    homs = _by_ends(src.two_cells)
    for (h, k), cells in _pulled_back_homs(fun):
        image = {f2[t] for t in homs.get((h, k), ())}
        for b in cells:
            if b not in image:
                return _refuted(witness, (h, k, b))
    return True


def check_semi_left_exact(cat):
    """Whether every connected component of ``cat`` reflects onto the probe.

    Enumerates every functor from the two-object single-2-cell probe into
    the reflection of ``cat``; the component over it reflects onto the
    probe exactly when its projection onto the probe is vertical (the
    reflection of that projection is then a levelwise bijection).  ``cat``
    is checked for well-formedness and reflected once, and each component
    is built with the unit as the second leg, so the unit is indexed once.
    """
    check_well_formed(cat)
    unit = reflect(cat).unit
    return all(
        is_vertical(pullback(mu, unit).proj1)
        for mu in enumerate_two_functors(make_T(), unit.target)
    )


def check_stable_units(cat, other):
    """Whether the reflection units of two 2-categories are stably vertical.

    Units are stable when every pullback of a unit is inverted by the
    reflection, that is, when the unit is stably vertical; and
    :func:`is_stably_vertical` decides that as bijective below 2-cells and
    onto every vertical hom.  Each input object, even if passed twice, is
    checked for well-formedness and reflected once before either verdict,
    so a law-breaking second input still raises, and each unit is asked once.
    """
    inputs = (cat,) if other is cat else (cat, other)
    for x in inputs:
        check_well_formed(x)
    units = [reflect(x).unit for x in inputs]
    return all(map(is_stably_vertical, units))
