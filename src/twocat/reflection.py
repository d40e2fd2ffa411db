"""Collapse of parallel 2-cells onto 2-preorders, and what it preserves.

The reflected structure keeps objects and 1-cells and identifies all
2-cells sharing their vertical boundary pair.  The unit is the quotient map
on 2-cells; its underlying graph morphism is bijective on objects and
1-cells and surjective on 2-cells (the ground-structure class checked by
:func:`in_class_E`).
"""

from dataclasses import dataclass

from .core import (
    TwoCategory,
    TwoFunctor,
    TwoReflexiveGraph,
    _bijectivity_witness,
    _graph_violations,
    check_well_formed,
    enumerate_two_functors,
)
from .errors import LawViolation, MismatchedTarget
from .limits import pair_into_pullback, pullback


@dataclass(frozen=True)
class ReflectionResult:
    """Reflected 2-preorder, quotient unit, and the collapse fibers."""

    reflected: TwoCategory
    unit: TwoFunctor
    fibers: dict


def is_two_preorder(cat):
    """Whether no two distinct 2-cells share both vertical boundaries."""
    return len(set(cat.two_cells.values())) == len(cat.two_cells)


def reflect(cat):
    """Identify all 2-cells of ``cat`` with the same vertical boundary pair.

    The class of a boundary pair is named after its least member, the
    induced tables are computed from representatives (the result is
    representative-independent because a class is determined by its
    boundary), and ``fibers`` records the partition of the original
    2-cells.  Law-breaking input on which the induced tables are not
    well defined raises :class:`LawViolation`.
    """
    classes = cat._hom_index
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
    return (
        _bijectivity_witness(mor.f0, mor.target.objects) is None
        and _bijectivity_witness(mor.f1, mor.target.one_cells) is None
        and set(mor.f2.values()) == set(mor.target.two_cells)
    )


def connected_component(cat, mu):
    """Pullback of the reflection unit of ``cat`` along a probe into it."""
    return _component(reflect(cat).unit, mu)


def _component(unit, mu):
    """Pullback of a reflection ``unit`` along a probe into its target."""
    if mu.target != unit.target:
        raise MismatchedTarget("the probe must end in the reflection of the 2-category")
    return pullback(unit, mu)


def _probe_object():
    from .gallery import make_T

    return make_T()


def check_semi_left_exact(cat):
    """Whether every connected component of ``cat`` reflects onto the probe.

    Enumerates every functor from the two-object single-2-cell probe into
    the reflection of ``cat``; the component over it reflects onto the
    probe exactly when its projection onto the probe is vertical (the
    reflection of that projection is then a levelwise bijection).  ``cat``
    is checked for well-formedness and reflected once, and each component
    is built with the unit as the second leg, so the unit is indexed once.
    """
    from .classify import is_vertical

    probe = _probe_object()
    check_well_formed(cat)
    unit = reflect(cat).unit
    return all(
        is_vertical(pullback(mu, unit).proj1)
        for mu in enumerate_two_functors(probe, unit.target)
    )


def check_stable_units(cat, other):
    """Whether the reflection units of two 2-categories are stably vertical.

    Units are stable when every pullback of a unit is inverted by the
    reflection, that is, when the unit is stably vertical; and
    :func:`is_stably_vertical` decides that as bijective below 2-cells and
    onto every vertical hom.  Both inputs are checked for well-formedness
    and reflected once each before either verdict, so a law-breaking
    second input still raises.
    """
    from .classify import is_stably_vertical

    for x in (cat, other):
        check_well_formed(x)
    unit_c, unit_d = reflect(cat).unit, reflect(other).unit
    return is_stably_vertical(unit_c) and is_stably_vertical(unit_d)
