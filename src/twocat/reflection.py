"""Collapse of parallel 2-cells onto 2-preorders, and what it preserves.

The reflected structure keeps objects and 1-cells and identifies all
2-cells sharing their vertical boundary pair.  The unit is the quotient map
on 2-cells; its underlying graph morphism is bijective on objects and
1-cells and surjective on 2-cells (the ground-structure class checked by
:func:`in_class_E`).
"""

from dataclasses import dataclass

from .core import (
    DEFAULT_CAPS,
    TwoCategory,
    TwoFunctor,
    TwoReflexiveGraph,
    _bijectivity_witness,
    find_isomorphism,
)
from .errors import LawViolation, MismatchedTarget
from .limits import fiber_product, projections, pullback


@dataclass(frozen=True)
class GraphMorphism:
    source: TwoReflexiveGraph
    target: TwoReflexiveGraph
    g0: dict
    g1: dict
    g2: dict


@dataclass(frozen=True)
class ReflectionResult:
    """Reflected 2-preorder, quotient unit, and the collapse fibers."""

    reflected: TwoCategory
    unit: TwoFunctor
    fibers: dict


def is_two_preorder(cat):
    """Whether no two distinct 2-cells share both vertical boundaries."""
    seen = set()
    for t in cat.two_cells:
        boundary = cat.two_cells[t]
        if boundary in seen:
            return False
        seen.add(boundary)
    return True


def reflect(cat):
    """Identify all 2-cells of ``cat`` with the same vertical boundary pair.

    The class of a boundary pair is named after its least member, the
    induced tables are computed from representatives (the result is
    representative-independent because a class is determined by its
    boundary), and ``fibers`` records the partition of the original
    2-cells.  Law-breaking input on which the induced tables are not
    well defined raises :class:`LawViolation`.
    """
    classes = {}
    for t in sorted(cat.two_cells):
        classes.setdefault(cat.two_cells[t], []).append(t)
    name_of = {boundary: members[0] for boundary, members in classes.items()}

    def cls(t):
        return name_of[cat.two_cells[t]]

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
        f2={t: cls(t) for t in cat.two_cells},
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
    src = reflect(fun.source)
    tgt = reflect(fun.target)
    f2 = {}
    for name, members in src.fibers.items():
        f2[name] = tgt.unit.f2[fun.f2[next(iter(members))]]
    return TwoFunctor(
        source=src.reflected,
        target=tgt.reflected,
        f0=dict(fun.f0),
        f1=dict(fun.f1),
        f2=f2,
    )


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
    return GraphMorphism(
        source=underlying_two_graph(fun.source),
        target=underlying_two_graph(fun.target),
        g0=dict(fun.f0),
        g1=dict(fun.f1),
        g2=dict(fun.f2),
    )


def validate_graph_morphism(mor):
    """Violated boundary/identity equations of a graph morphism (empty = valid)."""
    src, tgt = mor.source, mor.target
    bad = []
    for u in sorted(src.one_cells):
        d, c = src.one_cells[u]
        if tgt.one_cells[mor.g1[u]] != (mor.g0[d], mor.g0[c]):
            bad.append(f"1-cell boundary not preserved at {u!r}")
    for x in sorted(src.objects):
        if mor.g1[src.one_identity[x]] != tgt.one_identity[mor.g0[x]]:
            bad.append(f"identity 1-cell not preserved at {x!r}")
    for t in sorted(src.two_cells):
        vd, vc = src.two_cells[t]
        if tgt.two_cells[mor.g2[t]] != (mor.g1[vd], mor.g1[vc]):
            bad.append(f"2-cell boundary not preserved at {t!r}")
    for h in sorted(src.one_cells):
        if mor.g2[src.two_identity[h]] != tgt.two_identity[mor.g1[h]]:
            bad.append(f"identity 2-cell not preserved at {h!r}")
    return bad


def in_class_E(mor):
    """Bijective on objects and 1-cells, surjective on 2-cells."""
    return (
        _bijectivity_witness(mor.g0, mor.target.objects) is None
        and _bijectivity_witness(mor.g1, mor.target.one_cells) is None
        and set(mor.g2.values()) == set(mor.target.two_cells)
    )


def graph_pullback(f, g):
    """Componentwise fiber product of graph morphisms with a common target."""
    if f.target != g.target:
        raise MismatchedTarget("graph pullback needs a common target")
    apex, pairs, _ = fiber_product(f.source, g.source, (f.g0, f.g1, f.g2), (g.g0, g.g1, g.g2))
    proj1 = GraphMorphism(apex, f.source, *projections(pairs, 0))
    proj2 = GraphMorphism(apex, g.source, *projections(pairs, 1))
    return apex, proj1, proj2


def connected_component(cat, mu):
    """Pullback of the reflection unit of ``cat`` along a probe into it."""
    unit = reflect(cat).unit
    if mu.target != unit.target:
        raise MismatchedTarget("the probe must end in the reflection of the 2-category")
    return pullback(unit, mu)


def _probe_object():
    from .gallery import make_T

    return make_T()


def check_semi_left_exact(cat, caps=DEFAULT_CAPS):
    """Whether every connected component of ``cat`` reflects onto the probe.

    Enumerates every functor from the two-object single-2-cell probe into
    the reflection of ``cat`` and tests that the component over it has a
    reflection isomorphic to the probe.
    """
    from .core import enumerate_two_functors

    probe = _probe_object()
    reflected = reflect(cat).reflected
    for mu in enumerate_two_functors(probe, reflected):
        component = connected_component(cat, mu).apex
        if find_isomorphism(reflect(component).reflected, probe, caps) is None:
            return False
    return True


def check_stable_units(cat, other, caps=DEFAULT_CAPS):
    """Whether paired connected components of two 2-categories stay connected.

    For every pair of probes, the fiber product of the two components over
    the probe must again reflect onto the probe.
    """
    from .core import enumerate_two_functors

    probe = _probe_object()
    reflected_c = reflect(cat).reflected
    reflected_d = reflect(other).reflected
    probes_c = list(enumerate_two_functors(probe, reflected_c))
    probes_d = list(enumerate_two_functors(probe, reflected_d))
    for mu in probes_c:
        c_mu = connected_component(cat, mu)
        for nu in probes_d:
            d_nu = connected_component(other, nu)
            mixed = pullback(c_mu.proj2, d_nu.proj2).apex
            if find_isomorphism(reflect(mixed).reflected, probe, caps) is None:
                return False
    return True
