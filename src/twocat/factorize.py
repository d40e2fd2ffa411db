"""The reflective and monotone-light factorizations of a 2-functor.

The reflective middle object is the fiber product of the target's
reflection unit with the reflected functor.  The monotone-light middle
object keeps the source's objects and 1-cells and carries, between each
parallel pair, the image of the source hom; this makes the first factor
surjective on homs and the second faithful by construction.
"""

from dataclasses import dataclass

from .classify import classify, is_covering, is_trivial_covering
from .core import (
    TwoCategory,
    TwoFunctor,
    TwoReflexiveGraph,
    _graph_violations,
    _preservation_violations,
    assemble_two_category,
    compose_two_functors,
    functors_equal,
    validate_two_category,
    validate_two_functor,
)
from .limits import encoder
from .reflection import _reflected_square, is_stably_vertical, is_vertical


@dataclass(frozen=True)
class MLFactorization:
    """A factorization ``f = m . e`` with class certificates for both legs."""

    e: TwoFunctor
    m: TwoFunctor
    middle: TwoCategory
    system: str
    certificates: dict


def reflective_factor(fun):
    """Factor ``fun`` through the fiber product of the unit at its target.

    The second leg is the projection of that fiber product, the first the
    canonical comparison; their classes are the inverted-by-reflection
    morphisms and the trivial coverings.
    """
    square, e = _reflected_square(fun)
    return _certified("reflective", e, square.proj1)


def monotone_light_factor(fun):
    """Factor ``fun`` through the per-hom image of its 2-cell map.

    The middle object has the source's objects and 1-cells; between a
    parallel pair ``(h, k)`` it carries one 2-cell ``(h=>k|b)`` per target
    cell ``b`` hit by the source hom, so that the second leg stays faithful.
    Compositions are induced from the target.  An induced composite outside
    the tagged image (law-breaking input) raises :class:`LawViolation`.
    """
    src, tgt = fun.source, fun.target
    tagged = {t: (*src.two_cells[t], fun.f2[t]) for t in sorted(src.two_cells)}
    (name,) = encoder([list(dict.fromkeys(tagged.values()))], arity=3)
    cells = {n: tag for tag, n in name.items()}

    def vert(key):
        (_, k, b), (h, _, a) = cells[key[0]], cells[key[1]]
        return name.get((h, k, tgt.vert_compose.get((b, a))))

    def horiz(key):
        (hb, kb, b), (ha, ka, a) = cells[key[0]], cells[key[1]]
        composite = tgt.horiz_compose.get((b, a))
        return name.get((src.one_compose[(hb, ha)], src.one_compose[(kb, ka)], composite))

    graph = TwoReflexiveGraph(
        objects=src.objects,
        one_cells=dict(src.one_cells),
        one_identity=dict(src.one_identity),
        two_cells={n: (h, k) for n, (h, k, _) in cells.items()},
        two_identity={
            h: name[(h, h, fun.f2[src.two_identity[h]])] for h in src.one_cells
        },
    )
    middle = assemble_two_category(graph, src.one_compose.get, vert, horiz)
    e = TwoFunctor(
        source=src,
        target=middle,
        f0={x: x for x in src.objects},
        f1={u: u for u in src.one_cells},
        f2={t: name[tagged[t]] for t in src.two_cells},
    )
    m = TwoFunctor(
        source=middle,
        target=tgt,
        f0=dict(fun.f0),
        f1=dict(fun.f1),
        f2={n: b for n, (_, _, b) in cells.items()},
    )
    return _certified("monotone_light", e, m)


def _certified(system, e, m):
    """The factorization ``m . e`` of ``system`` through ``e.target``, with
    the :func:`classify` report of each leg as its certificate."""
    return MLFactorization(e, m, e.target, system, {"e": classify(e), "m": classify(m)})


def verify_factorization(fun, fac):
    """Violations of ``fac`` as a factorization of ``fun`` (empty = valid).

    A leg with a dangling map entry, and a middle object or a first
    factor's source that is not well formed, raise :class:`MalformedData`.
    The middle object is checked for well-formedness once, by its law
    report, which covers the second factor's source.
    """
    return _factorization_violations(fun, fac, certified=False)


def _factorization_violations(fun, fac, certified):
    """The violations of :func:`verify_factorization`.  A ``certified``
    ``fac`` was built from ``fun``, whose ends are well formed: they are
    not checked again, and the legs' classes are read from their
    certificates.  The middle object's carriers are checked once, by its
    law report."""
    bad = []
    if fac.e.source != fun.source:
        bad.append("first factor does not start at the source")
    if fac.m.target != fun.target:
        bad.append("second factor does not end at the target")
    if fac.e.target != fac.middle or fac.m.source != fac.middle:
        bad.append("factors do not meet in the middle object")
        return bad
    if not functors_equal(compose_two_functors(fac.m, fac.e), fun):
        bad.append("the two factors do not compose to the original functor")
    if not validate_two_category(fac.middle).all_pass:
        bad.append("the middle object is not a 2-category")
    for name, violations in (
        ("first factor", _preservation_violations(fac.e, *_graph_violations(fac.e, ()))
         if certified else validate_two_functor(fac.e)),
        # the second factor's source is the middle object, checked above
        ("second factor", _preservation_violations(
            fac.m, *_graph_violations(fac.m, () if certified else (fac.m.target,)))),
    ):
        if violations:
            bad.append(f"{name} is not a 2-functor: {violations[0]}")

    def holds(leg, name, predicate):
        return getattr(fac.certificates[leg], name) if certified else predicate(getattr(fac, leg))

    if fac.system == "reflective":
        if not holds("e", "vertical", is_vertical):
            bad.append("first factor is not inverted by the reflection")
        if not holds("m", "trivial_covering", is_trivial_covering):
            bad.append("second factor is not a trivial covering")
    elif fac.system == "monotone_light":
        if not holds("e", "stably_vertical", is_stably_vertical):
            bad.append("first factor is not stably vertical")
        if not holds("m", "covering", is_covering):
            bad.append("second factor is not a covering")
    else:
        bad.append(f"unknown factorization system tag {fac.system!r}")
    return bad
