"""Morphism classes of the 2-preorder reflection, with definitional oracles.

Each predicate is a direct combinatorial test on the functor's carrier
maps; the two oracles recompute trivial coverings and coverings from their
defining pullback conditions so the pair can be cross-checked on every
input.  Witnesses are the lexicographically least failing cells.  The
hom-wise predicates visit only nonempty vertical homs.
"""

from dataclasses import dataclass

from .core import _bijectivity_witness, enumerate_two_functors
from .limits import pair_into_pullback, pullback
from .reflection import reflect, reflect_functor


@dataclass(frozen=True)
class ClassificationReport:
    edm: bool
    vertical: bool
    stably_vertical: bool
    trivial_covering: bool
    covering: bool
    witnesses: dict

    def as_dict(self):
        return {
            "edm": self.edm,
            "vertical": self.vertical,
            "stably_vertical": self.stably_vertical,
            "trivial_covering": self.trivial_covering,
            "covering": self.covering,
        }


def is_edm(fun, witness=None):
    """Surjectivity on vertically and horizontally composable 2-cell triples.

    Triples range over all composable 2-cells, identities included, in
    diagrammatic order internally; a missing triple is reported outermost
    first (the last entry is applied first), prefixed with ``v`` or ``h``.
    """
    src, tgt = fun.source, fun.target
    fibers = {}
    for t in sorted(src.two_cells):
        fibers.setdefault(fun.f2[t], []).append(t)

    def lifts(chain, step_src, step_tgt, prefix=None):
        if not chain:
            return True
        for cell in fibers.get(chain[0], ()):
            if prefix is not None and step_src(cell) != prefix:
                continue
            if lifts(chain[1:], step_src, step_tgt, step_tgt(cell)):
                return True
        return False

    for kind, triples, src_start, src_end in (
        ("v", tgt.vert_triples(), src.vdom, src.vcod),
        ("h", tgt.horiz_triples(), src.hdom, src.hcod),
    ):
        best = None
        for c3, c2, c1 in triples:
            if not lifts((c1, c2, c3), src_start, src_end):
                if witness is None:
                    return False
                candidate = (c3, c2, c1)
                if best is None or candidate < best:
                    best = candidate
        if best is not None:
            witness.append((kind,) + best)
            return False
    return True


def _pulled_back_homs(fun, witness):
    """The target's nonempty vertical homs over source 1-cells, least first.

    ``None`` unless ``f0`` and ``f1`` are bijections; the least witness that
    one is not then goes to ``witness``.
    """
    for mapping, codomain in ((fun.f0, fun.target.objects), (fun.f1, fun.target.one_cells)):
        bad = _bijectivity_witness(mapping, codomain)
        if bad is not None:
            if witness is not None:
                witness.append(bad)
            return None
    inverse = {v: u for u, v in fun.f1.items()}
    return sorted(((inverse[h], inverse[k]), b) for (h, k), b in fun.target._hom_index.items())


def is_vertical(fun, witness=None):
    """Bijective below 2-cells and reflecting nonemptiness of vertical homs."""
    homs = _pulled_back_homs(fun, witness)
    if homs is None:
        return False
    for pair, _cells in homs:
        if pair not in fun.source._hom_index:
            if witness is not None:
                witness.append(pair)
            return False
    return True


def is_stably_vertical(fun, witness=None):
    """Bijective below 2-cells and surjective on every vertical hom."""
    homs = _pulled_back_homs(fun, witness)
    if homs is None:
        return False
    for (h, k), cells in homs:
        image = {fun.f2[t] for t in fun.source._hom_index.get((h, k), ())}
        for b in cells:
            if b not in image:
                if witness is not None:
                    witness.append((h, k, b))
                return False
    return True


def is_trivial_covering(fun, witness=None):
    """Bijective on every nonempty vertical hom of the source."""
    for (h, k), cells in sorted(fun.source._hom_index.items()):
        if sorted(fun.f2[t] for t in cells) != fun.target._hom_index.get((fun.f1[h], fun.f1[k])):
            if witness is not None:
                witness.append((h, k))
            return False
    return True


def is_covering(fun, witness=None):
    """Injective on every vertical hom of the source."""
    for _pair, cells in sorted(fun.source._hom_index.items()):
        seen = {}
        for t in cells:
            image = fun.f2[t]
            if image in seen:
                if witness is not None:
                    witness.append((seen[image], t))
                return False
            seen[image] = t
    return True


def trivial_covering_oracle(fun):
    """Pullback-square recomputation of the trivial-covering predicate.

    Builds the fiber product of the target's reflection unit with the
    reflected functor and asks whether the canonical comparison from the
    source is a levelwise bijection.
    """
    unit_b = reflect(fun.target).unit
    reflected_f = reflect_functor(fun)
    square = pullback(unit_b, reflected_f)
    unit_a = reflect(fun.source).unit
    comparison = pair_into_pullback(square, fun, unit_a)
    return all(
        _bijectivity_witness(mapping, codomain) is None
        for mapping, codomain in (
            (comparison.f0, square.apex.objects),
            (comparison.f1, square.apex.one_cells),
            (comparison.f2, square.apex.two_cells),
        )
    )


def covering_oracle(fun):
    """Probe recomputation of the covering predicate.

    Pulls ``fun`` back along every functor from the two-object
    single-2-cell probe into its target and asks that each fiber product
    is a 2-preorder.
    """
    from .gallery import make_T
    from .reflection import is_two_preorder

    probe = make_T()
    for phi in enumerate_two_functors(probe, fun.target):
        if not is_two_preorder(pullback(phi, fun).apex):
            return False
    return True


def classify(fun):
    """Evaluate all five predicates, collecting witnesses for failures."""
    witnesses = {}
    results = {}
    for name, predicate in (
        ("edm", is_edm),
        ("vertical", is_vertical),
        ("stably_vertical", is_stably_vertical),
        ("trivial_covering", is_trivial_covering),
        ("covering", is_covering),
    ):
        found = []
        results[name] = predicate(fun, witness=found)
        if found:
            witnesses[name] = found[0]
    return ClassificationReport(witnesses=witnesses, **results)
