"""Morphism classes of the 2-preorder reflection, with definitional oracles.

Each predicate is a direct combinatorial test on the functor's carrier
maps; the two oracles recompute trivial coverings and coverings from their
defining pullback conditions so the pair can be cross-checked on every
input.  Witnesses are the lexicographically least failing cells.
"""

from dataclasses import dataclass

from .core import enumerate_two_functors
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


def _bijectivity_witness(mapping, codomain):
    """Least witness that a carrier map is not a bijection, else ``None``."""
    images = {}
    for key in sorted(mapping):
        value = mapping[key]
        if value in images:
            return (images[value], key)
        images[value] = key
    unhit = sorted(set(codomain) - set(images))
    if unhit:
        return (unhit[0],)
    return None


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

    def lifts(chain, step_src, step_tgt):
        def extend(prefix, remaining):
            if not remaining:
                return True
            head = remaining[0]
            for cell in fibers.get(head, ()):
                if prefix is not None and step_src(cell) != prefix:
                    continue
                if extend(step_end(cell), remaining[1:]):
                    return True
            return False

        step_end = step_tgt
        return extend(None, chain)

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


def is_vertical(fun, witness=None):
    """Bijective below 2-cells and reflecting nonemptiness of vertical homs."""
    for mapping, codomain in ((fun.f0, fun.target.objects), (fun.f1, fun.target.one_cells)):
        bad = _bijectivity_witness(mapping, codomain)
        if bad is not None:
            if witness is not None:
                witness.append(bad)
            return False
    src, tgt = fun.source, fun.target
    for h in sorted(src.one_cells):
        for k in sorted(src.one_cells):
            if tgt.hom(fun.f1[h], fun.f1[k]) and not src.hom(h, k):
                if witness is not None:
                    witness.append((h, k))
                return False
    return True


def is_stably_vertical(fun, witness=None):
    """Bijective below 2-cells and surjective on every vertical hom."""
    for mapping, codomain in ((fun.f0, fun.target.objects), (fun.f1, fun.target.one_cells)):
        bad = _bijectivity_witness(mapping, codomain)
        if bad is not None:
            if witness is not None:
                witness.append(bad)
            return False
    src, tgt = fun.source, fun.target
    for h in sorted(src.one_cells):
        for k in sorted(src.one_cells):
            image = {fun.f2[t] for t in src.hom(h, k)}
            for b in tgt.hom(fun.f1[h], fun.f1[k]):
                if b not in image:
                    if witness is not None:
                        witness.append((h, k, b))
                    return False
    return True


def is_trivial_covering(fun, witness=None):
    """Bijective on every nonempty vertical hom of the source."""
    src, tgt = fun.source, fun.target
    for h in sorted(src.one_cells):
        for k in sorted(src.one_cells):
            cells = src.hom(h, k)
            if not cells:
                continue
            image = [fun.f2[t] for t in cells]
            target_hom = tgt.hom(fun.f1[h], fun.f1[k])
            if len(set(image)) != len(image) or set(image) != set(target_hom):
                if witness is not None:
                    witness.append((h, k))
                return False
    return True


def is_covering(fun, witness=None):
    """Injective on every vertical hom of the source."""
    src = fun.source
    for h in sorted(src.one_cells):
        for k in sorted(src.one_cells):
            seen = {}
            for t in src.hom(h, k):
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
    return (
        _is_bijection(comparison.f0, square.apex.objects)
        and _is_bijection(comparison.f1, square.apex.one_cells)
        and _is_bijection(comparison.f2, square.apex.two_cells)
    )


def _is_bijection(mapping, codomain):
    values = set(mapping.values())
    return len(values) == len(mapping) and values == set(codomain)


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
