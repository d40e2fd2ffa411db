"""Morphism classes of the 2-preorder reflection, with definitional oracles.

Each predicate is a direct combinatorial test on the functor's carrier
maps; the two oracles recompute trivial coverings and coverings from their
defining pullback conditions so the pair can be cross-checked on every
input.  Witnesses are the lexicographically least failing cells; a hom-wise
predicate walks its homs in order for one only after an unordered pass fails.

The two vertical predicates live in :mod:`.reflection`, whose probe checks
use them; :func:`classify` reports them beside the three defined here.
"""

from collections import Counter
from dataclasses import dataclass

from .core import _by_ends, _chains, _graph_violations, enumerate_two_functors
from .errors import MalformedData
from .limits import _cone, _pair_apex, _pair_boundaries, make_T
from .reflection import _induced_functor, _refuted, is_stably_vertical, is_vertical, reflect


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

    Triples range over all composable 2-cells, identities included: every
    triple of the target must be the ``f2``-image of a triple of the
    source.  The least missing triple is reported outermost first (the
    last entry is applied first), prefixed with ``v`` or ``h``.

    Only the target's triples are walked; see :func:`_lifts` for how each
    is decided from the source's cells.
    """
    src, tgt = fun.source, fun.target
    for kind, below, source_ends, target_ends in (
        ("v", fun.f1, src.two_cells, tgt.two_cells),
        ("h", fun.f0, src.horiz_ends(), tgt.horiz_ends()),
    ):
        lifts = _lifts(fun.f2, below, source_ends, target_ends)
        if lifts is None:
            continue
        least = min((t for t in _chains(target_ends, 3) if not lifts(t)), default=None)
        if least:
            return _refuted(witness, (kind,) + least)
    return True


def _lifts(f2, below, source_ends, target_ends):
    """Whether a target triple ``(b3, b2, b1)`` is the image of a source
    triple, as a predicate; ``None`` when every target triple is one.

    ``source_ends`` and ``target_ends`` map the 2-cells of one level to
    their ends, and ``below`` maps the source's ends to the target's.  When
    ``below`` is injective and sends each source cell's ends to those of
    its image, any cells over ``b1``, ``b2`` and ``b3`` compose, so a triple
    lifts exactly when ``f2`` hits its three cells.  Otherwise the source
    cells are indexed by image and start, and a triple lifts when a start
    over ``b3`` is among the ends reachable over the pair ``(b2, b1)``.
    """
    if len(set(below.values())) == len(below) and all(
        (below.get(start), below.get(end)) == target_ends.get(f2.get(cell))
        for cell, (start, end) in source_ends.items()
    ):
        hit = {f2[cell] for cell in source_ends}
        return None if hit >= target_ends.keys() else hit.issuperset

    over = {}  # image -> start -> the ends of the source cells there
    for cell, (start, end) in source_ends.items():
        over.setdefault(f2[cell], {}).setdefault(start, set()).add(end)
    reach = {}  # (b2, b1) -> the ends of the source pairs over it

    def lifts(triple):
        b3, b2, b1 = triple
        if (b2, b1) not in reach:
            steps, ends = over.get(b2, {}), set()
            for end in set().union(*over.get(b1, {}).values()):
                ends |= steps.get(end, set())
            reach[b2, b1] = ends
        return not reach[b2, b1].isdisjoint(over.get(b3, ()))

    return lifts


def is_trivial_covering(fun, witness=None):
    """Bijective on every nonempty vertical hom of the source: injective on
    each, into the target hom over it, and as large as that hom."""
    src, tgt, get, f2 = fun.source, fun.target, fun.f1.get, fun.f2
    if _injective_on_homs(fun) and all(
        tgt.two_cells.get(f2[t]) == (get(h), get(k)) for t, (h, k) in src.two_cells.items()
    ):
        sizes = Counter(tgt.two_cells.values())
        if all(sizes[get(h), get(k)] == n for (h, k), n in Counter(src.two_cells.values()).items()):
            return True
    homs = _by_ends(tgt.two_cells)
    for (h, k), cells in sorted(_by_ends(src.two_cells).items()):
        if sorted(f2[t] for t in cells) != homs.get((fun.f1[h], fun.f1[k])):
            return _refuted(witness, (h, k))
    return True


def is_covering(fun, witness=None):
    """Injective on every vertical hom of the source."""
    if _injective_on_homs(fun):
        return True
    for _pair, cells in sorted(_by_ends(fun.source.two_cells).items()):
        seen = {}
        for t in cells:
            image = fun.f2[t]
            if image in seen:
                return _refuted(witness, (seen[image], t))
            seen[image] = t
    return True


def _injective_on_homs(fun):
    """Whether ``f2`` is defined on every source 2-cell and no two of them
    share both boundary and image."""
    f2, cells = fun.f2, fun.source.two_cells
    return cells.keys() <= f2.keys() and len({(e, f2[t]) for t, e in cells.items()}) == len(cells)


def trivial_covering_oracle(fun):
    """Pullback-square recomputation of the trivial-covering predicate.

    Takes the fiber pairs of the target's reflection unit with the
    reflected functor and asks whether the canonical comparison from the
    source, ``x -> (f x, unit x)``, is a levelwise bijection onto them.
    Each end is reflected once, the target first.  A cone pair outside the
    fiber raises :class:`MismatchedTarget` before any level is counted.
    No apex cell is named and no table is joined.
    """
    tgt, src = reflect(fun.target), reflect(fun.source)
    _, pairs = _pair_apex(tgt.unit, _induced_functor(fun, src, tgt))  # carriers: fiber check only
    return all(
        len(set(comparison.values())) == len(comparison) == len(level)
        for comparison, level in zip(_cone(pairs, fun, src.unit), pairs)
    )


def covering_oracle(fun):
    """Probe recomputation of the covering predicate.

    Pulls ``fun`` back along every functor from the two-object
    single-2-cell probe into its target and asks that each fiber product
    is a 2-preorder: no two of its 2-cells share their boundary pair.
    ``fun`` is the second leg, indexed once for all probes.

    Each probe is a 2-functor by enumeration, so for a 2-functor ``fun``
    the join of the tables could not fail, and the verdict reads the apex
    2-cell boundaries only, as the covering predicate reads carriers.
    When ``fun`` keeps boundaries and identities on both levels, out of a
    source whose identity maps are total, every apex boundary and identity
    pair lies in the fiber, and the boundary of an apex 2-cell ``(s, t)``
    is read off those of ``s`` and ``t``: no apex carrier is built.
    Otherwise each probe builds the apex carriers, each cell named by its
    pair, whose check raises on a pair outside the fiber.
    """
    src = fun.source
    try:  # where a map or the source cannot be read, each probe raises as before
        keeps = (
            _graph_violations(fun, ends=()) == [[], []]
            and src.one_identity.keys() == src.objects
            and src.two_identity.keys() == src.one_cells.keys()
        )
    except (MalformedData, KeyError, TypeError, ValueError):
        keeps = False
    for phi in enumerate_two_functors(make_T(), fun.target):
        if keeps:
            boundaries = _pair_boundaries(phi, fun)
        else:
            boundaries = list(_pair_apex(phi, fun)[0]["two_cells"].values())
        if len(set(boundaries)) < len(boundaries):
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
