"""Canonical 2-categories, free 2-preorders, and test-corpus generators."""

import random
from dataclasses import dataclass, replace
from functools import cache
from itertools import islice

from .core import (
    SearchCaps,
    TwoFunctor,
    TwoReflexiveGraph,
    _DICT_FIELDS,
    _by_ends,
    _chains,
    _group,
    assemble_two_category,
    coproduct,
    copair,
    enumerate_two_functors,
    validate_two_category,
)
from .errors import BudgetExceeded, CyclicPresentation, LawViolation, MalformedData
from .limits import make_T, make_Tn, product, terminal
from .reflection import _component, reflect


@dataclass(frozen=True)
class TwoGraphPresentation:
    """Objects, generating 1-cells, and ordered pairs of parallel paths.

    A relation ``(lower, upper)`` asks for a 2-cell from the path ``lower``
    to the path ``upper``; paths are tuples of generator ids read in
    application order.  The generating graph must be acyclic.
    """

    objects: tuple
    generators: dict
    relations: tuple


def _path_id(path, start):
    if not path:
        return f"id:{start}"
    return ".".join(path)


def _enumerate_paths(presentation):
    """Every generator path, keyed ``(start, gens)``, mapped to its end.

    Paths are listed depth first, from each object and along generators in
    identifier order, on a stack of their own.  A cycle is looked for first,
    by :func:`_check_acyclic`, before any path is listed.
    """
    gens = presentation.generators
    by_dom = _group(gens, lambda gen: gens[gen][0])
    _check_acyclic(presentation.objects, gens, by_dom)

    ends = {}
    for start in sorted(presentation.objects):
        stack = [((), start)]
        while stack:
            path, at = stack.pop()
            ends[start, path] = at
            stack.extend((path + (gen,), gens[gen][1]) for gen in reversed(by_dom.get(at, ())))
    return ends


def _check_acyclic(objects, gens, by_dom):
    """Raise :class:`CyclicPresentation` if a generator path comes back to
    one of its objects, naming the object the path walk of
    :func:`_enumerate_paths` would meet first with a generator back onto its
    path.  One depth-first walk over objects in the path walk's order, each
    entered once: an object left without a cycle reaches none, and no path
    through it can close one.  O(objects + generators)."""
    done, on_path, walks = set(), set(), []

    def enter(at):
        targets = [gens[gen][1] for gen in by_dom.get(at, ())]
        on_path.add(at)
        if not on_path.isdisjoint(targets):
            raise CyclicPresentation(f"directed cycle through object {at!r}")
        walks.append((at, iter(targets)))

    for start in sorted(objects):
        if start not in done:
            enter(start)
        while walks:
            at, targets = walks[-1]
            for end in targets:
                if end not in done:
                    enter(end)
                    break
            else:
                walks.pop()
                on_path.remove(at)
                done.add(at)


def _free_two_preorder_with_meta(presentation):
    """Free 2-preorder on a presentation plus path metadata per cell.

    A path is keyed ``(start, gens)`` since every identity path has the
    same empty generator tuple.  Each path's 2-cells go to the paths its
    rewrites reach, walked on one stack and listed in path order.
    """
    ends = _enumerate_paths(presentation)  # a cycle is reported before an unknown endpoint
    gens = presentation.generators
    for gen, (dom, cod) in gens.items():
        if dom not in presentation.objects or cod not in presentation.objects:
            raise MalformedData(f"generator {gen!r} has unknown endpoints")

    rules = []
    for lower, upper in presentation.relations:
        lower, upper = tuple(lower), tuple(upper)
        if not lower or not upper:
            raise MalformedData("relation sides must be nonempty generator paths")
        lo_key = (gens[lower[0]][0], lower) if lower[0] in gens else None
        up_key = (gens[upper[0]][0], upper) if upper[0] in gens else None
        if lo_key not in ends or up_key not in ends:
            raise MalformedData(f"relation {lower} <= {upper} uses unknown paths")
        if lo_key[0] != up_key[0] or ends[lo_key] != ends[up_key]:
            raise MalformedData(f"relation {lower} <= {upper} is not parallel")
        rules.append((lower, upper))

    pid_of = {key: _path_id(key[1], key[0]) for key in ends}
    if len(set(pid_of.values())) != len(pid_of):
        raise MalformedData("generator names produce colliding path identifiers")
    one_cells = {pid: (key[0], ends[key]) for key, pid in pid_of.items()}
    one_meta = {pid: path for (_, path), pid in pid_of.items()}

    # one-step rewrites replace a lower side occurring inside a path by the
    # corresponding upper side; the 2-cell relation is their reflexive and
    # transitive closure, which is automatically closed under pasting
    def successors(path):
        for lo, up in rules:
            width = len(lo)
            for i in range(len(path) - width + 1):
                if path[i : i + width] == lo:
                    yield path[:i] + up + path[i + width :]

    two_cells, two_meta = {}, {}
    for (start, path), pid in pid_of.items():
        seen, stack = {path}, [path]
        while stack:
            for succ in successors(stack.pop()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        for succ in sorted(seen):
            spid = pid_of[(start, succ)]
            cid = f"vid:{pid}" if succ == path else f"{pid}<={spid}"
            two_cells[cid] = (pid, spid)
            two_meta[cid] = (path, succ)
    cell_by_boundary = {bounds: cid for cid, bounds in two_cells.items()}

    graph = TwoReflexiveGraph(
        objects=presentation.objects,
        one_cells=one_cells,
        one_identity={obj: f"id:{obj}" for obj in presentation.objects},
        two_cells=two_cells,
        two_identity={pid: f"vid:{pid}" for pid in one_cells},
    )
    # a composite path is the concatenation; a composite 2-cell is the one
    # between the composite boundaries
    one_compose = {
        (g, f): pid_of[(one_cells[f][0], one_meta[f] + one_meta[g])]
        for g, f in _chains(one_cells)
    }

    def vert(key):
        return cell_by_boundary.get((two_cells[key[1]][0], two_cells[key[0]][1]))

    def horiz(key):
        (lower_b, upper_b), (lower_a, upper_a) = two_cells[key[0]], two_cells[key[1]]
        bounds = (one_compose[(lower_b, lower_a)], one_compose[(upper_b, upper_a)])
        return cell_by_boundary.get(bounds)

    cat = assemble_two_category(graph, one_compose.get, vert, horiz)
    return cat, one_meta, two_meta


def free_two_preorder(presentation):
    """All paths of an acyclic presentation with the generated 2-cell preorder.

    A cyclic presentation raises :class:`CyclicPresentation` before any
    path is listed, after one walk over its objects and generators.  A
    generator of unknown endpoint raises :class:`MalformedData` once the
    paths are listed, so a cycle is reported first.
    """
    return _free_two_preorder_with_meta(presentation)[0]


# ---------------------------------------------------------------------------
# fixed gallery objects
# ---------------------------------------------------------------------------

V4_PRESENTATION = TwoGraphPresentation(
    objects=("0", "1"),
    generators={f"k{i}": ("0", "1") for i in range(1, 5)},
    relations=((("k1",), ("k2",)), (("k2",), ("k3",)), (("k3",), ("k4",))),
)

H4_PRESENTATION = TwoGraphPresentation(
    objects=("0", "1", "2", "3"),
    generators={
        "t0": ("0", "1"),
        "b0": ("0", "1"),
        "t1": ("1", "2"),
        "b1": ("1", "2"),
        "t2": ("2", "3"),
        "b2": ("2", "3"),
    },
    relations=((("t0",), ("b0",)), (("t1",), ("b1",)), (("t2",), ("b2",))),
)

VH4_PRESENTATION = TwoGraphPresentation(
    objects=("0", "1", "2", "3"),
    generators={
        f"k{gap}{i}": (str(gap), str(gap + 1))
        for gap in range(3)
        for i in range(1, 5)
    },
    relations=tuple(
        ((f"k{gap}{i}",), (f"k{gap}{i + 1}",))
        for gap in range(3)
        for i in range(1, 4)
    ),
)


@cache
def _free_pair():
    """The free v4 and h4 with path metadata; only copies are handed out."""
    return tuple(map(_free_two_preorder_with_meta, (V4_PRESENTATION, H4_PRESENTATION)))


def _copy(cat):
    """``cat`` with carriers and tables of its own, in the same order."""
    return replace(cat, **{name: dict(getattr(cat, name)) for name in _DICT_FIELDS})


def make_v4():
    """A chain of three vertically composable 2-cells between two objects."""
    return _copy(_free_pair()[0][0])


def make_h4():
    """A chain of three horizontally composable 2-cells across four objects."""
    return _copy(_free_pair()[1][0])


def make_vh4():
    """Four objects with a vertical 4-chain of arrows in every gap."""
    return free_two_preorder(VH4_PRESENTATION)


# ---------------------------------------------------------------------------
# the horizontally non-associative companion of h4
# ---------------------------------------------------------------------------

_SPANS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


def make_h4_na():
    """The relaxed structure whose only broken law is horizontal associativity.

    Four objects, a top and a bottom arrow and a 2-cell between them per
    span; a horizontal composite is the 2-cell between the composite
    boundaries.  Beside the full-span ``a03`` sits ``a03x``, where the
    pastings split at object 1 land: ``a13 * a01 = a03x`` while
    ``a23 * a02 = a03``, so the axiom report fails exactly h-assoc at the
    triple ``(a23, a12, a01)``.
    """
    objects = tuple(str(i) for i in range(4))
    one_cells = {f"id:{x}": (x, x) for x in objects}
    for i, j in _SPANS:
        one_cells[f"t{i}{j}"] = (str(i), str(j))
        one_cells[f"b{i}{j}"] = (str(i), str(j))
    two_cells = {f"vid:{u}": (u, u) for u in one_cells}
    two_cells.update({f"a{i}{j}": (f"t{i}{j}", f"b{i}{j}") for i, j in _SPANS})
    two_cells["a03x"] = ("t03", "b03")
    graph = TwoReflexiveGraph(
        objects=objects,
        one_cells=one_cells,
        one_identity={x: f"id:{x}" for x in objects},
        two_cells=two_cells,
        two_identity={u: f"vid:{u}" for u in one_cells},
    )

    def compose1(key):
        g, f = key
        if g.startswith("id:"):
            return f
        if f.startswith("id:"):
            return g
        mark = "t" if g[0] == "t" and f[0] == "t" else "b"
        return f"{mark}{graph.dom(f)}{graph.cod(g)}"

    def vert(key):
        b, a = key
        return a if b.startswith("vid:") else b

    he_cells = {f"vid:id:{x}" for x in objects}
    by_boundary = _by_ends(graph.two_cells)

    def horiz(key):
        b, a = key
        if a in he_cells:
            return b
        if b in he_cells:
            return a
        bounds = (
            compose1((graph.vdom(b), graph.vdom(a))),
            compose1((graph.vcod(b), graph.vcod(a))),
        )
        candidates = by_boundary[bounds]
        if len(candidates) == 1:
            return candidates[0]
        # whiskers of the ambiguous full span must follow their split
        # point, or the interchange law would break too
        return "a03x" if graph.cod(graph.vdom(a)) == "1" else "a03"

    return assemble_two_category(graph, compose1, vert, horiz)


def make_h4_assoc():
    """The reflection of :func:`make_h4_na`, a 2-preorder: ``a03x`` joins ``a03``."""
    return reflect(make_h4_na()).reflected


# ---------------------------------------------------------------------------
# descent covers
# ---------------------------------------------------------------------------

def _presented_functor(presentation, free, base, images):
    """The functor out of a free 2-preorder sending its relations to ``images``.

    ``free`` is the 2-preorder on ``presentation`` with its path metadata.
    A generator goes to the matching boundary of its relation's image, an
    object to the ends of those, a path to the composite of its generators'
    images, and ``low <= up`` to the horizontal composite of the vertical
    chains of images from ``low[i]`` to ``up[i]``.
    """
    part, one_meta, two_meta = free
    gens = presentation.generators
    gen_image, step = {}, {}
    for ((low,), (up,)), cell in zip(presentation.relations, images):
        gen_image[low], gen_image[up] = base.two_cells[cell]
        step[low] = (up, cell)
    f0 = {}
    for gen, image in gen_image.items():
        f0[gens[gen][0]], f0[gens[gen][1]] = base.one_cells[image]
    one_compose, vert_compose = base.one_compose, base.vert_compose
    f1 = {}
    for pid, path in one_meta.items():
        if not path:
            f1[pid] = base.one_identity[f0[part.one_cells[pid][0]]]
            continue
        acc = gen_image[path[0]]
        for gen in path[1:]:
            acc = one_compose[(gen_image[gen], acc)]
        f1[pid] = acc
    f2 = {}
    for cid, (low, up) in two_meta.items():
        acc = None
        for gen, goal in zip(low, up):
            chain = None
            while gen != goal:
                gen, cell = step[gen]
                chain = cell if chain is None else vert_compose[(cell, chain)]
            if chain is None:
                chain = base.two_identity[gen_image[gen]]
            acc = chain if acc is None else base.horiz_compose[(chain, acc)]
        f2[cid] = base.two_identity[f1[part.two_cells[cid][0]]] if acc is None else acc
    return TwoFunctor(source=part, target=base, f0=f0, f1=f1, f2=f2)


#: The most 2-cells a descent cover, a ``T<n>`` built by name, or the apex
#: of a CLI ``pullback`` may have.  ``edm-cover`` peaks at about 5.5 kB per
#: cover 2-cell, its JSON output included, so this keeps it near 1.1 GB: the
#: free 2-preorder on a path of 15 objects (178,920) still fits, and one on
#: 16 objects (226,440) does not.
EDM_COVER_MAX_TWO_CELLS = 200_000


def edm_summands(base):
    """One projected copy of v4 or h4 per composable 2-cell triple of ``base``.

    Returns tuples ``(kind, triple, part, leg)`` where ``triple`` is in
    application order and ``leg`` maps the part onto it.  A law-breaking
    ``base`` raises :class:`LawViolation` with its first recorded failure,
    and a cover of more than :data:`EDM_COVER_MAX_TWO_CELLS` 2-cells
    raises :class:`BudgetExceeded` before any summand is built; the
    summands of a kind share one part.
    """
    return _edm_summands(base, validate_two_category(base))


def _edm_summands(base, laws):
    """The summands of :func:`edm_summands`, given the law report of ``base``."""
    if laws.failures:
        raise LawViolation(*next(iter(laws.failures.items())))
    kinds = []
    room = EDM_COVER_MAX_TWO_CELLS
    for (kind, presentation, ends), (part, *meta) in zip((
        ("v", V4_PRESENTATION, base.two_cells),
        ("h", H4_PRESENTATION, base.horiz_ends()),
    ), _free_pair()):
        size = len(part.two_cells)
        # one triple past the room is enough to know that it does not fit
        triples = list(islice(_chains(ends, 3), room // size + 1))
        room -= size * len(triples)
        if room < 0:
            raise BudgetExceeded(
                f"the descent cover needs more than {EDM_COVER_MAX_TWO_CELLS} 2-cells"
            )
        kinds.append((kind, presentation, (_copy(part), *meta), triples))
    out = []
    for kind, presentation, free, triples in kinds:
        for c3, c2, c1 in triples:
            leg = _presented_functor(presentation, free, base, (c1, c2, c3))
            out.append((kind, (c1, c2, c3), leg.source, leg))
    return out


def edm_cover(base, summands=None):
    """The coproduct of one v4/h4 copy per composable triple, over ``base``.

    The projection hits every vertically and every horizontally composable
    triple of 2-cells, so it is an effective descent morphism; its source
    is a 2-preorder.
    """
    if summands is None:
        summands = edm_summands(base)
    parts = [part for _, _, part, _ in summands]
    legs = [leg for _, _, _, leg in summands]
    union, injections = coproduct(parts)
    if not parts:
        p = TwoFunctor(source=union, target=base, f0={}, f1={}, f2={})
    else:
        p = copair(union, injections, legs)
    return union, p


# ---------------------------------------------------------------------------
# seeded random corpus
# ---------------------------------------------------------------------------

@cache
def _building_blocks():
    """The blocks, built once per process; they are never handed out."""
    return (terminal(), *map(make_Tn, range(5)), make_v4(), make_h4())


def random_instance(seed, max_objects=6, max_one_cells=24, max_two_cells=48):
    """A valid 2-category built by a seeded sequence of closure operations.

    Starting from a gallery block, applies coproducts, products, reflections
    and connected-component pullbacks, skipping any step that would leave
    the requested budget.  Identical seeds and budgets give identical
    structures.
    """
    budget = (max_objects, max_one_cells, max_two_cells)
    fits = SearchCaps(*budget).admits
    rng = random.Random(seed)
    blocks = _building_blocks()
    fitting = [i for i, c in enumerate(blocks) if fits(c)]
    if not fitting:
        raise BudgetExceeded(f"budget {budget} cannot hold the base blocks")
    start = rng.choice(fitting)
    current = blocks[start]
    probe = make_T()
    for _ in range(rng.randint(0, 3)):
        op = rng.choice(("coproduct", "product", "reflect", "component"))
        if op == "coproduct":
            candidate, _ = coproduct([current, rng.choice(blocks)])
        elif op == "product":
            candidate = product(current, rng.choice(blocks[:6])).apex
        elif op == "reflect":
            candidate = reflect(current).reflected  # never larger, so it fits
        else:
            unit = reflect(current).unit
            probes = list(enumerate_two_functors(probe, unit.target))
            candidate = _component(unit, rng.choice(probes)).apex if probes else current
        if fits(candidate):
            current = candidate
    # carriers are mutable dicts, and a block and its reflection share the
    # block's, so either goes out as a copy
    return _copy(current) if current.two_cells is blocks[start].two_cells else current


#: The gallery objects with fixed CLI names; ``T<n>`` names :func:`make_Tn`.
_FIXED = {
    "T": make_T,
    "v4": make_v4,
    "h4": make_h4,
    "vh4": make_vh4,
    "h4na": make_h4_na,
    "terminal": terminal,
}

GALLERY_NAMES = tuple(_FIXED)


def by_name(name):
    """The gallery object for a CLI name such as ``T``, ``T3`` or ``v4``.

    ``T<n>``, with ``n + 4`` 2-cells, raises :class:`BudgetExceeded` when
    that is more than :data:`EDM_COVER_MAX_TWO_CELLS`, before ``n`` is
    converted or anything is built.
    """
    if name in _FIXED:
        return _FIXED[name]()
    count = name[1:]
    if name.startswith("T") and count.isascii() and count.isdigit():
        digits, most = count.lstrip("0") or "0", EDM_COVER_MAX_TWO_CELLS - 4
        if len(digits) > len(str(most)) or int(digits) > most:
            raise BudgetExceeded(
                f"T<n> for n above {most} has more than {EDM_COVER_MAX_TWO_CELLS} 2-cells"
            )
        return make_Tn(int(digits))
    raise MalformedData(f"unknown gallery name {name!r}")
