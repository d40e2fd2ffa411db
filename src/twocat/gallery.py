"""Canonical 2-categories, free 2-preorders, and test-corpus generators."""

import random
from dataclasses import dataclass

from .core import (
    TwoFunctor,
    TwoReflexiveGraph,
    assemble_two_category,
    build_two_category,
    coproduct,
    copair,
    enumerate_two_functors,
    validate_two_category,
)
from .errors import BudgetExceeded, CyclicPresentation, LawViolation, MalformedData
from .limits import product, terminal
from .reflection import connected_component, reflect


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


def _check_acyclic(presentation):
    out_edges = {}
    for gen, (dom, cod) in presentation.generators.items():
        out_edges.setdefault(dom, []).append(cod)
    state = {}

    def visit(node):
        state[node] = "active"
        for nxt in out_edges.get(node, ()):
            if state.get(nxt) == "active":
                raise CyclicPresentation(f"directed cycle through object {node!r}")
            if nxt not in state:
                visit(nxt)
        state[node] = "done"

    for obj in presentation.objects:
        if obj not in state:
            visit(obj)


def _enumerate_paths(presentation):
    by_dom = {}
    for gen in sorted(presentation.generators):
        by_dom.setdefault(presentation.generators[gen][0], []).append(gen)

    paths = []

    def extend(path, start, at):
        paths.append((path, start))
        for gen in by_dom.get(at, ()):
            extend(path + (gen,), start, presentation.generators[gen][1])

    for obj in sorted(presentation.objects):
        extend((), obj, obj)
    return paths


def _free_two_preorder_with_meta(presentation):
    """Free 2-preorder on a presentation plus path metadata per cell.

    A path is keyed ``(start, gens)`` since every identity path has the
    same empty generator tuple.
    """
    _check_acyclic(presentation)
    gens = presentation.generators
    for gen, (dom, cod) in gens.items():
        if dom not in presentation.objects or cod not in presentation.objects:
            raise MalformedData(f"generator {gen!r} has unknown endpoints")

    def path_end(start, path):
        at = start
        for gen in path:
            if gens[gen][0] != at:
                raise MalformedData(f"path {path} is not composable")
            at = gens[gen][1]
        return at

    raw_paths = [(start, path) for path, start in _enumerate_paths(presentation)]
    ends = {(start, path): path_end(start, path) for start, path in raw_paths}
    known = set(ends)

    rules = []
    for lower, upper in presentation.relations:
        lower, upper = tuple(lower), tuple(upper)
        if not lower or not upper:
            raise MalformedData("relation sides must be nonempty generator paths")
        lo_key = (gens[lower[0]][0], lower) if lower[0] in gens else None
        up_key = (gens[upper[0]][0], upper) if upper[0] in gens else None
        if lo_key not in known or up_key not in known:
            raise MalformedData(f"relation {lower} <= {upper} uses unknown paths")
        if lo_key[0] != up_key[0] or ends[lo_key] != ends[up_key]:
            raise MalformedData(f"relation {lower} <= {upper} is not parallel")
        rules.append((lower, upper))

    # one-step rewrites replace a lower side occurring inside a path by the
    # corresponding upper side; the 2-cell relation is their reflexive and
    # transitive closure, which is automatically closed under pasting
    def successors(path):
        for lo, up in rules:
            width = len(lo)
            for i in range(len(path) - width + 1):
                if path[i : i + width] == lo:
                    yield path[:i] + up + path[i + width :]

    reachable = {}
    for start, path in raw_paths:
        seen = {path}
        frontier = [path]
        while frontier:
            nxt = []
            for current in frontier:
                for succ in successors(current):
                    if succ not in seen:
                        seen.add(succ)
                        nxt.append(succ)
            frontier = nxt
        reachable[(start, path)] = seen

    pid_of = {key: _path_id(key[1], key[0]) for key in known}
    if len(set(pid_of.values())) != len(pid_of):
        raise MalformedData("generator names produce colliding path identifiers")

    one_cells = {}
    one_meta = {}
    for start, path in raw_paths:
        pid = pid_of[(start, path)]
        one_cells[pid] = (start, ends[(start, path)])
        one_meta[pid] = path
    one_identity = {obj: f"id:{obj}" for obj in presentation.objects}

    two_cells = {}
    two_meta = {}
    for start, path in raw_paths:
        pid = pid_of[(start, path)]
        for succ in sorted(reachable[(start, path)]):
            spid = pid_of[(start, succ)]
            cid = f"vid:{pid}" if succ == path else f"{pid}<={spid}"
            two_cells[cid] = (pid, spid)
            two_meta[cid] = (path, succ)
    two_identity = {
        pid_of[(start, path)]: f"vid:{pid_of[(start, path)]}"
        for start, path in raw_paths
    }
    cell_by_boundary = {bounds: cid for cid, bounds in two_cells.items()}

    graph = TwoReflexiveGraph(
        objects=presentation.objects,
        one_cells=one_cells,
        one_identity=one_identity,
        two_cells=two_cells,
        two_identity=two_identity,
    )
    # a composite path is the concatenation; a composite 2-cell is the one
    # between the composite boundaries
    one_compose = {
        (g, f): pid_of[(one_cells[f][0], one_meta[f] + one_meta[g])]
        for g, f in graph.one_pairs()
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
    """All paths of an acyclic presentation with the generated 2-cell preorder."""
    return _free_two_preorder_with_meta(presentation)[0]


# ---------------------------------------------------------------------------
# fixed gallery objects
# ---------------------------------------------------------------------------

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


def make_v4():
    """A chain of three vertically composable 2-cells between two objects."""
    return free_two_preorder(V4_PRESENTATION)


def make_h4():
    """A chain of three horizontally composable 2-cells across four objects."""
    return free_two_preorder(H4_PRESENTATION)


def make_vh4():
    """Four objects with a vertical 4-chain of arrows in every gap."""
    return free_two_preorder(VH4_PRESENTATION)


# ---------------------------------------------------------------------------
# the horizontally non-associative companion of h4
# ---------------------------------------------------------------------------

_SPANS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


def _collapsed_h4(extra_cell):
    """Four objects, one top and one bottom arrow per span, meet composition.

    With ``extra_cell`` a second 2-cell is placed beside the full-span one
    and the pasting of the two half-span cells is redirected onto it, which
    is exactly what breaks horizontal associativity.
    """
    objects = tuple(str(i) for i in range(4))
    one_cells = {f"id:{x}": (x, x) for x in objects}
    for i, j in _SPANS:
        one_cells[f"t{i}{j}"] = (str(i), str(j))
        one_cells[f"b{i}{j}"] = (str(i), str(j))
    two_cells = {f"vid:{u}": (u, u) for u in one_cells}
    two_cells.update({f"a{i}{j}": (f"t{i}{j}", f"b{i}{j}") for i, j in _SPANS})
    if extra_cell:
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

    named_pastings = {
        ("a12", "a01"): "a02",
        ("a23", "a12"): "a13",
        ("a23", "a02"): "a03",
        ("a13", "a01"): "a03x" if extra_cell else "a03",
    }
    he_cells = {f"vid:id:{x}" for x in objects}
    by_boundary = {}
    for cid, bounds in two_cells.items():
        by_boundary.setdefault(bounds, []).append(cid)

    def horiz(key):
        b, a = key
        if a in he_cells:
            return b
        if b in he_cells:
            return a
        if key in named_pastings:
            return named_pastings[key]
        bounds = (
            compose1((graph.vdom(b), graph.vdom(a))),
            compose1((graph.vcod(b), graph.vcod(a))),
        )
        candidates = by_boundary[bounds]
        if len(candidates) == 1:
            return candidates[0]
        # whiskers of the ambiguous full span must follow their split
        # point, or the interchange law would break too
        return "a03x" if graph.hcod(a) == "1" else "a03"

    return assemble_two_category(graph, compose1, vert, horiz)


def make_h4_na():
    """The relaxed structure whose only broken law is horizontal associativity.

    Pasting the three single-gap 2-cells in the two possible orders gives
    two different full-span cells, so the axiom report fails exactly
    h-assoc at the triple ``(a23, a12, a01)``.
    """
    return _collapsed_h4(extra_cell=True)


def make_h4_assoc():
    """The associative collapse of :func:`make_h4_na` (a genuine 2-preorder)."""
    return _collapsed_h4(extra_cell=False)


# ---------------------------------------------------------------------------
# descent covers
# ---------------------------------------------------------------------------

def _v4_leg(v4, v4_one_meta, v4_two_meta, base, triple):
    """Project a copy of v4 onto a vertically composable triple of ``base``."""
    c1, c2, c3 = triple
    lane = [base.vdom(c1), base.vcod(c1), base.vcod(c2), base.vcod(c3)]
    legs = [c1, c2, c3]
    f0 = {"0": base.dom(lane[0]), "1": base.cod(lane[0])}
    f1 = {}
    for pid, path in v4_one_meta.items():
        if not path:
            f1[pid] = base.one_identity[f0[pid.split(":", 1)[1]]]
        else:
            f1[pid] = lane[int(path[0][1:]) - 1]
    f2 = {}
    for cid, (low, up) in v4_two_meta.items():
        if not low:
            obj = v4.two_cells[cid][0].split(":", 1)[1]
            f2[cid] = base.two_identity[base.one_identity[f0[obj]]]
            continue
        i = int(low[0][1:]) - 1
        j = int(up[0][1:]) - 1
        acc = base.two_identity[lane[i]]
        for step in range(i, j):
            acc = base.vert_compose[(legs[step], acc)]
        f2[cid] = acc
    return TwoFunctor(source=v4, target=base, f0=f0, f1=f1, f2=f2)


def _h4_leg(h4, h4_one_meta, h4_two_meta, base, triple):
    """Project a copy of h4 onto a horizontally composable triple of ``base``."""
    c1, c2, c3 = triple
    legs = [c1, c2, c3]
    f0 = {
        "0": base.hdom(c1),
        "1": base.hcod(c1),
        "2": base.hcod(c2),
        "3": base.hcod(c3),
    }
    gen_image = {}
    for gap in range(3):
        gen_image[f"t{gap}"] = base.vdom(legs[gap])
        gen_image[f"b{gap}"] = base.vcod(legs[gap])
    f1 = {}
    for pid, path in h4_one_meta.items():
        if not path:
            f1[pid] = base.one_identity[f0[pid.split(":", 1)[1]]]
        else:
            acc = gen_image[path[0]]
            for gen in path[1:]:
                acc = base.one_compose[(gen_image[gen], acc)]
            f1[pid] = acc
    f2 = {}
    for cid, (low, up) in h4_two_meta.items():
        if not low:
            obj = h4.two_cells[cid][0].split(":", 1)[1]
            f2[cid] = base.two_identity[base.one_identity[f0[obj]]]
            continue
        acc = None
        for gen_low, gen_up in zip(low, up):
            if gen_low == gen_up:
                step = base.two_identity[gen_image[gen_low]]
            else:
                step = legs[int(gen_low[1:])]
            acc = step if acc is None else base.horiz_compose[(step, acc)]
        f2[cid] = acc
    return TwoFunctor(source=h4, target=base, f0=f0, f1=f1, f2=f2)


def edm_summands(base):
    """One projected copy of v4 or h4 per composable 2-cell triple of ``base``.

    Returns tuples ``(kind, triple, part, leg)`` where ``triple`` is in
    application order and ``leg`` maps the part onto it.  A law-breaking
    ``base`` raises :class:`LawViolation` with its first recorded failure.
    """
    failures = validate_two_category(base).failures
    if failures:
        raise LawViolation(*next(iter(failures.items())))
    v4, v4_one_meta, v4_two_meta = _free_two_preorder_with_meta(V4_PRESENTATION)
    h4, h4_one_meta, h4_two_meta = _free_two_preorder_with_meta(H4_PRESENTATION)
    out = []
    for c3, c2, c1 in base.vert_triples():
        triple = (c1, c2, c3)
        out.append(("v", triple, v4, _v4_leg(v4, v4_one_meta, v4_two_meta, base, triple)))
    for c3, c2, c1 in base.horiz_triples():
        triple = (c1, c2, c3)
        out.append(("h", triple, h4, _h4_leg(h4, h4_one_meta, h4_two_meta, base, triple)))
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

def _building_blocks():
    return [
        terminal(),
        make_Tn(0),
        make_T(),
        make_Tn(2),
        make_Tn(3),
        make_Tn(4),
        make_v4(),
        make_h4(),
    ]


def _fits(cat, budget):
    n0, n1, n2 = cat.carrier_sizes()
    return n0 <= budget[0] and n1 <= budget[1] and n2 <= budget[2]


def random_instance(seed, max_objects=6, max_one_cells=24, max_two_cells=48):
    """A valid 2-category built by a seeded sequence of closure operations.

    Starting from a gallery block, applies coproducts, products, reflections
    and connected-component pullbacks, skipping any step that would leave
    the requested budget.  Identical seeds and budgets give identical
    structures.
    """
    budget = (max_objects, max_one_cells, max_two_cells)
    rng = random.Random(seed)
    blocks = _building_blocks()
    fitting = [c for c in blocks if _fits(c, budget)]
    if not fitting:
        raise BudgetExceeded(f"budget {budget} cannot hold the base blocks")
    current = rng.choice(fitting)
    probe = make_T()
    for _ in range(rng.randint(0, 3)):
        op = rng.choice(("coproduct", "product", "reflect", "component"))
        if op == "coproduct":
            other = rng.choice(blocks)
            candidate, _ = coproduct([current, other])
            if _fits(candidate, budget):
                current = candidate
        elif op == "product":
            other = rng.choice(blocks[:6])
            candidate = product(current, other).apex
            if _fits(candidate, budget):
                current = candidate
        elif op == "reflect":
            current = reflect(current).reflected
        else:
            probes = list(enumerate_two_functors(probe, reflect(current).reflected))
            if probes:
                candidate = connected_component(current, rng.choice(probes)).apex
                if _fits(candidate, budget):
                    current = candidate
    return current


GALLERY_NAMES = ("T", "v4", "h4", "vh4", "h4na", "terminal")


def by_name(name):
    """The gallery object for a CLI name such as ``T``, ``T3`` or ``v4``."""
    fixed = {
        "T": make_T,
        "v4": make_v4,
        "h4": make_h4,
        "vh4": make_vh4,
        "h4na": make_h4_na,
        "terminal": terminal,
    }
    if name in fixed:
        return fixed[name]()
    if name.startswith("T") and name[1:].isdigit():
        return make_Tn(int(name[1:]))
    raise MalformedData(f"unknown gallery name {name!r}")
