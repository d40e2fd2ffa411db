"""Shared corpus fixtures.

The functor corpus enumerates every valid 2-functor between ordered pairs
of the small parallel-cell gallery objects; counts per pair follow the
closed form 4 + n^m (+1 when m = 0 for the arrow swap), derived by hand
from the four object maps and the possible 1-cell images.
"""

import importlib
import random
import sys
from pathlib import Path

import pytest

import twocat as tc

#: The copy of the package that the benchmark times against; never edited.
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


@pytest.fixture(scope="module")
def reference():
    """The pinned reference package, imported without writing bytecode."""
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(REFERENCE))
    try:
        yield importlib.import_module("twocat_ref")
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved


@pytest.fixture(scope="session")
def gallery_objects():
    return {
        "terminal": tc.terminal(),
        "T0": tc.make_Tn(0),
        "T": tc.make_T(),
        "T2": tc.make_Tn(2),
        "T3": tc.make_Tn(3),
        "T4": tc.make_Tn(4),
        "v4": tc.make_v4(),
        "h4": tc.make_h4(),
        "vh4": tc.make_vh4(),
    }


@pytest.fixture(scope="session")
def t_family():
    return [tc.make_Tn(n) for n in range(4)]


@pytest.fixture(scope="session")
def functor_corpus(t_family):
    """All valid 2-functors between ordered pairs drawn from T0..T3."""
    corpus = {}
    for m, src in enumerate(t_family):
        for n, dst in enumerate(t_family):
            corpus[(m, n)] = list(tc.enumerate_two_functors(src, dst))
    return corpus


@pytest.fixture(scope="session")
def corpus_functors(functor_corpus):
    return [f for fs in functor_corpus.values() for f in fs]


def identity_on_cells(cat):
    return {u: u for u in cat.one_cells}


def pick_functor(source, target, **cell_images):
    """The unique corpus functor fixing objects/1-cells with given 2-cell images."""
    want_f1 = identity_on_cells(source)
    for fun in tc.enumerate_two_functors(source, target):
        if fun.f1 != want_f1:
            continue
        if all(fun.f2.get(k) == v for k, v in cell_images.items()):
            return fun
    raise AssertionError("no such functor in the corpus")


SMALL_BLOCKS = ("terminal", "T0", "T", "T2")


def seeded_functor(seed):
    """A deterministic valid functor built from a seeded random instance."""
    rng = random.Random(seed)
    base = tc.random_instance(rng.randrange(10_000))
    kind = rng.choice(("unit", "projection", "injection", "collapse", "identity"))
    if kind == "unit":
        return tc.reflect(base).unit
    if kind == "projection":
        block = tc.make_Tn(rng.randrange(3))
        result = tc.product(base, block)
        return result.proj1
    if kind == "injection":
        block = tc.make_Tn(rng.randrange(3))
        union, injections = tc.coproduct([base, block])
        return injections[0]
    if kind == "collapse":
        return tc.terminal_functor(base)
    return tc.identity_two_functor(base)


@pytest.fixture(scope="session")
def seeded_functors():
    return [seeded_functor(seed) for seed in range(20)]


def brute_vertical_triples(cat):
    """Nested-loop triple count kept independent of the library enumerators."""
    cells = sorted(cat.two_cells)
    found = []
    for c1 in cells:
        for c2 in cells:
            if cat.two_cells[c1][1] != cat.two_cells[c2][0]:
                continue
            for c3 in cells:
                if cat.two_cells[c2][1] == cat.two_cells[c3][0]:
                    found.append((c1, c2, c3))
    return found


def brute_horizontal_triples(cat):
    cells = sorted(cat.two_cells)

    def ends(t):
        return cat.one_cells[cat.two_cells[t][0]]

    found = []
    for c1 in cells:
        for c2 in cells:
            if ends(c1)[1] != ends(c2)[0]:
                continue
            for c3 in cells:
                if ends(c2)[1] == ends(c3)[0]:
                    found.append((c1, c2, c3))
    return found


def descent_probe_setup():
    """The non-associative probe over its associative collapse, plus a cover
    whose projection misses every non-associative triple."""
    h4na = tc.make_h4_na()
    base = tc.make_h4_assoc()
    phi = tc.TwoFunctor(
        source=h4na,
        target=base,
        f0={x: x for x in h4na.objects},
        f1={u: u for u in h4na.one_cells},
        f2={t: ("a03" if t == "a03x" else t) for t in h4na.two_cells},
    )
    failing = set()
    for c3, c2, c1 in h4na.horiz_triples():
        lhs = h4na.horiz_compose[(h4na.horiz_compose[(c3, c2)], c1)]
        rhs = h4na.horiz_compose[(c3, h4na.horiz_compose[(c2, c1)])]
        if lhs != rhs:
            failing.add((c1, c2, c3))
    summands = tc.edm_summands(base)
    kept = [s for s in summands if not (s[0] == "h" and s[1] in failing)]
    cover, p = tc.edm_cover(base, kept)
    return h4na, base, phi, cover, p, len(summands) - len(kept)


def law_breaking_document():
    """A well-formed document whose boundary and v-assoc laws fail.

    ``s . t2`` is declared to be ``t1``, which runs ``h => h'`` instead of
    ``h => h``; the reflection and the monotone-light middle are then ill
    defined.
    """
    return {
        "objects": ["a", "b"],
        "one_cells": [
            {"id": "h", "dom": "a", "cod": "b"},
            {"id": "h'", "dom": "a", "cod": "b"},
        ],
        "two_cells": [
            {"id": "t1", "vdom": "h", "vcod": "h'"},
            {"id": "t2", "vdom": "h", "vcod": "h'"},
            {"id": "s", "vdom": "h'", "vcod": "h"},
        ],
        "vcompose": [
            ["s", "t1", "vid:h"],
            ["s", "t2", "t1"],
            ["t1", "s", "vid:h'"],
            ["t2", "s", "vid:h'"],
        ],
    }
