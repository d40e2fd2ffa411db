"""Seeded inputs built only from twocat's public API, and output digests.

Every builder takes the twocat package it builds with as ``tc``: the
program under test, or the pinned reference copy the runner times it
against.  Everything is reached through module attributes (``tc.reflect``,
not a name imported at load time), so that the traced run sees these calls
too.
"""

import hashlib
import json
import random

#: The seeded-functor kinds, cycled so every kind is equally represented.
FUNCTOR_KINDS = ("unit", "projection", "injection", "collapse", "identity")


def pool_instance(tc, index, rng, budget=()):
    """``random_instance(index)`` with every cell renamed from ``rng``.

    The workloads draw their random structures from fixed index ranges and
    let the seed rename them.  Every seed then runs the same structures
    under other names: sizes and work repeat from seed to seed, while sort
    orders, least witnesses and search orders change.  Drawing the
    structures from the seed instead moved a run's figures by 10-35%
    between seeds.
    """
    return relabel(tc, tc.random_instance(index, *budget), rng)[0]


def seeded_functor(tc, kind, block, base):
    """A valid functor of ``kind`` over ``base``.

    ``block`` is the ``n`` of the ``Tn`` that projections and injections
    pair the base with.
    """
    if kind == "unit":
        return tc.reflect(base).unit
    if kind == "projection":
        return tc.product(base, tc.make_Tn(block)).proj1
    if kind == "injection":
        return tc.coproduct([base, tc.make_Tn(block)])[1][0]
    if kind == "collapse":
        return tc.terminal_functor(base)
    if kind == "identity":
        return tc.identity_two_functor(base)
    raise ValueError(f"unknown functor kind {kind!r}")


def relabel(tc, cat, rng):
    """A copy of ``cat`` with every cell renamed to a plain alphanumeric id.

    The renaming goes through the document format: the canonical document
    is rewritten and parsed back.  Identity cells are renamed too; the
    emitted ``one_identity``/``two_identity`` fields keep them identities.
    Returns the copy and the renaming as ``(f0, f1, f2)`` maps.
    """
    ser = tc.serialize
    doc = ser.category_to_document(cat)
    maps = []
    for prefix, names in (
        ("o", doc["objects"]),
        ("e", [row["id"] for row in doc["one_cells"]]),
        ("c", [row["id"] for row in doc["two_cells"]]),
    ):
        numbers = rng.sample(range(10 * len(names) + 10), len(names))
        maps.append({name: f"{prefix}{n}" for name, n in zip(names, numbers)})
    f0, f1, f2 = maps
    renamed = {
        "objects": [f0[x] for x in doc["objects"]],
        "one_cells": [
            {"id": f1[r["id"]], "dom": f0[r["dom"]], "cod": f0[r["cod"]]}
            for r in doc["one_cells"]
        ],
        "one_identity": [[f0[x], f1[u]] for x, u in doc["one_identity"]],
        "compose1": [[f1[g], f1[f], f1[v]] for g, f, v in doc["compose1"]],
        "two_cells": [
            {"id": f2[r["id"]], "vdom": f1[r["vdom"]], "vcod": f1[r["vcod"]]}
            for r in doc["two_cells"]
        ],
        "two_identity": [[f1[h], f2[t]] for h, t in doc["two_identity"]],
        "vcompose": [[f2[b], f2[a], f2[v]] for b, a, v in doc["vcompose"]],
        "hcompose": [[f2[b], f2[a], f2[v]] for b, a, v in doc["hcompose"]],
    }
    return ser.parse_document(ser.dumps(renamed)), (f0, f1, f2)


def sizes(cat):
    """Carrier sizes ``[objects, 1-cells, 2-cells]`` as a JSON-ready list."""
    return list(cat.carrier_sizes())


# ---------------------------------------------------------------------------
# output digests
# ---------------------------------------------------------------------------

#: Values that JSON writes the same way whatever their history.
_PLAIN = (str, int, float, bool, type(None))
#: Sorted items hashed per encoding; bounds the memory a digest adds.
_CHUNK = 4096
_JSON = json.JSONEncoder(separators=(",", ":"))


def digest(value):
    """sha256 of a result in which every dict and set is read in sorted order.

    Results of twocat are dataclasses over dicts, sets and tuples of
    identifiers, so two results get the same digest exactly when they are
    equal and print their identifiers the same way.  Large tables are hashed
    in chunks, so a digest never holds a second copy of its input.
    """
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def _all_plain(values):
    """Whether every value is plain or a tuple of plain values."""
    types = {type(x) for v in values for x in (v if type(v) is tuple else (v,))}
    return all(t in _PLAIN for t in types)


def _feed_sorted(h, items):
    """Hash plain items (dict items keyed by unique keys) in sorted order."""
    items = sorted(items)
    for i in range(0, len(items), _CHUNK):
        h.update(_JSON.encode(items[i:i + _CHUNK]).encode())


def _feed(h, value):
    if hasattr(value, "__dataclass_fields__"):
        h.update(f"<{type(value).__name__}".encode())
        for name in value.__dataclass_fields__:
            h.update(f" {name}=".encode())
            _feed(h, getattr(value, name))
        h.update(b">")
    elif isinstance(value, dict):
        h.update(b"{")
        if _all_plain(value.values()):
            _feed_sorted(h, value.items())
        else:
            for k in sorted(value):
                h.update(_JSON.encode(k).encode() + b":")
                _feed(h, value[k])
        h.update(b"}")
    elif isinstance(value, (set, frozenset)):
        h.update(b"(")
        _feed_sorted(h, value)
        h.update(b")")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for v in value:
            _feed(h, v)
            h.update(b",")
        h.update(b"]")
    elif isinstance(value, _PLAIN):
        h.update(_JSON.encode(value).encode())
    else:
        raise TypeError(f"no digest for {type(value).__name__}")


def rng_for(seed, *labels):
    """An independent random stream per workload seed and purpose."""
    return random.Random("/".join([str(seed), *labels]))
