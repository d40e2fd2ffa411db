"""JSON interchange documents for 2-categories and 2-functors.

A 2-category document is a single object with ``objects``, ``one_cells``
(``{id, dom, cod}``), ``compose1`` (``[g, f, gf]`` rows), ``two_cells``
(``{id, vdom, vcod}``) and ``vcompose``/``hcompose`` rows.  Identity cells
and the table rows forced by the unit laws may be omitted on input and are
synthesized; the optional ``one_identity``/``two_identity`` fields (always
emitted) pin down identities whose names do not carry the reserved
``id:``/``vid:`` prefixes.  A functor document embeds its ``source`` and
``target`` and carries ``f0``/``f1``/``f2`` as ``[from, to]`` pairs.
Printing is canonical: sorted arrays, sorted keys, two-space indent, one
trailing newline, so print-parse-print is byte stable.
"""

import json

from .core import TwoCategory, TwoFunctor, build_two_category, check_well_formed
from .errors import MalformedData


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def category_to_document(cat):
    """Canonical document for a 2-category; unit-forced rows are left out."""
    unit_one = set()
    for f in cat.one_cells:
        d, c = cat.one_cells[f]
        unit_one.add((f, cat.one_identity[d]))
        unit_one.add((cat.one_identity[c], f))
    unit_two_v = set()
    unit_two_h = set()
    for t in cat.two_cells:
        vd, vc = cat.two_cells[t]
        unit_two_v.add((t, cat.two_identity[vd]))
        unit_two_v.add((cat.two_identity[vc], t))
        he_dom = cat.two_identity[cat.one_identity[cat.hdom(t)]]
        he_cod = cat.two_identity[cat.one_identity[cat.hcod(t)]]
        unit_two_h.add((t, he_dom))
        unit_two_h.add((he_cod, t))

    return {
        "objects": sorted(cat.objects),
        "one_cells": [
            {"id": u, "dom": cat.one_cells[u][0], "cod": cat.one_cells[u][1]}
            for u in sorted(cat.one_cells)
        ],
        "one_identity": [[x, cat.one_identity[x]] for x in sorted(cat.objects)],
        "compose1": sorted(
            [g, f, v]
            for (g, f), v in cat.one_compose.items()
            if (g, f) not in unit_one
        ),
        "two_cells": [
            {"id": t, "vdom": cat.two_cells[t][0], "vcod": cat.two_cells[t][1]}
            for t in sorted(cat.two_cells)
        ],
        "two_identity": [[h, cat.two_identity[h]] for h in sorted(cat.one_cells)],
        "vcompose": sorted(
            [b, a, v]
            for (b, a), v in cat.vert_compose.items()
            if (b, a) not in unit_two_v
        ),
        "hcompose": sorted(
            [b, a, v]
            for (b, a), v in cat.horiz_compose.items()
            if (b, a) not in unit_two_h
        ),
    }


def _expect(cond, message):
    if not cond:
        raise MalformedData(message)


def _cells(doc, key, first, second):
    out = {}
    for row in doc.get(key, ()):
        _expect(isinstance(row, dict) and {"id", first, second} <= set(row),
                f"{key} entries need id/{first}/{second}")
        _expect(row["id"] not in out, f"duplicate {key} id {row['id']!r}")
        out[row["id"]] = (row[first], row[second])
    return out


def _rows(doc, key):
    out = {}
    for row in doc.get(key, ()):
        _expect(isinstance(row, list) and len(row) == 3, f"{key} rows are triples")
        g, f, v = row
        _expect((g, f) not in out or out[(g, f)] == v,
                f"conflicting {key} rows for ({g!r}, {f!r})")
        out[(g, f)] = v
    return out


def _pairs(doc, key):
    out = {}
    for row in doc.get(key, ()):
        _expect(isinstance(row, list) and len(row) == 2, f"{key} entries are pairs")
        src, dst = row
        _expect(src not in out or out[src] == dst, f"conflicting {key} entry {src!r}")
        out[src] = dst
    return out


def document_to_category(doc):
    """Parse and complete a 2-category document; the result is well formed."""
    _expect(isinstance(doc, dict), "a 2-category document is a JSON object")
    _expect("objects" in doc, "missing the objects field")
    try:
        cat = build_two_category(
            objects=doc["objects"],
            one_cells=_cells(doc, "one_cells", "dom", "cod"),
            two_cells=_cells(doc, "two_cells", "vdom", "vcod"),
            one_identity=_pairs(doc, "one_identity") or None,
            one_compose=_rows(doc, "compose1"),
            two_identity=_pairs(doc, "two_identity") or None,
            vert_compose=_rows(doc, "vcompose"),
            horiz_compose=_rows(doc, "hcompose"),
        )
    except (TypeError, KeyError) as exc:
        raise MalformedData(f"bad 2-category document: {exc}") from exc
    check_well_formed(cat)
    return cat


def functor_to_document(fun):
    return {
        "source": category_to_document(fun.source),
        "target": category_to_document(fun.target),
        "f0": sorted([k, v] for k, v in fun.f0.items()),
        "f1": sorted([k, v] for k, v in fun.f1.items()),
        "f2": sorted([k, v] for k, v in fun.f2.items()),
    }


def document_to_functor(doc):
    _expect(isinstance(doc, dict), "a functor document is a JSON object")
    for key in ("source", "target", "f0", "f1", "f2"):
        _expect(key in doc, f"missing the {key} field")
    source = document_to_category(doc["source"])
    target = document_to_category(doc["target"])
    fun = TwoFunctor(
        source=source,
        target=target,
        f0=_pairs(doc, "f0"),
        f1=_pairs(doc, "f1"),
        f2=_pairs(doc, "f2"),
    )
    # entries for synthesized identities need not be spelled out in the maps
    f0, f1, f2 = dict(fun.f0), dict(fun.f1), dict(fun.f2)
    for x in source.objects:
        if x in f0 and f0[x] in target.one_identity:
            f1.setdefault(source.one_identity[x], target.one_identity[f0[x]])
    for h in source.one_cells:
        if h in f1 and f1[h] in target.two_identity:
            f2.setdefault(source.two_identity[h], target.two_identity[f1[h]])
    return TwoFunctor(source=source, target=target, f0=f0, f1=f1, f2=f2)


def parse_document(text):
    """Parse JSON text into a 2-category or a 2-functor by shape."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedData(f"not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and "f0" in doc:
        return document_to_functor(doc)
    return document_to_category(doc)


def to_document(value):
    if isinstance(value, TwoFunctor):
        return functor_to_document(value)
    if isinstance(value, TwoCategory):
        return category_to_document(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")
