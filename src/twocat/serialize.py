"""JSON interchange documents for 2-categories and 2-functors.

A 2-category document is a single object with ``objects``, ``one_cells``
(``{id, dom, cod}``), ``compose1`` (``[g, f, gf]`` rows), ``two_cells``
(``{id, vdom, vcod}``) and ``vcompose``/``hcompose`` rows.  Identity cells
and the table rows forced by the unit laws may be omitted on input and are
synthesized; output omits only the rows synthesized with the same value,
so a document reads back as the category it was written from.  The
optional ``one_identity``/``two_identity`` fields (always emitted) pin
down identities whose names do not carry the reserved ``id:``/``vid:``
prefixes.  A functor document embeds its ``source`` and
``target`` and carries ``f0``/``f1``/``f2`` as ``[from, to]`` pairs.
Printing is canonical: sorted arrays, sorted keys, two-space indent, one
trailing newline, so print-parse-print is byte stable.  :func:`dumps` also
takes 2-categories and 2-functors and writes their documents straight from
the carriers, without building the intermediate document.
"""

import json
from json.encoder import encode_basestring_ascii

from .core import TwoCategory, TwoFunctor, _check_rows, _listed_rows, build_two_category
from .errors import MalformedData


def dumps(value):
    """The bytes of ``json.dumps(value, indent=2, sort_keys=True) + "\\n"``.

    Keys must be strings.  2-categories and 2-functors are written straight
    from their carriers, without an intermediate document.  ``indent`` would
    make the standard library use its pure-Python encoder, at twice the time.
    The text is written in chunks to one list, which is joined once.
    """
    out = []
    _write(value, "\n", out, {})
    return "".join(out + ["\n"])


def _write(value, newline, out, memo):
    """Append the JSON text of ``value`` to ``out``, its inner lines indented
    below ``newline``.  A 2-category is written at depth 0 once per call, into
    ``memo`` by ``id``, and re-indented by a replace: encoded strings hold no
    raw newline."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (dict, list, tuple)) and value:
        keyed, inner = isinstance(value, dict), newline + "  "
        opening = "{" if keyed else "["
        for item in sorted(value) if keyed else value:
            out.append(opening + inner + (encode_basestring_ascii(item) + ": " if keyed else ""))
            _write(value[item] if keyed else item, inner, out, memo)
            opening = ","
        out.append(newline + ("}" if keyed else "]"))
    elif isinstance(value, TwoCategory):
        if id(value) not in memo:
            memo[id(value)] = _category_text(value)
        out.append(memo[id(value)].replace("\n", newline))
    elif isinstance(value, TwoFunctor):
        inner = newline + "  "
        maps = (f'{inner}"{key}": {_pair_array(pairs(getattr(value, key)), inner)}'
                for key in ("f0", "f1", "f2"))
        out.append("{" + ",".join(maps))
        for key in ("source", "target"):
            out.append(f',{inner}"{key}": ')
            _write(getattr(value, key), inner, out, memo)
        out.append(newline + "}")
    else:
        out.append(json.dumps(value))


def _array(items, newline):
    """The JSON array of the item texts ``items``, closed at ``newline``."""
    inner = newline + "  "
    return f"[{inner}{(',' + inner).join(items)}{newline}]" if items else "[]"


def _pair_array(items, newline):
    """The JSON array of ``[x, y]`` id pairs, closed at ``newline``."""
    inner, end = newline + "    ", newline + "  "
    return _array([f"[{inner}{encode_basestring_ascii(x)},{inner}{encode_basestring_ascii(y)}{end}]"
                   for x, y in items], newline)


def _category_text(cat):
    """The depth-0 text of ``category_to_document(cat)``, written row by row:
    each field's rows are formatted and joined before the next field's, so
    the row texts of one table at a time are held."""
    q = {x: encode_basestring_ascii(x) for x in (*cat.objects, *cat.one_cells, *cat.two_cells)}
    field = "\n  "
    one, vert, horiz = _listed_rows(cat)

    def rows(table, keys):
        return [f"[\n      {q[g]},\n      {q[f]},\n      {q[table[g, f]]}\n    ]" for g, f in keys]

    def fields():
        yield '"compose1": ' + _array(rows(*one), field)
        yield '"hcompose": ' + _array(rows(*horiz), field)
        yield '"objects": ' + _array([q[x] for x in sorted(cat.objects)], field)
        yield '"one_cells": ' + _array([
            f'{{\n      "cod": {q[c]},\n      "dom": {q[d]},\n      "id": {q[u]}\n    }}'
            for u, (d, c) in sorted(cat.one_cells.items())], field)
        yield '"one_identity": ' + _pair_array(
            [(x, cat.one_identity[x]) for x in sorted(cat.objects)], field)
        yield '"two_cells": ' + _array([
            f'{{\n      "id": {q[t]},\n      "vcod": {q[c]},\n      "vdom": {q[d]}\n    }}'
            for t, (d, c) in sorted(cat.two_cells.items())], field)
        yield '"two_identity": ' + _pair_array(
            [(h, cat.two_identity[h]) for h in sorted(cat.one_cells)], field)
        yield '"vcompose": ' + _array(rows(*vert), field)

    return "{" + field + ("," + field).join(fields()) + "\n}"


def pairs(mapping):
    """The ``(from, to)`` entries of a cell map in key order, as documents list them."""
    return sorted(mapping.items())


def category_to_document(cat):
    """Canonical document for a 2-category; rows a reader restores are left out."""
    one, vert, horiz = ([[g, f, table[g, f]] for g, f in keys] for table, keys in _listed_rows(cat))
    return {
        "objects": sorted(cat.objects),
        "one_cells": [
            {"id": u, "dom": cat.one_cells[u][0], "cod": cat.one_cells[u][1]}
            for u in sorted(cat.one_cells)
        ],
        "one_identity": [[x, cat.one_identity[x]] for x in sorted(cat.objects)],
        "compose1": one,
        "two_cells": [
            {"id": t, "vdom": cat.two_cells[t][0], "vcod": cat.two_cells[t][1]}
            for t in sorted(cat.two_cells)
        ],
        "two_identity": [[h, cat.two_identity[h]] for h in sorted(cat.one_cells)],
        "vcompose": vert,
        "hcompose": horiz,
    }


def _expect(cond, message):
    if not cond:
        raise MalformedData(message)


def _listed(doc, key):
    rows = doc.get(key, [])
    _expect(isinstance(rows, list), f"the {key} field must be a list")
    return rows


def _cells(doc, key, first, second, names):
    # no _expect in the row loops: a message formatted per row costs more than the parse
    out, need = {}, {"id", first, second}
    for row in _listed(doc, key):
        if not (isinstance(row, dict) and need <= row.keys()):
            raise MalformedData(f"{key} entries need id/{first}/{second}")
        cell, low, high = row["id"], row[first], row[second]
        if not (isinstance(cell, str) and isinstance(low, str) and isinstance(high, str)):
            raise MalformedData(f"{key} ids and boundaries are strings")
        if cell in out:
            raise MalformedData(f"duplicate {key} id {cell!r}")
        out[names(cell, cell)] = (names(low, low), names(high, high))
    return out


def _rows(doc, key, names):
    out = {}
    for row in _listed(doc, key):
        if not (isinstance(row, list) and len(row) == 3):
            raise MalformedData(f"{key} rows are triples")
        g, f, v = row
        if not (isinstance(g, str) and isinstance(f, str) and isinstance(v, str)):
            raise MalformedData(f"{key} entries are strings")
        if out.setdefault((names(g, g), names(f, f)), names(v, v)) != v:
            raise MalformedData(f"conflicting {key} rows for ({g!r}, {f!r})")
    return out


def _pairs(doc, key, names):
    out = {}
    for row in _listed(doc, key):
        if not (isinstance(row, list) and len(row) == 2):
            raise MalformedData(f"{key} entries are pairs")
        src, dst = row
        if not (isinstance(src, str) and isinstance(dst, str)):
            raise MalformedData(f"{key} entries are strings")
        if out.setdefault(names(src, src), names(dst, dst)) != dst:
            raise MalformedData(f"conflicting {key} entry {src!r}")
    return out


def document_to_category(doc):
    """Parse and complete a 2-category document; the result is well formed."""
    return _category(doc, {}.setdefault)


def _category(doc, names):
    """:func:`document_to_category`, reading each id through ``names``, the
    ``setdefault`` of a memo kept for one document: every occurrence of an
    id is then one string object.  Only the rows the document lists are
    tested one by one; the unit rows the build adds compose by construction."""
    _expect(isinstance(doc, dict), "a 2-category document is a JSON object")
    objects = doc.get("objects")
    _expect(isinstance(objects, list) and all(isinstance(x, str) for x in objects),
            "the objects field must be a list of strings")
    try:
        cat = build_two_category(
            objects=[names(x, x) for x in objects],
            one_cells=_cells(doc, "one_cells", "dom", "cod", names),
            two_cells=_cells(doc, "two_cells", "vdom", "vcod", names),
            one_identity=_pairs(doc, "one_identity", names) or None,
            one_compose=(one := _rows(doc, "compose1", names)),
            two_identity=_pairs(doc, "two_identity", names) or None,
            vert_compose=(vert := _rows(doc, "vcompose", names)),
            horiz_compose=(horiz := _rows(doc, "hcompose", names)),
        )
    except (TypeError, KeyError) as exc:
        raise MalformedData(f"bad 2-category document: {exc}") from exc
    _check_rows(cat, (one, vert, horiz))
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
    names = {}.setdefault  # one string per id, shared by both ends and the maps
    source = _category(doc["source"], names)
    target = _category(doc["target"], names)
    # entries for synthesized identities need not be spelled out in the maps
    f0, f1, f2 = (_pairs(doc, key, names) for key in ("f0", "f1", "f2"))
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
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, or an over-long integer
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
