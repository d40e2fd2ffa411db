import contextlib
import dataclasses
import functools
import importlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import twocat as tc
from twocat import core, gallery, serialize
from twocat.cli import main
from twocat.serialize import (
    category_to_document,
    dumps,
    functor_to_document,
    parse_document,
    to_document,
)

from conftest import (
    chain_presentation,
    law_breaking_document,
    pick_functor,
    reference_category,
    seeded_functor,
)

GALLERY_NAMES = ("T", "T0", "T3", "v4", "h4", "vh4", "h4na", "terminal")


class TestRoundTrip:
    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_print_parse_print_is_byte_stable(self, name):
        from twocat.gallery import by_name

        cat = by_name(name)
        text = dumps(category_to_document(cat))
        back = parse_document(text)
        assert back == cat
        assert dumps(category_to_document(back)) == text

    def test_functor_documents_round_trip(self, t_family):
        fun = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
        text = dumps(functor_to_document(fun))
        back = parse_document(text)
        assert tc.functors_equal(back, fun)
        assert dumps(to_document(back)) == text

    def test_computed_objects_round_trip(self):
        apex = tc.product(tc.make_T(), tc.make_Tn(2)).apex
        text = dumps(category_to_document(apex))
        assert parse_document(text) == apex

    def test_omitted_identities_are_synthesized(self):
        doc = {
            "objects": ["a", "b"],
            "one_cells": [
                {"id": "h", "dom": "a", "cod": "b"},
                {"id": "h'", "dom": "a", "cod": "b"},
            ],
            "two_cells": [{"id": "t1", "vdom": "h", "vcod": "h'"}],
        }
        cat = parse_document(json.dumps(doc))
        assert cat == tc.make_T()

    def test_omitted_functor_identity_entries_are_synthesized(self, t_family):
        fun = pick_functor(t_family[1], t_family[2], t1="t1")
        doc = functor_to_document(fun)
        doc["f1"] = [[k, v] for k, v in doc["f1"] if not k.startswith("id:")]
        doc["f2"] = [[k, v] for k, v in doc["f2"] if not k.startswith("vid:")]
        back = parse_document(json.dumps(doc))
        assert tc.functors_equal(back, fun)

    def test_junk_json_is_malformed(self):
        with pytest.raises(tc.MalformedData):
            parse_document("{not json")

    def test_an_integer_too_long_to_read_is_malformed(self):
        # the standard library reads at most 4,300 digits into an int
        with pytest.raises(tc.MalformedData, match="not valid JSON"):
            parse_document('{"objects": [' + "1" * 5_000 + "]}")

    def test_partial_tables_are_malformed(self):
        doc = {
            "objects": ["a", "b", "c"],
            "one_cells": [
                {"id": "f", "dom": "a", "cod": "b"},
                {"id": "g", "dom": "b", "cod": "c"},
            ],
            "two_cells": [],
        }
        with pytest.raises(tc.MalformedData):
            parse_document(json.dumps(doc))  # m(g, f) is missing


def _next_cell(cells, value, skip=lambda cell: False):
    """The first cell after ``value`` in identifier order, cyclically, that
    ``skip`` does not reject, or None."""
    ordered = sorted(cells)
    at = ordered.index(value)
    return next(
        (cell for cell in ordered[at + 1:] + ordered[:at] if not skip(cell)), None
    )


def relaxed_variants(cat):
    """Copies of ``cat``, one per table row through an identity of its
    level, with that row sent to the next cell of the level; then one per
    identity entry, sent to the next cell of its level that is not a loop
    on the entry's cell.  Levels of a single cell give none."""
    ids = {"one_cells": set(cat.one_identity.values()), "two_cells": set(cat.two_identity.values())}
    for field, level in (
        ("one_compose", "one_cells"), ("vert_compose", "two_cells"), ("horiz_compose", "two_cells"),
    ):
        table, cells = getattr(cat, field), getattr(cat, level)
        for (g, f), value in table.items():
            new = _next_cell(cells, value)
            if (g in ids[level] or f in ids[level]) and new is not None:
                yield dataclasses.replace(cat, **{field: {**table, (g, f): new}})
    for field, level in (("one_identity", "one_cells"), ("two_identity", "two_cells")):
        identity, cells = getattr(cat, field), getattr(cat, level)
        for x, e in identity.items():
            new = _next_cell(cells, e, lambda cell: cells[cell] == (x, x))
            if new is not None:
                yield dataclasses.replace(cat, **{field: {**identity, x: new}})


class TestLosslessWriting:
    """Both writers leave a row out only when the reader restores it with
    the same value, so relaxed categories read back as themselves."""

    @pytest.mark.parametrize("name", ["T2", "v4", "h4na", "random"])
    def test_relaxed_categories_read_back_as_themselves(self, name):
        if name == "random":
            bases = [tc.random_instance(seed) for seed in range(20)]
        else:
            bases = [tc.gallery.by_name(name)]
        variants = 0
        for base in bases:
            for cat in relaxed_variants(base):
                text = dumps(cat)
                assert dumps(category_to_document(cat)) == text
                back = parse_document(text)
                assert back == cat
                report = list(tc.validate_two_category(cat).failures.items())
                assert list(tc.validate_two_category(back).failures.items()) == report
                assert report
                variants += 1
        assert variants > 10 * len(bases)

    def test_a_broken_unit_row_survives_reflect(self, tmp_path, capsys):
        doc = json.loads(dumps(tc.make_Tn(2)))
        doc["compose1"] = [["h", "id:a", "h'"]]
        file = tmp_path / "t2.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(file)]) == 1
        assert "1-unit: fail (h)" in capsys.readouterr().out
        assert main(["reflect", str(file)]) == 0
        reflected = tmp_path / "reflected.json"
        reflected.write_text(json.dumps(json.loads(capsys.readouterr().out)["reflected"]))
        assert main(["validate", str(reflected)]) == 1
        assert "1-unit: fail (h)" in capsys.readouterr().out.splitlines()


def inline_unit_rows(cat):
    """The compose1, vcompose and hcompose rows that the unit laws force on
    ``cat``, by a rule stated per row: a cell's identity on each side is
    looked up through the cell's boundary, and a row is forced only where
    that identity exists and has the boundary the pair needs to compose."""
    one_cells, one_identity = cat.one_cells, cat.one_identity
    two_cells, two_identity = cat.two_cells, cat.two_identity
    one, vert, horiz = forced = ({}, {}, {})
    none = (None, None)
    for f, (d, c) in one_cells.items():
        if (e := one_identity.get(d)) is not None and one_cells.get(e, none)[1] == d:
            one.setdefault((f, e), f)
        if (e := one_identity.get(c)) is not None and one_cells.get(e, none)[0] == c:
            one.setdefault((e, f), f)
    for t, (vd, vc) in two_cells.items():
        if (e := two_identity.get(vd)) is not None and two_cells.get(e, none)[1] == vd:
            vert.setdefault((t, e), t)
        if (e := two_identity.get(vc)) is not None and two_cells.get(e, none)[0] == vc:
            vert.setdefault((e, t), t)
        hd, hc = one_cells.get(vd, none)
        if (e := two_identity.get(one_identity.get(hd))) is not None:
            if one_cells.get(two_cells.get(e, none)[0], none)[1] == hd:
                horiz.setdefault((t, e), t)
        if (e := two_identity.get(one_identity.get(hc))) is not None:
            if one_cells.get(two_cells.get(e, none)[0], none)[0] == hc:
                horiz.setdefault((e, t), t)
    return forced


def missing_identity_variants(cat):
    """Copies of ``cat``, one per identity entry, with that entry naming a
    cell that is not there."""
    for field in ("one_identity", "two_identity"):
        identity = getattr(cat, field)
        for x in identity:
            yield dataclasses.replace(cat, **{field: {**identity, x: "missing"}})


def with_stray_unit_rows(cat):
    """``cat`` with explicit rows ``(g, e) -> g`` and ``(e, f) -> f`` for
    every identity ``e`` that a cell's boundary names, whether or not ``e``
    has the boundary to compose: where an identity is not a loop on its
    cell, these rows are keyed by pairs that do not compose."""
    one_cells, one_identity = cat.one_cells, cat.one_identity
    two_cells, two_identity = cat.two_cells, cat.two_identity
    one, vert, horiz = rows = ({}, {}, {})
    for f, (d, c) in one_cells.items():
        one[f, one_identity[d]], one[one_identity[c], f] = f, f
    for t, (vd, vc) in two_cells.items():
        vert[t, two_identity[vd]], vert[two_identity[vc], t] = t, t
        hd, hc = one_cells[vd]
        if one_identity[hd] in two_identity:
            horiz[t, two_identity[one_identity[hd]]] = t
        if one_identity[hc] in two_identity:
            horiz[two_identity[one_identity[hc]], t] = t
    fields = ("one_compose", "vert_compose", "horiz_compose")
    return dataclasses.replace(cat, **{
        field: {**extra, **getattr(cat, field)} for field, extra in zip(fields, rows)
    })


class TestListingRuleMatchesTheInlineRule:
    """A document lists exactly the rows that the per-row unit rule does
    not force with the same value, on valid and relaxed categories alike."""

    @staticmethod
    def categories(name):
        if name == "corpus":
            return list(document_corpus().values())
        if name == "random":
            bases = [tc.random_instance(seed) for seed in range(20)]
            return bases + [cat for base in bases for cat in relaxed_variants(base)]
        base = tc.gallery.by_name(name)
        relaxed = [*relaxed_variants(base), *missing_identity_variants(base)]
        return relaxed + [with_stray_unit_rows(cat) for cat in relaxed]

    @pytest.mark.parametrize("name", ["corpus", "T2", "v4", "h4na", "random"])
    def test_listed_keys(self, name):
        for cat in self.categories(name):
            tables = (cat.one_compose, cat.vert_compose, cat.horiz_compose)
            listed = core._listed_rows(cat)
            assert [table for table, _ in listed] == list(tables)
            assert [keys for _, keys in listed] == [
                sorted(key for key, v in table.items() if forced.get(key) != v)
                for table, forced in zip(tables, inline_unit_rows(cat))
            ]


class TestWritingSynthesizesNothing:
    """Both writers decide which rows to leave out without building the
    rows the unit laws force."""

    def test_writers_build_no_unit_rows(self, monkeypatch):
        cover, p = tc.edm_cover(tc.make_v4())
        categories = [cover, next(relaxed_variants(cover)), *relaxed_variants(tc.make_Tn(2))]
        written = [(dumps(cat), category_to_document(cat)) for cat in categories]
        projection = dumps(p)

        def refuse(*args):
            raise AssertionError("a writer synthesized the unit rows")

        monkeypatch.setattr(core, "_add_unit_rows", refuse)
        assert dumps(p) == projection
        for cat, (text, doc) in zip(categories, written):
            assert dumps(cat) == text
            assert category_to_document(cat) == doc


class TestLooseIngest:
    """Identifiers are strings; anything else is malformed (exit 2)."""

    DOCUMENTS = {
        "objects-as-a-string": {"objects": "ab"},
        "integer-objects": {"objects": [1, 2]},
        "integer-cell-id": {
            "objects": ["a", "b"],
            "one_cells": [{"id": "h", "dom": "a", "cod": "b"}],
            "two_cells": [{"id": 7, "vdom": "h", "vcod": "h"}],
        },
    }

    @pytest.mark.parametrize("name", DOCUMENTS)
    def test_parse_raises_malformed_data(self, name):
        with pytest.raises(tc.MalformedData, match="strings"):
            parse_document(json.dumps(self.DOCUMENTS[name]))

    @pytest.mark.parametrize("name", DOCUMENTS)
    def test_validate_exits_two_with_one_error_line(self, tmp_path, capsys, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(self.DOCUMENTS[name]), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [b"[" * 100_000, b"\xff\xfe", b'{"objects": [' + b"1" * 5_000 + b"]}"],
        ids=["deeply-nested", "not-utf-8", "long-integer"],
    )
    def test_unreadable_bytes_exit_two_with_one_error_line(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_non_string_functor_entries_are_malformed(self, t_family):
        doc = functor_to_document(tc.identity_two_functor(t_family[1]))
        doc["f0"][0][1] = 0
        with pytest.raises(tc.MalformedData, match="f0 entries are strings"):
            parse_document(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, value",
        [(("f0",), 5), (("f1",), None), (("f2",), "t1"), (("source", "vcompose"), {"t1": "t1"})],
        ids=["f0-int", "f1-null", "f2-string", "source-vcompose-object"],
    )
    def test_non_list_fields_exit_two_with_one_error_line(self, tmp_path, capsys, path, value):
        doc = functor_to_document(tc.identity_two_functor(tc.make_T()))
        *outer, key = path
        functools.reduce(dict.__getitem__, outer, doc)[key] = value
        file = tmp_path / "functor.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["classify", str(file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the {key} field must be a list\n"


def _fuzz_cases():
    """(document kind, field path) for every field of the T documents."""
    category_fields = [(key,) for key in category_to_document(tc.make_T())]
    functor_fields = [("source",), ("target",), ("f0",), ("f1",), ("f2",)] + [
        (end, *field) for end in ("source", "target") for field in category_fields
    ]
    return [("category", p) for p in category_fields] + [("functor", p) for p in functor_fields]


#: The subcommands that read each document kind, with ``{}`` for the file.
FUZZED_COMMANDS = {
    "category": (["validate", "{}"], ["reflect", "{}"], ["edm-cover", "{}"], ["iso", "{}", "{}"]),
    "functor": (
        ["classify", "--oracle", "{}"],
        ["factor", "--system", "reflective", "{}"],
        ["factor", "--system", "monotone-light", "{}"],
        ["pullback", "{}", "{}"],
    ),
}


class TestFuzzedFields:
    """A field of a T document replaced by a value of the wrong JSON type."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        case=st.sampled_from(_fuzz_cases()),
        value=st.sampled_from([7, None, "x", {"id": "h"}]),
    )
    def test_every_subcommand_ends_in_a_documented_exit(self, tmp_path_factory, case, value):
        kind, path = case
        T = tc.make_T()
        doc = category_to_document(T) if kind == "category" else functor_to_document(
            tc.identity_two_functor(T)
        )
        *outer, key = path
        functools.reduce(dict.__getitem__, outer, doc)[key] = value
        file = tmp_path_factory.mktemp("fuzz") / "doc.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        _run_documented(kind, file)


def _run_documented(kind, file, commands=None):
    """Run ``commands``, by default every subcommand that reads ``kind``, on
    ``file``: each must end in a documented exit without a traceback, and
    write JSON at exit 0 (but ``validate``, which writes report lines).
    Returns what each run gave."""
    runs = []
    for command in commands or FUZZED_COMMANDS[kind]:
        code, out, err = _run(command, file)
        assert code in (0, 1, 2, 3), command
        assert "Traceback" not in err, command
        if code == 0 and command[0] != "validate":
            json.loads(out)
        runs.append((command, code, out, err))
    return runs


def _run(command, file):
    """Exit code, stdout and stderr of ``command`` with ``{}`` read as ``file``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(file) if arg == "{}" else arg for arg in command])
    return code, out.getvalue(), err.getvalue()


@functools.cache
def _identity_document_text(name):
    return json.dumps(functor_to_document(tc.identity_two_functor(tc.gallery.by_name(name))))


def _edit_rows(tables, cells, edit, index, shift):
    """Drop, duplicate or retarget (to another of ``cells``) the same row of
    each of ``tables``."""
    i = index % len(tables[0])
    for rows in tables:
        row = rows[i]
        if edit == "drop":
            del rows[i]
        elif edit == "duplicate":
            rows.insert(i, list(row))
        else:
            others = [cell for cell in cells if cell != row[-1]]
            rows[i] = [*row[:-1], others[shift % len(others)]]


class TestFuzzedRows:
    """One row of an identity-functor document, or of one of its ends,
    dropped, duplicated or retargeted; a functor's row is edited in both ends
    alike."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(["h4", "h4na", "T3", "v4"]),
        key=st.sampled_from(["compose1", "vcompose", "hcompose", "f1", "f2"]),
        edit=st.sampled_from(["drop", "duplicate", "retarget"]),
        index=st.integers(0, 10**6),
        shift=st.integers(0, 10**6),
    )
    def test_functor_commands_end_in_a_documented_exit(
        self, tmp_path_factory, name, key, edit, index, shift
    ):
        doc = json.loads(_identity_document_text(name))
        if key in ("f1", "f2"):
            tables, level = [doc[key]], "one_cells" if key == "f1" else "two_cells"
        else:
            tables = [doc["source"][key], doc["target"][key]]
            level = "one_cells" if key == "compose1" else "two_cells"
        assume(tables[0])
        _edit_rows(tables, sorted(cell["id"] for cell in doc["target"][level]), edit, index, shift)
        file = tmp_path_factory.mktemp("rows") / "doc.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        for command, code, out, err in _run_documented("functor", file):
            if code == 1 and command[0] in ("pullback", "factor"):
                # a failed check writes its report; a construction that met a
                # broken law writes one error line and nothing else
                if out:
                    json.loads(out)
                    assert err == "", command
                else:
                    assert err.startswith("error: ") and err.count("\n") == 1, command

    # h4 is left out: edm-cover takes most of a second on it
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        name=st.sampled_from(["h4na", "T3", "v4"]),
        key=st.sampled_from(["one_identity", "compose1", "two_identity", "vcompose", "hcompose"]),
        edit=st.sampled_from(["drop", "duplicate", "retarget"]),
        index=st.integers(0, 10**6),
        shift=st.integers(0, 10**6),
    )
    def test_category_commands_end_in_a_documented_exit(
        self, tmp_path_factory, name, key, edit, index, shift
    ):
        doc = json.loads(_identity_document_text(name))["source"]
        level = "one_cells" if key in ("one_identity", "compose1") else "two_cells"
        assume(doc[key])
        _edit_rows([doc[key]], sorted(cell["id"] for cell in doc[level]), edit, index, shift)
        file = tmp_path_factory.mktemp("rows") / "doc.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        _run_documented("category", file)


def _chain(length, doubled):
    """The free 2-preorder on :func:`conftest.chain_presentation`."""
    return tc.free_two_preorder(chain_presentation(length, doubled))


class TestDeepChains:
    """Free 2-preorders on paths of up to 30 objects, whose 1-cells compose
    to paths up to the whole length: every subcommand, and ``iso`` under
    raised caps too, ends in a documented exit on the chain or its identity
    functor.  All but ``iso`` under the default caps, which the larger
    chains exceed, succeed, and so does ``edm-cover`` on the chains whose
    cover fits its budget; on the others it stops with exit 3.  The budget
    is lowered here to the cover of a 6-object chain (7,560 2-cells, about
    a third of a second), so that the longer chains stop without building
    covers of up to a gigabyte."""

    @settings(max_examples=3, derandomize=True, deadline=None)
    @example(length=30, step=14)
    @given(length=st.integers(1, 30), step=st.none() | st.integers(0, 10**6))
    def test_every_subcommand_ends_in_a_documented_exit(self, tmp_path_factory, length, step):
        doubled = None if step is None or length < 2 else step % (length - 1)
        cat = _chain(length, doubled)
        directory = tmp_path_factory.mktemp("chain")
        files = {"category": directory / "category.json", "functor": directory / "functor.json"}
        files["category"].write_text(dumps(to_document(cat)), encoding="utf-8")
        identity = tc.identity_two_functor(cat)
        files["functor"].write_text(dumps(to_document(identity)), encoding="utf-8")
        budget = 8_000
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tc.gallery, "EDM_COVER_MAX_TWO_CELLS", budget)
            capped = {"iso": (0, 3), "edm-cover": (0,) if _cover_two_cells(cat) <= budget else (3,)}
            for kind, file in files.items():
                commands = list(FUZZED_COMMANDS[kind])
                if kind == "category":
                    commands.append(["--cap", "2000", "iso", "{}", "{}"])
                for command, code, out, err in _run_documented(kind, file, commands):
                    assert code in capped.get(command[0], (0,)), command
                    if code == 3:
                        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_the_budget_admits_a_path_of_15_objects_and_not_16(self, tmp_path):
        assert _cover_two_cells(_chain(15, None)) == 178_920 <= tc.gallery.EDM_COVER_MAX_TWO_CELLS
        cat = _chain(16, None)
        assert _cover_two_cells(cat) == 226_440 > tc.gallery.EDM_COVER_MAX_TWO_CELLS
        file = tmp_path / "category.json"
        file.write_text(dumps(to_document(cat)), encoding="utf-8")
        code, out, err = _run(["edm-cover", "{}"], file)
        assert (code, out) == (3, "") and err.startswith("error: ") and err.count("\n") == 1


def _cover_two_cells(cat):
    """The 2-cells of the descent cover of ``cat``, one v4 per vertical and
    one h4 per horizontal triple."""
    return sum(
        len(part.two_cells) * sum(1 for _ in core._chains(ends, 3))
        for part, ends in ((tc.make_v4(), cat.two_cells), (tc.make_h4(), cat.horiz_ends()))
    )


#: The pieces of relabeled identifiers: the delimiters of computed names.
DELIMITERS = ("(", ")", "|", "\\", "=>", " ")

#: The subcommands run on a relabeled identity functor and on its source,
#: with ``{}`` for the file of that document kind.
RELABELED_COMMANDS = (
    ("functor", ["pullback", "{}", "{}"]),
    ("functor", ["factor", "--system", "reflective", "{}"]),
    ("functor", ["factor", "--system", "monotone-light", "{}"]),
    ("functor", ["classify", "--oracle", "{}"]),
    ("category", ["reflect", "{}"]),
    ("category", ["edm-cover", "{}"]),
)


def _relabel(value, names):
    """A document with every identifier in it renamed by ``names``."""
    if isinstance(value, dict):
        return {key: _relabel(item, names) for key, item in value.items()}
    if isinstance(value, list):
        return [_relabel(item, names) for item in value]
    return names[value]


def _run_relabeled(directory, doc):
    """Exit code, stdout and stderr of each of ``RELABELED_COMMANDS`` on the
    functor document ``doc`` or its source."""
    files = {"functor": directory / "functor.json", "category": directory / "category.json"}
    files["functor"].write_text(json.dumps(doc), encoding="utf-8")
    files["category"].write_text(json.dumps(doc["source"]), encoding="utf-8")
    return [_run(command, files[kind]) for kind, command in RELABELED_COMMANDS]


@functools.cache
def _plain_runs(name):
    """What ``_run_relabeled`` gives on the identity functor of ``name`` as it is."""
    with tempfile.TemporaryDirectory() as directory:
        return _run_relabeled(Path(directory), json.loads(_identity_document_text(name)))


class TestDelimiterIdentifiers:
    """Identity functors of T and T3 whose ids are built from the
    delimiters of computed names: every subcommand ends as it does on the
    plain ids, and the computed pullback apex and factorization middles
    keep their carrier sizes, so no two computed names merge."""

    # ids of T in document order: a, b; h, h', id:a, id:b; t1, vid:h, ...
    # There (h=>h'|t1) and (h=>h|vid:h) both read "((|)=>(|)| )" unescaped.
    COLLIDING = ["=>", "\\", "(|)", "(", "|", ")", ")| ", " ", "((", "))", "||", "=>=>", "\\\\"]

    @settings(max_examples=40, derandomize=True, deadline=None)
    @example(name="T", labels=COLLIDING)
    @given(
        name=st.sampled_from(["T", "T3"]),
        labels=st.lists(
            st.lists(st.sampled_from(DELIMITERS), min_size=1, max_size=5).map("".join),
            min_size=13,
            max_size=13,
            unique=True,
        ),
    )
    def test_subcommands_keep_their_outcome_and_sizes(self, tmp_path_factory, name, labels):
        doc = json.loads(_identity_document_text(name))
        source = doc["source"]
        cells = source["one_cells"] + source["two_cells"]
        ids = [*source["objects"], *(cell["id"] for cell in cells)]
        relabeled = _relabel(doc, dict(zip(ids, labels)))
        runs = _run_relabeled(tmp_path_factory.mktemp("delimiters"), relabeled)
        for (_, command), (code, out, err), (plain_code, plain_out, _) in zip(
            RELABELED_COMMANDS, runs, _plain_runs(name)
        ):
            assert code in (0, 1, 2, 3) and code == plain_code, command
            assert "Traceback" not in err, command
            if code == 0:
                payload, plain = json.loads(out), json.loads(plain_out)
                key = {"pullback": "apex", "factor": "middle"}.get(command[0])
                if key:
                    levels = ("objects", "one_cells", "two_cells")
                    sizes = [len(payload[key][level]) for level in levels]
                    assert sizes == [len(plain[key][level]) for level in levels], command


@pytest.fixture()
def workdir(tmp_path):
    def write(name, value):
        path = tmp_path / name
        path.write_text(dumps(to_document(value)), encoding="utf-8")
        return str(path)

    return tmp_path, write


class TestCommands:
    def test_validate_passes_on_the_probe(self, workdir, capsys):
        _, write = workdir
        assert main(["validate", write("t.json", tc.make_T())]) == 0
        out = capsys.readouterr().out
        assert "interchange: pass" in out

    def test_validate_flags_the_broken_probe(self, workdir, capsys):
        _, write = workdir
        assert main(["validate", write("na.json", tc.make_h4_na())]) == 1
        out = capsys.readouterr().out
        assert "h-assoc: fail (a23, a12, a01)" in out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"objects": ["x"], "one_cells": [{"id": "u", "dom": "x", "cod": "y"}]}')
        assert main(["validate", str(path)]) == 2

    def test_reflect_emits_document_and_fibers(self, workdir, capsys):
        _, write = workdir
        assert main(["reflect", write("t3.json", tc.make_Tn(3))]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fibers"]["t1"] == ["t1", "t2", "t3"]
        reflected = parse_document(json.dumps(payload["reflected"]))
        assert tc.is_two_preorder(reflected)

    def test_classify_with_oracles(self, workdir, capsys, t_family):
        _, write = workdir
        fun = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
        assert main(["classify", "--oracle", write("f.json", fun)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertical"] and not payload["covering"]
        assert payload["oracles_agree"]

    def test_factor_both_systems(self, workdir, capsys, t_family):
        _, write = workdir
        fun = write("f.json", pick_functor(t_family[1], t_family[2], t1="t1"))
        for system in ("reflective", "monotone-light"):
            assert main(["factor", f"--system={system}", fun]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["violations"] == []
            middle = parse_document(json.dumps(payload["middle"]))
            assert tc.validate_two_category(middle).all_pass

    def test_pullback_command(self, workdir, capsys, t_family):
        _, write = workdir
        f = write("f.json", pick_functor(t_family[2], t_family[1], t1="t1", t2="t1"))
        g = write("g.json", tc.identity_two_functor(t_family[1]))
        assert main(["pullback", f, g]) == 0
        payload = json.loads(capsys.readouterr().out)
        apex = parse_document(json.dumps(payload["apex"]))
        assert tc.find_isomorphism(apex, t_family[2]) is not None

    def test_pullback_stops_above_the_budget_before_building(
        self, workdir, capsys, monkeypatch, t_family
    ):
        _, write = workdir
        f = write("f.json", pick_functor(t_family[2], t_family[1], t1="t1", t2="t1"))
        g = write("g.json", tc.identity_two_functor(t_family[1]))
        other = write("other.json", tc.identity_two_functor(t_family[2]))
        size = len(t_family[2].two_cells)  # the apex is a copy of T2
        monkeypatch.setattr(gallery, "EDM_COVER_MAX_TWO_CELLS", size - 1)
        monkeypatch.setattr(tc.limits, "_apex", None)
        assert main(["pullback", f, g]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the pullback has {size} 2-cells, more than {size - 1}\n"
        assert main(["pullback", f, other]) == 2  # mismatched targets are checked first
        capsys.readouterr()
        monkeypatch.undo()
        monkeypatch.setattr(gallery, "EDM_COVER_MAX_TWO_CELLS", size)
        assert main(["pullback", f, g]) == 0
        assert len(json.loads(capsys.readouterr().out)["apex"]["two_cells"]) == size

    def test_edm_cover_reports_summand_counts(self, workdir, capsys):
        _, write = workdir
        assert main(["edm-cover", write("t.json", tc.make_T())]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summands"] == {"vertical": 7, "horizontal": 11}

    def test_gallery_emits_named_objects(self, capsys):
        assert main(["gallery", "T"]) == 0
        assert parse_document(capsys.readouterr().out) == tc.make_T()

    def test_gallery_rejects_unknown_names(self, capsys):
        assert main(["gallery", "mystery"]) == 2

    def test_gallery_rejects_a_count_that_is_no_decimal_number(self, capsys):
        # "\u00b2" (superscript two) passes str.isdigit but int() refuses it
        assert main(["gallery", "T\u00b2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown gallery name 'T\u00b2'\n"

    @pytest.mark.parametrize("count", ["9" * 5000, "1000000000"], ids=["5000-digits", "1e9"])
    def test_gallery_refuses_a_count_over_the_budget_before_building(
        self, monkeypatch, capsys, count
    ):
        # past 4,300 digits int() itself refuses; a build would call make_Tn
        monkeypatch.setattr(gallery, "make_Tn", None)
        assert main(["gallery", f"T{count}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        most = gallery.EDM_COVER_MAX_TWO_CELLS - 4
        assert captured.err == (
            f"error: T<n> for n above {most} has more than "
            f"{gallery.EDM_COVER_MAX_TWO_CELLS} 2-cells\n"
        )

    def test_iso_finds_and_refuses(self, workdir, capsys):
        _, write = workdir
        a = write("a.json", tc.make_T())
        b = write("b.json", tc.reflect(tc.make_Tn(3)).reflected)
        c = write("c.json", tc.make_Tn(2))
        assert main(["iso", a, b]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f0"]
        assert main(["iso", a, c]) == 1

    def test_iso_cap_exit_code(self, workdir):
        _, write = workdir
        a = write("a.json", tc.make_T())
        assert main(["--cap", "1", "iso", a, a]) == 3

    def test_deep_iso_search_under_raised_caps(self, workdir, capsys):
        _, write = workdir
        a = write("a.json", tc.make_vh4())
        b = write("b.json", tc.make_vh4())
        assert main(["--cap", "10000", "iso", a, b]) == 0
        assert json.loads(capsys.readouterr().out)["f2"]

    def test_missing_file_is_malformed(self):
        assert main(["validate", "/nonexistent/place.json"]) == 2

    def test_a_dash_reads_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(dumps(to_document(tc.make_T()))))
        assert main(["validate", "-"]) == 0
        assert "interchange: pass" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, kind",
        [("validate", "2-category"), ("classify", "2-functor"), ("edm-cover", "2-category")],
    )
    def test_a_document_of_the_other_kind(self, workdir, capsys, t_family, command, kind):
        _, write = workdir
        value = tc.identity_two_functor(t_family[1]) if kind == "2-category" else t_family[1]
        path = write("other.json", value)
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path!r} does not hold a {kind} document\n"

    def test_iso_reads_a_cap_per_level(self, workdir, capsys):
        _, write = workdir
        a = write("a.json", tc.make_T())  # carriers (2, 4, 5)
        assert main(["--cap", "2,8,8", "iso", a, a]) == 0
        assert json.loads(capsys.readouterr().out)["f2"]
        assert main(["--cap", "2,8,4", "iso", a, a]) == 3

    @pytest.mark.parametrize("cap", ["x", "2,8", "2,8,x"])
    def test_iso_rejects_a_cap_of_another_form(self, workdir, capsys, cap):
        _, write = workdir
        a = write("a.json", tc.make_T())
        assert main(["--cap", cap, "iso", a, a]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --cap wants N or N0,N1,N2\n"


class TestLawBreakingInput:
    @pytest.fixture()
    def files(self, tmp_path):
        cat = parse_document(json.dumps(law_breaking_document()))
        paths = {}
        for name, value in (("cat", cat), ("id", tc.identity_two_functor(cat))):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(dumps(to_document(value)), encoding="utf-8")
        # the identity of h4 with a 1-cell composite retargeted in both ends:
        # it loads, and neither classify's predicates nor its oracles meet the
        # broken law, so only the law check of the ends rejects it
        doc = json.loads(_identity_document_text("h4"))
        cells = sorted(cell["id"] for cell in doc["target"]["one_cells"])
        _edit_rows([doc["source"]["compose1"], doc["target"]["compose1"]], cells, "retarget", 13, 0)
        paths["relaxed"] = tmp_path / "relaxed.json"
        paths["relaxed"].write_text(json.dumps(doc), encoding="utf-8")
        return paths

    COMMANDS = (
        ("reflect", "cat"),
        ("classify --oracle", "id"),
        ("classify --oracle", "relaxed"),
        ("factor --system=reflective", "id"),
        ("factor --system=monotone-light", "id"),
        ("edm-cover", "cat"),
    )

    @pytest.mark.parametrize("command, doc", COMMANDS)
    def test_exit_one_with_a_single_error_line(self, files, capsys, command, doc):
        assert main(command.split() + [str(files[doc])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: boundary law fails at ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, doc", COMMANDS)
    def test_optimized_interpreter_gives_the_same_exit(self, files, command, doc):
        env = dict(os.environ, PYTHONPATH=str(Path(tc.__file__).resolve().parents[1]))
        run = subprocess.run(
            [sys.executable, "-O", "-m", "twocat.cli", *command.split(), str(files[doc])],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run.returncode == 1
        assert run.stdout == ""
        assert "Traceback" not in run.stderr


class TestFirstRecordedFailure:
    """An input that fails several laws is refused with the first law that
    the reference's ``validate_two_category`` records, not the least."""

    #: A gallery object and one composition row retargeted: the table,
    #: the row's pair and its new composite.
    EDITS = {
        "h4 compose1": ("h4", "compose1", ["b1", "b0"], "b0.t1"),
        "h4na hcompose": ("h4na", "hcompose", ["a13", "a01"], "a03"),
    }

    @pytest.fixture(params=sorted(EDITS))
    def broken(self, request):
        name, table, pair, composite = self.EDITS[request.param]
        doc = json.loads(_identity_document_text(name))
        for end in (doc["source"], doc["target"]):
            (row,) = [row for row in end[table] if row[:2] == pair]
            row[2] = composite
        return doc

    @pytest.mark.parametrize("command, part", [("classify --oracle", None), ("edm-cover", "source")])
    def test_the_error_names_the_first_recorded_law(
        self, tmp_path, capsys, reference, reference_serialize, broken, command, part
    ):
        doc = broken[part] if part else broken
        failures = reference.validate_two_category(
            reference_serialize.parse_document(json.dumps(broken["source"]))
        ).failures
        assert len(failures) >= 2
        law, cells = next(iter(failures.items()))
        file = tmp_path / "input.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(command.split() + [str(file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {law} law fails at ({', '.join(cells)})\n"


def standard_dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def as_documents(value):
    """``value`` with every 2-category and 2-functor in it replaced by its document."""
    if isinstance(value, (tc.TwoCategory, tc.TwoFunctor)):
        return to_document(value)
    if isinstance(value, dict):
        return {key: as_documents(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_documents(item) for item in value]
    return value


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=40,
)


class TestDumpsMatchesTheStandardLibrary:
    """``dumps`` gives the bytes of ``json.dumps(indent=2, sort_keys=True)``."""

    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_gallery_documents(self, name):
        doc = category_to_document(tc.gallery.by_name(name))
        assert dumps(doc) == standard_dumps(doc)

    def test_one_document_of_each_subcommand(self, workdir, monkeypatch, t_family):
        _, write = workdir
        printed = []

        def recording(doc):
            printed.append(doc)
            return dumps(doc)

        monkeypatch.setattr("twocat.cli.dumps", recording)
        fun = write("f.json", pick_functor(t_family[2], t_family[1], t1="t1", t2="t1"))
        one = write("one.json", tc.identity_two_functor(t_family[1]))
        t3 = write("t3.json", tc.make_Tn(3))
        commands = (
            ["reflect", t3],
            ["classify", "--oracle", fun],
            ["factor", "--system=reflective", fun],
            ["factor", "--system=monotone-light", fun],
            ["pullback", fun, one],
            ["edm-cover", write("t.json", tc.make_T())],
            ["gallery", "v4"],
            ["iso", t3, t3],
        )
        for argv in commands:
            assert main(argv) == 0
        assert len(printed) == len(commands)
        for doc in printed:
            assert dumps(doc) == standard_dumps(as_documents(doc))

    @pytest.mark.parametrize(
        "value",
        [
            {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}], (1, (2, 3)),
            True, False, None, 0, -7, 2**70, 0.1, -2.5e-300, 1e16,
            float("nan"), float("inf"), {"k": [True, None, 1.5, "x"]},
            "", "quote \" backslash \\ slash /", "\n\t\r\b\f\x00\x1f\x7f",
            "café ∘ 2-cell ⇒ 𝔸", {"⇒": "é", "b\"": "\u2028", "a": 1},
        ],
    )
    def test_edge_values(self, value):
        assert dumps(value) == standard_dumps(value)

    @given(JSON_VALUES)
    def test_nested_json_values(self, value):
        assert dumps(value) == standard_dumps(value)


@functools.lru_cache(maxsize=None)
def constructions():
    """Gallery objects, random instances and what the constructions return.

    Returns the 2-categories and the 2-functors, each by name.
    """
    cats = {name: tc.gallery.by_name(name) for name in GALLERY_NAMES}
    cats.update((f"random{seed}", tc.random_instance(seed)) for seed in range(40))
    t_family = [tc.make_Tn(n) for n in range(4)]
    funs = [pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")]
    funs += [seeded_functor(seed) for seed in range(10)]
    cats["product"] = tc.product(t_family[1], t_family[2]).apex
    functors = {}
    for i, fun in enumerate(funs):
        square = tc.pullback(fun, fun)
        reflection = tc.reflect(fun.source)
        reflective, monotone_light = tc.reflective_factor(fun), tc.monotone_light_factor(fun)
        cats[f"pullback{i}"] = square.apex
        cats[f"reflection{i}"] = reflection.reflected
        cats[f"reflective{i}"] = reflective.middle
        cats[f"monotone-light{i}"] = monotone_light.middle
        functors.update({
            f"functor{i}": fun,
            f"proj1-{i}": square.proj1,
            f"proj2-{i}": square.proj2,
            f"unit{i}": reflection.unit,
            f"reflective-e{i}": reflective.e,
            f"reflective-m{i}": reflective.m,
            f"monotone-light-e{i}": monotone_light.e,
            f"monotone-light-m{i}": monotone_light.m,
        })
    return cats, functors


def document_corpus():
    """The 2-categories of :func:`constructions`, by name."""
    return constructions()[0]


def full_document(cat):
    """The document of ``cat`` with the rows forced by the unit laws kept."""
    doc = category_to_document(cat)
    for key, table in (
        ("compose1", cat.one_compose),
        ("vcompose", cat.vert_compose),
        ("hcompose", cat.horiz_compose),
    ):
        doc[key] = sorted([g, f, v] for (g, f), v in table.items())
    return doc


def parsed(module, doc):
    """The fields of the category a serialize ``module`` reads, or its error."""
    try:
        cat = module.parse_document(dumps(doc))
    except module.MalformedData as exc:
        return "MalformedData", str(exc)
    return {field.name: getattr(cat, field.name) for field in dataclasses.fields(cat)}


def broken_documents():
    """One malformed variant of the h4 document per kind of ingest error."""
    cat = tc.make_h4()
    g, f = next(
        (g, f) for f in sorted(cat.one_cells) for g in sorted(cat.one_cells)
        if cat.dom(g) != cat.cod(f)
    )
    edits = {
        "unknown endpoint": lambda doc: doc["one_cells"][0].update(dom="nowhere"),
        "unknown boundary": lambda doc: doc["two_cells"][0].update(vdom="nothing"),
        "non-composable row": lambda doc: doc["compose1"].append([g, f, g]),
        "missing row": lambda doc: doc["compose1"].pop(0),
    }
    out = {}
    for name, edit in edits.items():
        doc = category_to_document(cat)
        edit(doc)
        out[name] = doc
    return out


class TestDocumentsMatchTheReference:
    """Writing and reading documents agrees with the pinned reference."""

    def test_written_documents(self, reference, reference_serialize):
        for name, cat in document_corpus().items():
            twin = reference_category(reference, cat)
            assert category_to_document(cat) == reference_serialize.category_to_document(twin), name

    def test_unit_rows_and_identity_fields_may_be_left_out(self, reference_serialize):
        for name, cat in document_corpus().items():
            doc, full = category_to_document(cat), full_document(cat)
            variants = [doc, full]
            for keys in (("one_identity",), ("two_identity",), ("one_identity", "two_identity")):
                variants.append({k: v for k, v in doc.items() if k not in keys})
            if len(cat.two_cells) <= 16:
                for key in ("compose1", "vcompose", "hcompose"):
                    for row in full[key]:
                        if row not in doc[key]:
                            variants.append(dict(full, **{key: [r for r in full[key] if r != row]}))
            for variant in variants:
                assert parsed(serialize, variant) == parsed(reference_serialize, variant), name
            assert parse_document(dumps(doc)) == parse_document(dumps(full)) == cat, name

    @pytest.mark.parametrize("name", sorted(broken_documents()))
    def test_malformed_documents(self, name, reference_serialize):
        doc = broken_documents()[name]
        with pytest.raises(tc.MalformedData) as caught:
            parse_document(dumps(doc))
        assert parsed(reference_serialize, doc) == (
            "MalformedData",
            str(caught.value),
        )


def ids_of(value):
    """Every id occurrence in a 2-category or 2-functor: carriers, boundaries,
    identities, table keys and values and, for a functor, its ends and maps."""
    if isinstance(value, tc.TwoFunctor):
        maps = [x for m in (value.f0, value.f1, value.f2) for x in itertools.chain(*m.items())]
        return ids_of(value.source) + ids_of(value.target) + maps
    out = list(value.objects)
    for cells in (value.one_cells, value.two_cells):
        out += [x for cell, ends in cells.items() for x in (cell, *ends)]
    for identity in (value.one_identity, value.two_identity):
        out += itertools.chain(*identity.items())
    for table in (value.one_compose, value.vert_compose, value.horiz_compose):
        out += [x for key, v in table.items() for x in (*key, v)]
    return out


def ends_of(value):
    """The 2-categories a value's document holds: itself, or a functor's ends."""
    return (value.source, value.target) if isinstance(value, tc.TwoFunctor) else (value,)


def reserved_identities(cat):
    """Whether every identity of ``cat`` is named ``id:<x>`` or ``vid:<u>``."""
    return all(e == f"id:{x}" for x, e in cat.one_identity.items()) and all(
        e == f"vid:{u}" for u, e in cat.two_identity.items())


def without_identity_fields(doc):
    """A category or functor document without its identity fields."""
    if "source" in doc:
        return dict(doc, source=without_identity_fields(doc["source"]),
                    target=without_identity_fields(doc["target"]))
    return {k: v for k, v in doc.items() if k not in ("one_identity", "two_identity")}


def non_composable(cat, key):
    """The least pair of cells that does not compose in the table of ``key``."""
    ends = {"compose1": cat.one_cells, "vcompose": cat.two_cells, "hcompose": cat.horiz_ends()}[key]
    return next((g, f) for f in sorted(ends) for g in sorted(ends) if ends[g][0] != ends[f][1])


#: The carrier a table's values lie in, by document field.
TABLE_CELLS = {"compose1": "one_cells", "vcompose": "two_cells", "hcompose": "two_cells"}


def mutated_documents(cat):
    """The document of ``cat`` with one fault per kind a reader must catch
    or pass over as the reference does, by name: a listed row dropped or
    moved onto a pair that does not compose (the count of rows kept), a row
    appended that does not compose, a row onto an unknown cell, an identity
    that is not a loop, a forced unit row listed with another value, and
    two rows on one pair that disagree."""
    out = {}

    def edit(name, field, change):
        doc = category_to_document(cat)
        change(doc[field])
        out[name] = doc

    for key in ("compose1", "vcompose", "hcompose"):
        listed = category_to_document(cat)[key]
        cells = sorted(getattr(cat, TABLE_CELLS[key]))
        g, f = non_composable(cat, key)
        edit(f"{key} row appended", key, lambda rows: rows.append([g, f, g]))
        if listed:
            a, b, v = listed[0]
            other = next(c for c in cells if c != v)
            edit(f"{key} row dropped", key, lambda rows: rows.pop(0))
            edit(f"{key} row moved", key, lambda rows: rows.__setitem__(0, [g, f, v]))
            edit(f"{key} row unknown", key, lambda rows: rows.__setitem__(0, [a, b, "?"]))
            edit(f"{key} rows conflict", key, lambda rows: rows.append([a, b, other]))
        unit = next((row for row in full_document(cat)[key] if row not in listed), None)
        if unit is not None:
            a, b, v = unit
            other = next(c for c in cells if c != v)
            edit(f"{key} unit row overridden", key, lambda rows: rows.append([a, b, other]))
    for key, cells in (("one_identity", cat.one_cells), ("two_identity", cat.two_cells)):
        loopless = next(((u, d) for u, (d, c) in sorted(cells.items()) if d != c), None)
        if loopless is not None:
            u, d = loopless
            edit(f"{key} not a loop", key,
                 lambda pairs: pairs.__setitem__([x for x, _ in pairs].index(d), [d, u]))
    return out


class TestIdsAreReadOnce:
    """A reader holds one string object per id of a document, and tests
    only the rows the document lists, with the reference's outcomes."""

    def test_each_id_is_one_object(self):
        """Also where the identity fields are dropped and the reader adopts
        each listed ``id:<x>`` and ``vid:<u>`` cell as an identity: the
        constructions whose identities all carry those names."""
        cats, functors = constructions()
        adopted = 0
        for name, value in {**cats, **functors}.items():
            doc = to_document(value)
            variants = [doc]
            if all(map(reserved_identities, ends_of(value))):
                variants.append(without_identity_fields(doc))
                adopted += 1
            for variant in variants:
                parsed = parse_document(dumps(variant))
                assert parsed == value, name
                ids = ids_of(parsed)
                assert len({id(x) for x in ids}) == len(set(ids)), name
        assert adopted >= len(GALLERY_NAMES)

    @pytest.mark.parametrize("name", ["T3", "v4", "h4", "h4na", "vh4", "random3", "product"])
    def test_mutated_documents(self, name, reference_serialize, monkeypatch):
        """The outcome is the reference's and that of testing every row of
        the built tables.  An identity that is not a loop gets no unit rows
        on the side it cannot compose, where the reference adds rows that
        do not compose, so there the reference's error only names another
        row."""
        outcomes = set()
        for fault, doc in mutated_documents(document_corpus()[name]).items():
            ours = parsed(serialize, doc)
            with monkeypatch.context() as patch:
                patch.setattr(serialize, "_check_rows", lambda cat, listed: core.check_well_formed(cat))
                assert ours == parsed(serialize, doc), (name, fault)
            theirs = parsed(reference_serialize, doc)
            if fault.endswith("not a loop"):
                assert (ours[0], theirs[0]) == ("MalformedData", "MalformedData"), (name, fault)
            else:
                assert ours == theirs, (name, fault)
            outcomes.add(ours[0] if isinstance(ours, tuple) else "parsed")
        assert outcomes == {"MalformedData", "parsed"}


#: Ids whose order differs from the order of their JSON escapes.
AWKWARD_IDS = ('"x', "Ax", "\\", "é", "⇒", "𝔸", "\n", "\x7f")

#: Names for the objects, 1-cells and 2-cells of T3, in document order; in
#: each kind the raw order and the escaped order differ.
AWKWARD_NAMES = (
    AWKWARD_IDS[:2],
    ("\\", "Ax1", "\n", "é"),
    ('"x1', "⇒", "𝔸", "\x7f", "é1", "\\1", "Bx"),
)


def renamed(value, rename):
    """A document with every string value (not key) mapped through ``rename``."""
    if isinstance(value, str):
        return rename[value]
    if isinstance(value, dict):
        return {key: renamed(item, rename) for key, item in value.items()}
    return [renamed(item, rename) for item in value]


class TestDumpsWritesModelsAsTheirDocuments:
    """``dumps(x)`` is ``dumps(to_document(x))`` wherever ``x`` sits."""

    def test_corpus_categories(self):
        for name, cat in document_corpus().items():
            assert dumps(cat) == dumps(to_document(cat)), name

    def test_corpus_functors(self):
        for name, fun in constructions()[1].items():
            assert dumps(fun) == dumps(to_document(fun)), name

    def test_empty_tables(self):
        empty = tc.build_two_category(objects=[], one_cells={}, two_cells={})
        for cat in (empty, tc.terminal()):
            assert dumps(cat) == dumps(to_document(cat))
        assert '"objects": []' in dumps(empty)
        assert '"compose1": []' in dumps(tc.terminal())

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_nested_values(self, depth, t_family):
        fun = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
        for value in (fun, fun.source, tc.make_v4()):
            doc = value
            for level in range(depth):
                doc = [doc, "x"] if level % 2 else {"k": doc, "a": 1}
            assert dumps(doc) == dumps(as_documents(doc))
            assert dumps(doc) == standard_dumps(as_documents(doc))

    def test_the_same_category_at_two_depths(self, t_family):
        fun = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
        doc = {"cat": fun.source, "more": [{"again": fun.source, "fun": fun}]}
        assert dumps(doc) == dumps(as_documents(doc))

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_one_category_at_each_depth(self, depth):
        cat = tc.make_Tn(2)
        for wrap in (lambda v: {"k": v}, lambda v: [v], lambda v: ["x", {"k": [v]}, 1]):
            value = cat
            for _ in range(depth):
                value = wrap(value)
            assert dumps(value) == standard_dumps(as_documents(value)), depth
        value = [cat, [cat], {"a": [cat], "b": {"c": cat}}]
        assert dumps(value) == standard_dumps(as_documents(value))

    def test_a_functor_whose_ends_are_one_object(self, t_family):
        swap = pick_functor(t_family[2], t_family[2], t1="t2", t2="t1")
        for fun in (tc.identity_two_functor(tc.make_v4()), swap):
            assert fun.source is fun.target
            for value in (fun, [fun], {"f": fun, "g": [fun.source, fun]}):
                assert dumps(value) == standard_dumps(as_documents(value))

    def test_an_empty_category(self):
        empty = tc.build_two_category(objects=[], one_cells={}, two_cells={})
        fun = tc.identity_two_functor(empty)
        for value in (empty, [empty], {"e": empty, "f": fun}, [[fun, empty]]):
            assert dumps(value) == standard_dumps(as_documents(value))

    def test_empty_containers_beside_models(self, t_family):
        fun = pick_functor(t_family[2], t_family[1], t1="t1", t2="t1")
        value = {
            "a": {}, "b": [], "c": fun.source, "d": [[], fun, {}, ()],
            "e": {"f": {}, "g": fun, "h": []}, "z": (),
        }
        assert dumps(value) == standard_dumps(as_documents(value))
        assert dumps([{}, fun.target, []]) == standard_dumps(as_documents([{}, fun.target, []]))

    def test_ids_that_need_escaping(self):
        doc = category_to_document(tc.make_Tn(3))
        kinds = [doc["objects"]]
        kinds += [[row["id"] for row in doc[key]] for key in ("one_cells", "two_cells")]
        rename = {}
        for ids, names in zip(kinds, AWKWARD_NAMES):
            assert sorted(names) != sorted(names, key=encode_basestring_ascii)
            rename.update(zip(ids, names, strict=True))
        assert set(AWKWARD_IDS) <= set(rename.values())
        relabeled = parse_document(json.dumps(renamed(doc, rename)))
        assert dumps(relabeled) == dumps(to_document(relabeled))
        fun = tc.identity_two_functor(relabeled)
        assert dumps([fun]) == dumps([to_document(fun)])


#: Every subcommand the benchmark runs, with the files it reads by role.
SUBCOMMANDS = (
    ("gallery", "name"),
    ("edm-cover", "base"),
    ("validate", "cover"),
    ("reflect", "cover"),
    ("classify", "--oracle", "p"),
    ("factor", "--system=monotone-light", "p"),
    ("factor", "--system=reflective", "p"),
    ("pullback", "p", "id"),
    ("iso", "base", "base"),
)


@pytest.fixture(scope="module")
def cover_files(tmp_path_factory):
    """The base, its descent cover, the projection and the identity, on disk."""
    paths = {}
    for name in ("T", "T3"):
        base = tc.gallery.by_name(name)
        cover, p = tc.edm_cover(base)
        roles = {"base": base, "cover": cover, "p": p, "id": tc.identity_two_functor(base)}
        paths[name] = {"name": name}
        for role, value in roles.items():
            path = tmp_path_factory.mktemp(name) / f"{role}.json"
            path.write_text(dumps(value), encoding="utf-8")
            paths[name][role] = str(path)
    return paths


class TestSubcommandsMatchTheReference:
    """Each subcommand prints the reference's bytes and exits with its code."""

    @pytest.mark.parametrize("base", ["T", "T3"])
    @pytest.mark.parametrize("command", SUBCOMMANDS, ids=" ".join)
    def test_same_exit_and_stdout(self, reference, cover_files, capsys, base, command):
        argv = [cover_files[base].get(arg, arg) for arg in command]
        ours = main(argv), capsys.readouterr().out
        theirs = importlib.import_module("twocat_ref.cli").main(argv), capsys.readouterr().out
        assert ours[0] == theirs[0]
        assert first_difference(ours[1], theirs[1]) is None


def first_difference(ours, theirs):
    """The first line, numbered, on which two texts differ; ``None`` if none does.

    A plain ``==`` on texts of megabytes makes the failure report diff them
    whole, which takes minutes.
    """
    lines = itertools.zip_longest(ours.splitlines(), theirs.splitlines())
    return next(((n, a, b) for n, (a, b) in enumerate(lines, 1) if a != b), None)


#: The requests whose well-formedness checks are counted, with the files they
#: read by role; each exits 0.
CHECKED_REQUESTS = (
    ("validate", "cover"),
    ("classify", "--oracle", "p"),
    ("factor", "--system=monotone-light", "p"),
    ("factor", "--system=reflective", "p"),
    ("pullback", "p", "id"),
    ("edm-cover", "base"),
)


@pytest.fixture()
def checks(monkeypatch):
    """Each value the row check of ``core`` is called on, once per call,
    each value a request parses or builds for checking: the categories of
    its documents, the middle object of a factorization, a pullback apex,
    and each value whose carriers are checked, once per check.
    ``check_well_formed`` and the readers both call that row check, and it
    and the functor checks call the carrier check."""
    checked, made, carried = [], [], []
    real, real_carriers = core._check_rows, core._check_carriers

    def counting(cat, listed):
        checked.append(cat)
        return real(cat, listed)

    for name, module in list(sys.modules.items()):
        if name.startswith("twocat.") and getattr(module, "_check_rows", None) is real:
            monkeypatch.setattr(module, "_check_rows", counting)
    monkeypatch.setattr(core, "_check_carriers", lambda cat: carried.append(cat) or real_carriers(cat))

    def recording(make, part):
        def wrapper(*args):
            value = make(*args)
            made.append(part(value))
            return value
        return wrapper

    cli = importlib.import_module("twocat.cli")
    monkeypatch.setattr(serialize, "_category", recording(serialize._category, lambda cat: cat))
    monkeypatch.setattr(cli, "pullback", recording(cli.pullback, lambda result: result.apex))
    for name in ("reflective_factor", "monotone_light_factor"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name), lambda fac: fac.middle))
    return checked, made, carried


def _without_a_row(cat):
    """``cat`` with its least vcompose row dropped: carriers intact, not well formed."""
    rows = dict(cat.vert_compose)
    del rows[min(rows)]
    return dataclasses.replace(cat, vert_compose=rows)


class TestEachValueIsCheckedOnce:
    """A request through ``cli.main`` checks every value it parses or builds
    for well-formedness, and the carriers of each, exactly once; the
    library entry points still check what they are handed."""

    @pytest.mark.parametrize("command", CHECKED_REQUESTS, ids=" ".join)
    def test_requests_on_a_cover(self, cover_files, checks, capsys, command):
        checked, made, carried = checks
        assert main([cover_files["T3"].get(arg, arg) for arg in command]) == 0
        capsys.readouterr()
        for values in (checked, carried):
            ids = [id(value) for value in values]
            twice = [value for value in set(ids) if ids.count(value) > 1]
            assert twice == [], command
        ids = {id(value) for value in checked}
        assert made and {id(value) for value in made} <= ids, command
        assert {id(value) for value in carried} == ids, command

    def test_library_entry_points_reject_malformed_ends(self):
        T = tc.make_T()
        bad = _without_a_row(T)
        with pytest.raises(tc.MalformedData):
            tc.validate_two_category(bad)
        with pytest.raises(tc.MalformedData):
            tc.validate_two_functor(tc.identity_two_functor(bad))
        fun = tc.identity_two_functor(T)
        fac = tc.monotone_light_factor(fun)
        assert tc.verify_factorization(fun, fac) == []
        middle = _without_a_row(fac.middle)
        broken_middle = dataclasses.replace(
            fac, middle=middle,
            e=dataclasses.replace(fac.e, target=middle), m=dataclasses.replace(fac.m, source=middle),
        )
        with pytest.raises(tc.MalformedData):
            tc.verify_factorization(fun, broken_middle)
        broken_source = dataclasses.replace(fac, e=dataclasses.replace(fac.e, source=bad))
        with pytest.raises(tc.MalformedData):
            tc.verify_factorization(dataclasses.replace(fun, source=bad), broken_source)


FACTOR_SYSTEMS = {"reflective": tc.reflective_factor, "monotone-light": tc.monotone_light_factor}


class TestFactorVerdictsDoNotMove:
    """``factor`` reads its legs' classes from the certificates and checks
    its source once, and prints the verdicts of ``verify_factorization``,
    which recomputes both."""

    def test_corpus_and_seeded_functors(self, workdir, capsys, corpus_functors, seeded_functors):
        _, write = workdir
        for n, fun in enumerate(corpus_functors + seeded_functors):
            path = write(f"f{n}.json", fun)
            for system, make in FACTOR_SYSTEMS.items():
                code = main(["factor", f"--system={system}", path])
                printed = json.loads(capsys.readouterr().out)["violations"]
                expected = tc.verify_factorization(fun, make(fun))
                assert printed == expected and code == (1 if expected else 0), (n, system)

    def test_a_flipped_certificate_shows(self, workdir, capsys, monkeypatch, t_family):
        _, write = workdir
        factorize = importlib.import_module("twocat.factorize")
        real = factorize.classify

        def flipped(fun):
            report = real(fun)
            return dataclasses.replace(report, vertical=not report.vertical)

        monkeypatch.setattr(factorize, "classify", flipped)
        fun = tc.identity_two_functor(t_family[1])
        assert main(["factor", "--system=reflective", write("id.json", fun)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == ["first factor is not inverted by the reflection"]
        assert payload["certificates"]["e"]["vertical"] is False
        assert tc.verify_factorization(fun, tc.reflective_factor(fun)) == []


class TestTheParserIsBuiltOnce:
    """``cli.main`` parses every request with one parser per process."""

    def test_two_requests_build_one_parser(self, capsys):
        cli = importlib.import_module("twocat.cli")
        assert cli._parser.__wrapped__ is cli.build_parser
        cli._parser.cache_clear()
        assert main(["gallery", "T"]) == main(["gallery", "T0"]) == 0
        capsys.readouterr()
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_a_usage_error_leaves_the_parser_as_it_was(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["factor"])
        assert caught.value.code == 2
        capsys.readouterr()
        assert main(["gallery", "T"]) == 0
        ours = capsys.readouterr().out
        env = dict(os.environ, PYTHONPATH=str(Path(tc.__file__).resolve().parents[1]))
        fresh = subprocess.run(
            [sys.executable, "-m", "twocat.cli", "gallery", "T"],
            capture_output=True, env=env, timeout=60, check=True,
        )
        assert ours.encode() == fresh.stdout
