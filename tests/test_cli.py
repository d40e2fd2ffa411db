import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twocat as tc
from twocat.cli import main
from twocat.serialize import (
    category_to_document,
    dumps,
    functor_to_document,
    parse_document,
    to_document,
)

from conftest import law_breaking_document, pick_functor

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

    def test_non_string_functor_entries_are_malformed(self, t_family):
        doc = functor_to_document(tc.identity_two_functor(t_family[1]))
        doc["f0"][0][1] = 0
        with pytest.raises(tc.MalformedData, match="f0 entries are strings"):
            parse_document(json.dumps(doc))


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
        assert tc.is_isomorphic(apex, t_family[2])

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


class TestLawBreakingInput:
    @pytest.fixture()
    def files(self, tmp_path):
        cat = parse_document(json.dumps(law_breaking_document()))
        paths = {}
        for name, value in (("cat", cat), ("id", tc.identity_two_functor(cat))):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(dumps(to_document(value)), encoding="utf-8")
        return paths

    COMMANDS = (
        ("reflect", "cat"),
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
