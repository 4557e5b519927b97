"""tools/mutants.py: its patching, its reading of pytest's summary, its
catalogue against this checkout and ``MUTANTS.json``, whose killers must
still exist, a run on a small project written for the test and how a run
of named mutants updates the results file."""
import ast
import importlib.util
import json
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
_PATH = _REPO / "tools" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_an_edit_applies_only_to_text_found_exactly_once():
    source = "a = 1\nb = 2\nc = 1\n"
    assert mutants.apply(source, (("b = 2", "b = 3"), ("c", "d"))) == "a = 1\nb = 3\nd = 1\n"
    assert mutants.apply(source, (("= 1", "= 0"),)) is None  # twice
    assert mutants.apply(source, (("b = 2", "b = 3"), ("z", "y"))) is None  # absent


def test_the_killer_is_the_first_test_the_summary_names():
    output = "..F\n= short test summary info =\nFAILED t.py::test_a[x - y] - assert 1 == 2\n"
    assert mutants.killer(output) == "t.py::test_a[x"
    assert mutants.killer("ERROR t.py - ImportError\nFAILED t.py::b\n") == "t.py"
    assert mutants.killer("3 passed\n") is None


def test_every_catalogued_edit_applies_to_this_checkout():
    names = [m.name for m in mutants.CATALOGUE]
    assert len(set(names)) == len(names)
    for mutant in mutants.CATALOGUE:
        source = (_REPO / mutant.path).read_text(encoding="utf-8")
        patched = mutants.apply(source, mutant.edits)
        assert patched is not None, mutant.name
        compile(patched, mutant.path, "exec")


def test_a_run_reports_each_verdict_and_leaves_the_checkout_unchanged(tmp_path):
    (tmp_path / "pkg.py").write_text("def f():\n    return 1\n", encoding="utf-8")
    test = "from pkg import f\n\n\ndef test_f():\n    assert f() == 1\n"
    (tmp_path / "test_pkg.py").write_text(test, encoding="utf-8")
    catalogue = [
        mutants.Mutant("wrong", "pkg.py", (("return 1", "return 2"),), "f returns 2"),
        mutants.Mutant("same", "pkg.py", (("return 1", "return (1)"),), "f still returns 1"),
        mutants.Mutant("gone", "pkg.py", (("return 3", "return 4"),), "no such text"),
    ]
    results = mutants.run(tmp_path, catalogue, [["test_pkg.py"]], timeout=120)
    assert [(r["name"], r["status"], r["killer"]) for r in results] == [
        ("wrong", "killed", "test_pkg.py::test_f"),
        ("same", "survived", None),
        ("gone", "stale", None),
    ]
    assert (tmp_path / "pkg.py").read_text(encoding="utf-8") == "def f():\n    return 1\n"


def test_named_mutants_merge_into_the_results_file(tmp_path, monkeypatch):
    catalogue = [mutants.Mutant(name, "pkg.py", (), name) for name in "abc"]
    monkeypatch.setattr(mutants, "CATALOGUE", catalogue)
    # no suite runs: each chosen mutant gets the verdict its name maps to
    verdicts = {"a": "killed", "b": "killed", "c": "survived"}
    monkeypatch.setattr(mutants, "run", lambda root, chosen, steps, timeout: [
        {"name": m.name, "status": verdicts[m.name]} for m in chosen])
    out = tmp_path / "MUTANTS.json"

    def written():
        data = json.loads(out.read_text(encoding="utf-8"))
        return [(r["name"], r["status"]) for r in data["mutants"]], data["totals"]

    assert mutants.main(["--out", str(out), "c"]) == 1  # no file yet: only c
    assert written() == ([("c", "survived")],
                         {"killed": 0, "survived": 1, "timeout": 0, "stale": 0})
    verdicts["c"] = "killed"
    assert mutants.main(["--out", str(out), "a", "c"]) == 0
    assert written() == ([("c", "killed"), ("a", "killed")],
                         {"killed": 2, "survived": 0, "timeout": 0, "stale": 0})
    verdicts["a"] = "stale"
    assert mutants.main(["--out", str(out), "a"]) == 1  # c is kept, in its place
    assert written() == ([("c", "killed"), ("a", "stale")],
                         {"killed": 1, "survived": 0, "timeout": 0, "stale": 1})
    assert mutants.main(["--out", str(out)]) == 1  # no names: the whole catalogue, afresh
    assert written()[0] == [("a", "stale"), ("b", "killed"), ("c", "killed")]
    # c leaves the catalogue: its old verdict is dropped, not kept or counted
    monkeypatch.setattr(mutants, "CATALOGUE", catalogue[:2])
    assert mutants.main(["--out", str(out), "b"]) == 1
    assert written() == ([("a", "stale"), ("b", "killed")],
                         {"killed": 1, "survived": 0, "timeout": 0, "stale": 1})


def test_the_results_file_holds_exactly_the_catalogued_mutants():
    data = json.loads((_REPO / "MUTANTS.json").read_text(encoding="utf-8"))
    names = [r["name"] for r in data["mutants"]]
    assert len(set(names)) == len(names)
    assert set(names) == {m.name for m in mutants.CATALOGUE}
    assert sum(data["totals"].values()) == len(names)
    for result in data["mutants"]:  # each killer is a test that still exists
        assert result["status"] != "killed" or _defines(result["killer"]), result["name"]
    assert not _defines("tests/test_gone.py") and not _defines("tests/test_mutants.py::gone")


def _defines(node_id: str) -> bool:
    """Whether a pytest id names a test of this checkout; any [param] suffix is ignored."""
    path, *names = node_id.split("[")[0].split("::")
    scope = ast.parse((_REPO / path).read_text("utf-8")).body if (_REPO / path).is_file() else None
    for name in names:  # each name is a def or class in the scope before it
        scope = scope and next((n.body for n in scope if getattr(n, "name", None) == name), None)
    return scope is not None
