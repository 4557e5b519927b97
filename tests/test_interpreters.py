"""tools/interpreters.py: a full check of the running interpreter, and its
report of mismatches on hand-made results."""
import importlib.util
import json
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "interpreters.py"
_SPEC = importlib.util.spec_from_file_location("interpreters", _PATH)
interpreters = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(interpreters)


def test_the_running_interpreter_gives_every_pinned_output(capsys):
    assert interpreters.main([sys.executable]) == 0
    version = sys.version.split()[0]
    assert capsys.readouterr().out == f"{sys.executable}  {version}  ok\n"


def _matching_result() -> dict:
    golden = json.loads((interpreters.ROOT / "tests" / "golden" / "digests.json").read_text())
    return {
        "version": "3.x",
        "golden": golden,
        "presets": dict(interpreters.PRESET_DIGESTS),
        "cli": [code for _, code in interpreters.SMOKE],
    }


def test_a_matching_result_has_no_mismatches():
    assert interpreters.mismatches(_matching_result()) == []


def test_each_mismatch_is_named():
    result = _matching_result()
    key = sorted(result["golden"])[0]
    result["golden"][key] = "0" * 64
    result["golden"]["extra"] = "1" * 64
    result["presets"]["score-sum"] = "2" * 64
    result["cli"][3] = 2  # no arguments: a usage error, exit 1
    assert interpreters.mismatches(result) == [
        f"golden {key}",
        "golden extra",
        f"preset score-sum at seed 7: {'2' * 64}",
        "cli (no arguments): exit 2, not 1",
    ]


def test_an_interpreter_that_cannot_run_fails(tmp_path, capsys):
    missing = str(tmp_path / "python")
    assert interpreters.main([missing]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{missing}  cannot run  failed (1)"
