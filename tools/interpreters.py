"""Check that each Python interpreter gives normcolour's pinned outputs.

    python3 tools/interpreters.py [PYTHON ...]

For each interpreter executable given (default: the one running this
script), one child process imports normcolour from this checkout's ``src``
and computes:

* the golden digests, by ``tests/test_golden.py``'s ``golden_digests``,
  which imports neither pytest nor hypothesis; they must equal
  ``tests/golden/digests.json``;
* the SHA-256 of the CSV of each bench preset at seed 7 and its own trials;
  they must equal ``PRESET_DIGESTS``;
* the exit code of each CLI run in ``SMOKE``, which must be the one listed
  (0 ok, 1 usage error, 2 input error).

Prints one line per interpreter, then each mismatch, and exits 0 when every
interpreter matched, else 1. A child takes about 8 s on a 3.11 build, most
of it in the ``score-sum`` and ``score-avg`` presets. Standard library only.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
PRESET_DIGESTS = {
    "oren-count": "5d36994f97170adead33c18e1ddc211557c4c6be8627e4cd0c46d08704b1ba0d",
    "score-sum": "05d313b9507988f0c48565b466fc37d397923c08135c040fdda1fbc6c119ba9a",
    "score-avg": "48eb8b1c69dbed74a974e7e4cad5029dbfddb91328ea7d977c3a86d8de645e7c",
}
_SIX = str(DATA / "six_norms.json")
# CLI argv and the exit code it must give
SMOKE = [
    (["resolve", "--input", _SIX, "--algorithm", "curtail", "--policy", "lex-specialis"], 0),
    (["check", "--input", str(DATA / "k2.json"), "--set", "a"], 0),
    (["bench", "--preset", "oren-count", "--trials", "1"], 0),
    ([], 1),
    (["resolve", "--input", _SIX], 1),
    (["resolve", "--input", _SIX, "--policy", "max-class", "--mode", "gross"], 1),
    (["resolve", "--input", str(DATA), "--policy", "max-class"], 2),
    (["resolve", "--input", str(ROOT / "pyproject.toml"), "--policy", "max-class"], 2),
    (["resolve", "-h"], 0),
]


def child() -> dict:
    """The outputs of the running interpreter, as the parent compares them."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from normcolour.bench import preset_config, rows_to_csv, run_benchmark
    from normcolour.cli import main
    from tests.test_golden import golden_digests

    presets = {}
    for name in PRESET_DIGESTS:
        csv = rows_to_csv(run_benchmark(preset_config(name, seed=7)))
        presets[name] = hashlib.sha256(csv.encode()).hexdigest()
    codes = []
    for argv, _ in SMOKE:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv))
    return {"version": sys.version.split()[0], "golden": golden_digests(),
            "presets": presets, "cli": codes}


def mismatches(result: dict) -> list[str]:
    """What a child's result gets wrong, one line each."""
    expected = json.loads((ROOT / "tests" / "golden" / "digests.json").read_text(encoding="utf-8"))
    golden = result["golden"]
    wrong = [f"golden {key}" for key in sorted(expected.keys() | golden.keys())
             if expected.get(key) != golden.get(key)]
    wrong += [f"preset {name} at seed 7: {result['presets'][name]}"
              for name, digest in PRESET_DIGESTS.items() if result["presets"][name] != digest]
    wrong += [f"cli {' '.join(argv) or '(no arguments)'}: exit {code}, not {want}"
              for (argv, want), code in zip(SMOKE, result["cli"]) if code != want]
    return wrong


def check(python: str) -> tuple[str, list[str]]:
    """One interpreter's version, or why it gave none, and its mismatches."""
    try:
        proc = subprocess.run([python, __file__, "--child"], capture_output=True, text=True,
                              check=False)
    except OSError as exc:
        return "cannot run", [str(exc)]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return "no result", [f"exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    return result["version"], mismatches(result)


def main(argv: list[str]) -> int:
    failed = False
    for python in argv or [sys.executable]:
        version, wrong = check(python)
        print(f"{python}  {version}  {'ok' if not wrong else f'failed ({len(wrong)})'}")
        for line in wrong:
            print(f"    {line}")
        failed = failed or bool(wrong)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(child()))
    else:
        sys.exit(main(sys.argv[1:]))
