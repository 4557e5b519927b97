"""Mutation testing: does the tier-1 suite catch each catalogued source edit?

    python3 tools/mutants.py [--root CHECKOUT] [--out FILE] [NAME ...]

Copies CHECKOUT (default: this one) into a temporary directory. Then, one
mutant at a time (all of ``CATALOGUE``, or only those NAMEd), it applies
the mutant's exact text patches to the copy, runs the suite there and
restores the file. The suite runs in two steps, one process at a time,
each stopping at its first failure (``pytest -x``): the golden digests
first, then the rest of ``tests`` with acceptance criteria 5 and 6
deselected, since they fail by design and would stop ``-x`` there, and
without this tool's own tests.
Hypothesis runs with a fixed seed and no example database, and Python
writes no bytecode, so every run compiles the patched source afresh.

Each mutant ends as one of:

* ``killed``, with its killer, the first test that failed;
* ``survived``: the suite passed;
* ``timeout``: a step ran longer than ``TIMEOUT`` seconds;
* ``stale``: a patch's text is not in the file exactly once, so the
  catalogue no longer matches the source.

The result goes to FILE (default ``MUTANTS.json`` in this checkout) as
JSON. When NAMEs are given, their results replace those of the same names
in FILE, the others still in ``CATALOGUE`` are kept (a result whose mutant
has left it is dropped), and the totals count the merged list. The
exit code is 1 if a mutant survived or is stale, else 0.
Standard library only. Background: DeMillo, Lipton and Sayward 1978
("Hints on test data selection"); Jia and Harman 2011 (IEEE TSE 37(5)).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

_REPO = Path(__file__).resolve().parents[1]
TIMEOUT = 900.0  # seconds per step; the whole suite takes about 60
_CRITERIA = "tests/test_acceptance.py::test_criterion_0"
# the suite, goldens first; each step stops at its first failure.
# tests/test_mutants.py is left out: it checks that every patch applies to
# the source, which a patched copy fails whatever the mutant does.
STEPS = [
    ["tests/test_golden.py"],
    [
        "tests",
        "--ignore=tests/test_golden.py",
        "--ignore=tests/test_mutants.py",
        f"--deselect={_CRITERIA}5_completion_leaves_score_curves_unchanged",
        f"--deselect={_CRITERIA}6_admitted_count_curve_shape",
    ],
]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    edits: tuple[tuple[str, str], ...]  # (old, new); each old must occur once
    what: str


def _m(name: str, module: str, what: str, *edits: tuple[str, str]) -> Mutant:
    return Mutant(name, f"src/normcolour/{module}", edits, what)


CATALOGUE = [
    _m("dsatur-tie-break-reversed", "colouring.py",
       "DSATUR breaks its last tie by the highest position, not the lowest",
       ("base = [(max_degree - d) * n + i for",
        "base = [(max_degree - d) * n + (n - 1 - i) for")),
    _m("bench-preparation-shared", "bench.py",
       "the bench colours and ranks only a point's first trial; later trials reuse it",
       ("            classes = None\n            if colours",
        "            if trial == 0:\n                classes = None\n"
        "            if trial == 0 and colours")),
    _m("completion-skips-a-norm", "resolution.py",
       "the completion sweep never considers the last unadmitted norm",
       ("            for i in unadmitted:\n", "            for i in unadmitted[:-1]:\n")),
    _m("completion-blocks-nothing", "resolution.py",
       "a norm that joins by completion blocks none of its neighbours",
       ("                    blocked.update(adj[i])\n", "")),
    _m("admissible-without-conflict-freeness", "oracle.py",
       "is_admissible drops its conflict-free test",
       ("return all(s.isdisjoint(g._adj[i]) and _is_acceptable(g, i, s) for i in s)",
        "return all(_is_acceptable(g, i, s) for i in s)")),
    _m("norm-score-flipped", "policies.py",
       "a norm scores +1 for each neighbour preferred to it",
       ("        if kv < kw:\n            total += 1",
        "        if kw < kv:\n            total += 1")),
    _m("net-and-gross-swapped", "policies.py",
       "class scoring reads GROSS as net and NET as gross",
       ("net = policy.mode is ScoreMode.NET\n    return",
        "net = policy.mode is ScoreMode.GROSS\n    return")),
    _m("prefer-recent-sign", "policies.py",
       "lex posterior's direction is flipped, with and without prefer_recent",
       ("sign = -1 if policy.prefer_recent else 1", "sign = 1 if policy.prefer_recent else -1")),
    _m("superior-sign-dropped", "policies.py",
       "lex superior keys each norm by its authority rank, so the weaker authority wins",
       ("return [-norm.authority_rank for", "return [norm.authority_rank for")),
    _m("weak-order-sign-dropped", "policies.py",
       "a weak-order policy keys each norm by its rank, so the lower rank wins",
       ("return [-r for r in _ranks(policy.ranks, norms)]", "return _ranks(policy.ranks, norms)")),
    _m("admitted-set-ranks-unnegated", "policies.py",
       "score_admitted_set keys each norm by its rank, so the lower rank wins",
       ("{j: -_require_int(", "{j: _require_int(")),
    _m("switches-swapped", "resolution.py",
       "resolve and resolve-complete exchange their switches",
       ('    "resolve": (False, True),\n    "resolve-complete": (True, True),',
        '    "resolve": (True, True),\n    "resolve-complete": (False, True),')),
    _m("random-drop-orientation", "oracle.py",
       "random drop removes the other end of the drawn conflict",
       ("[_below(rng, 2)]", "[1 - _below(rng, 2)]")),
    _m("derive-seed-parts-reordered", "bench.py",
       "derive_seed hashes the parts before the master seed",
       ('":".join(map(repr, (master, *parts)))', '":".join(map(repr, (*parts, master)))')),
    _m("cli-exit-codes-swapped", "cli.py",
       "a usage error exits 2 and an input error 1",
       ('        print(f"usage error: {exc}", file=sys.stderr)\n        return 1',
        '        print(f"usage error: {exc}", file=sys.stderr)\n        return 2'),
       ('        print(f"error: {exc}", file=sys.stderr)\n        return 2',
        '        print(f"error: {exc}", file=sys.stderr)\n        return 1')),
    _m("loads-lets-recursion-escape", "documents.py",
       "_loads no longer maps a RecursionError to DocumentSyntaxError",
       ('    except RecursionError:\n'
        '        raise DocumentSyntaxError("JSON nested too deeply") from None\n', "")),
    _m("loads-reads-bad-bytes-as-a-long-literal", "documents.py",
       "_loads no longer names undecodable bytes, so they read as an over-long integer literal",
       ("    except UnicodeDecodeError as exc:  # bytes not valid in the codec json.loads detects\n"
        '        message = f"not {exc.encoding} at byte {exc.start} ({exc.reason})"\n'
        '        raise DocumentSyntaxError(f"invalid JSON: {message}") from None\n', "")),
    _m("norm-declared-at-isinstance", "graph.py",
       "Norm's exact int test for declared_at widened to isinstance, which lets a bool in",
       ("        if type(declared_at) is not int:\n",
        "        if not isinstance(declared_at, int):\n")),
    _m("collector-not-restored", "documents.py",
       "parse_norm_document leaves the cyclic collector off",
       ("            gc.enable()\n", "            pass\n")),
    _m("curtailments-reversed", "resolution.py",
       "each norm's curtailments are kept newest first",
       ("                wrt[j].append(v)\n", "                wrt[j].insert(0, v)\n")),
    _m("read-members-takes-a-string", "graph.py",
       "a str set argument is read as its letters",
       ("    if isinstance(members, str):\n", "    if False:\n")),
    _m("admission-writes-back", "resolution.py",
       "completion writes a class's joiners back into the shared buckets",
       ("            unadmitted = rest\n",
        "            unadmitted = rest\n            buckets[c][:] = members\n")),
    _m("admit-keeps-old-colour", "resolution.py",
       "a norm that completion moved keeps its old colour in the final colouring",
       ("            colour[i] = c  # completion may have drawn i from a later class\n", "")),
    _m("bench-seen-not-updated", "bench.py",
       "the bench never records an admitted norm, so every norm reads as uncurtailed",
       ("            seen |= 1 << i\n", "")),
    _m("order-masks-swapped", "policies.py",
       "the score masks give each norm the norms it loses to as those it beats, and back",
       ("    return beats, loses\n", "    return loses, beats\n")),
    _m("gross-masks-count-losses", "policies.py",
       "the score masks keep each norm's losses under GROSS, which counts wins only",
       ("    if policy.mode is ScoreMode.NET:\n        loses",
        "    if True:\n        loses")),
    _m("bench-uncurtailed-mask", "bench.py",
       "the bench's uncurtailed test reads the norms not yet admitted",
       ("if not nb[i] & seen:", "if not nb[i] & ~seen:")),
    _m("max-admissible-unbounded", "oracle.py",
       "the exhaustive search no longer refuses more than MAX_ADMISSIBLE_SEARCH norms",
       ("    if n > MAX_ADMISSIBLE_SEARCH:\n", "    if False:\n")),
    _m("bench-random-drop-edge-order", "oracle.py",
       "random drop lists each norm's later neighbours in descending order, "
       "not in ConflictGraph.edges order",
       ("for j in sorted(js) if j > i]", "for j in sorted(js, reverse=True) if j > i]")),
    _m("bench-degree-from-drawn-pairs", "bench.py",
       "a conflict drawn in both directions counts twice in a norm's degree",
       ("        if not nb[i] & bits[j]:\n", "        if True:\n")),
    _m("bench-candidate-pairs-reordered", "bench.py",
       "the candidate conflicts are listed in reverse itertools order, so a seeded sample "
       "draws other pairs",
       ("combinations)(range(n), 2))\n", "combinations)(range(n), 2))[::-1]\n")),
    _m("uncoloured-named-before-unranked", "policies.py",
       "rank_colours names an uncoloured norm before one a weak order leaves unranked",
       ("        scores = _norm_scores(g, policy)  # so a norm left unranked is named first\n"
        "        buckets = _buckets(_by_position(g, phi), phi.num_colours)\n",
        "        buckets = _buckets(_by_position(g, phi), phi.num_colours)\n"
        "        scores = _norm_scores(g, policy)\n")),
    _m("bench-scores-shared-when-masks-differ", "bench.py",
       "the bench ranks classes by the metric's scores even when the policy's masks differ",
       ("    shared = class_masks == metric_masks", "    shared = True")),
    _m("max-class-norms-score-zero", "policies.py",
       "max-class scores every norm 0, so every class ties and the lowest colour id ranks first",
       ("        return [1] * len(g.norms)\n", "        return [0] * len(g.norms)\n")),
    _m("bench-max-class-scores-zero", "bench.py",
       "the bench scores every norm 0 given no masks, so its max-class classes all tie",
       ("        return [1] * len(nb)\n", "        return [0] * len(nb)\n")),
    _m("sample-set-size-from-k-5", "bench.py",
       "the sample sizes its set for big samples from k = 5, so five of 22-37 draw from the pool",
       ("    if k > 5:\n", "    if k >= 5:\n")),
    _m("sample-pool-takes-the-bound", "bench.py",
       "the pool's rejection loop accepts a draw equal to the bound, one past the unselected",
       ("            while j >= m:\n", "            while j > m:\n")),
    _m("below-draws-n-minus-1-bits", "oracle.py",
       "_below draws (n - 1)'s width of bits, not n's, as randrange does",
       ("    w = n.bit_length()", "    w = (n - 1).bit_length()")),
]


def apply(source: str, edits: tuple[tuple[str, str], ...]) -> str | None:
    """source with each edit made, or None if an edit's old text is not in
    it exactly once."""
    for old, new in edits:
        if source.count(old) != 1:
            return None
        source = source.replace(old, new)
    return source


def killer(output: str) -> str | None:
    """The first failing test (or erroring file) that pytest's summary names."""
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                return line[len(tag):].split(" - ")[0].strip()
    return None


def run_suite(root: Path, steps: list[list[str]], timeout: float) -> tuple[str, str | None]:
    """Run pytest in root, step by step: ("killed", killer) at the first
    step that fails, ("timeout", None) or ("survived", None)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for step in steps:
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *step]
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout", None
        finally:
            shutil.rmtree(root / ".hypothesis", ignore_errors=True)
        if proc.returncode != 0:
            return "killed", killer(proc.stdout) or f"pytest exited {proc.returncode}"
    return "survived", None


def run(root: Path, mutants: list[Mutant], steps: list[list[str]], timeout: float) -> list[dict]:
    """Each mutant's verdict, from a copy of root; root is not changed."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        for mutant in mutants:
            path = copy / mutant.path
            original = path.read_text(encoding="utf-8")
            patched = apply(original, mutant.edits)
            start = time.perf_counter()
            if patched is None:
                status, by = "stale", None
            else:
                path.write_text(patched, encoding="utf-8")
                try:
                    status, by = run_suite(copy, steps, timeout)
                finally:
                    path.write_text(original, encoding="utf-8")
            seconds = round(time.perf_counter() - start, 1)
            print(f"{mutant.name:<40} {status:<9} {by or ''}", flush=True)
            results.append({"name": mutant.name, "file": mutant.path, "what": mutant.what,
                            "status": status, "killer": by, "seconds": seconds})
    return results


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=_REPO, help="checkout to test")
    parser.add_argument("--out", type=Path, default=_REPO / "MUTANTS.json")
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    known = {m.name for m in CATALOGUE}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [m for m in CATALOGUE if not args.names or m.name in args.names]
    results = run(args.root.resolve(), chosen, STEPS, TIMEOUT)
    if args.names and args.out.exists():  # keep the results of the catalogued mutants not rerun
        kept = json.loads(args.out.read_text(encoding="utf-8"))["mutants"]
        merged = {r["name"]: r for r in kept + results}
        results = [r for name, r in merged.items() if name in known]
    totals = {s: sum(r["status"] == s for r in results)
              for s in ("killed", "survived", "timeout", "stale")}
    args.out.write_text(json.dumps({"totals": totals, "mutants": results}, indent=2) + "\n",
                        encoding="utf-8")
    print(" ".join(f"{s}={n}" for s, n in totals.items()))
    return 1 if totals["survived"] or totals["stale"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
