"""Golden outputs: SHA-256 digests of documents and CSVs, frozen in
``tests/golden/digests.json``.

Pinned, for equal inputs and seeds:

* every ``tests/data`` fixture, re-serialised, and its resolution document
  under each algorithm, built-in policy and scoring mode, plus lex posterior
  with ``prefer_recent``;
* the CSV of each bench preset at two trials per point, seed 0;
* a seeded 300-norm sparse document and a seeded 300-norm dense one, built
  with ``derive_seed`` and the standard library, re-serialised and resolved
  by all four algorithms under three policies.

Any refactor that claims to change no output must leave every digest as it
is. After a deliberate output change, rewrite the file with
``PYTHONPATH=src python -m tests.test_golden`` and say why in the change.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from normcolour import ALGORITHMS, ConflictGraph, Policy, PolicyKind, ScoreMode, policy_label
from normcolour.bench import derive_seed, preset_config, rows_to_csv, run_benchmark
from normcolour.documents import parse_norm_document, write_norm_document, write_resolution

# pytest is not imported, here or through conftest, so that tools/interpreters.py
# can compute the digests under an interpreter without it
DATA_DIR = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden" / "digests.json"
PAIRWISE = (
    PolicyKind.LEX_POSTERIOR,
    PolicyKind.LEX_SUPERIOR,
    PolicyKind.LEX_SPECIALIS,
    PolicyKind.WEAK_ORDER,
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _tied_ranks(g: ConflictGraph) -> dict[str, int]:
    # three rank levels, so weak-order scoring sees ties as well as wins
    return {v: i % 3 for i, v in enumerate(g.ids)}


def _fixture_policies(g: ConflictGraph) -> list[Policy]:
    policies = [Policy.max_class()]
    for mode in ScoreMode:
        for kind in PAIRWISE:
            ranks = _tied_ranks(g) if kind is PolicyKind.WEAK_ORDER else None
            policies.append(Policy(kind, mode, ranks))
        policies.append(Policy.lex_posterior(mode, prefer_recent=True))
    return policies


def _policy_key(policy: Policy) -> str:
    return policy_label(policy) + (":prefer-recent" if policy.prefer_recent else "")


def generated_document(shape: str, n: int = 300) -> str:
    """A seeded norm document of n norms: ``sparse`` draws 5n conflict
    pairs (repeats and both orientations allowed), ``dense`` keeps each
    pair with probability 0.3. Ids are shuffled against insertion order."""
    rng = random.Random(derive_seed(0, "golden", shape, n))
    atoms = [f"a{k}" for k in range(8)]
    ids = [f"n{k}" for k in rng.sample(range(n), n)]
    norms = [
        {
            "id": v,
            "declared_at": rng.randrange(50),
            "authority_rank": rng.randrange(5),
            "antecedents": rng.sample(atoms, rng.randrange(4)),
        }
        for v in ids
    ]
    if shape == "sparse":
        pairs = []
        for _ in range(5 * n):
            a, b = rng.sample(ids, 2)
            pairs.append([a, b])
    else:
        pairs = [
            [a, b] if rng.random() < 0.5 else [b, a]
            for i, a in enumerate(ids)
            for b in ids[i + 1 :]
            if rng.random() < 0.3
        ]
    return json.dumps({"norms": norms, "conflicts": pairs})


def _resolutions(name: str, g: ConflictGraph, policies: list[Policy]) -> dict[str, str]:
    digests = {f"{name}/document": _sha(write_norm_document(g))}
    for policy in policies:
        for algorithm, run in ALGORITHMS.items():
            key = f"{name}/{algorithm}/{_policy_key(policy)}"
            digests[key] = _sha(write_resolution(run(g, policy)))
    return digests


def golden_digests() -> dict[str, str]:
    digests: dict[str, str] = {}
    for path in sorted(DATA_DIR.glob("*.json")):
        g = parse_norm_document(path.read_text(encoding="utf-8"))
        digests.update(_resolutions(path.name, g, _fixture_policies(g)))
    for preset in ("oren-count", "score-sum", "score-avg"):
        rows = run_benchmark(preset_config(preset, seed=0, trials=2))
        digests[f"bench/{preset}/trials-2/seed-0"] = _sha(rows_to_csv(rows))
    for shape in ("sparse", "dense"):
        g = parse_norm_document(generated_document(shape))
        policies = [
            Policy.lex_posterior(),
            Policy.lex_specialis(ScoreMode.GROSS),
            Policy.weak_order(_tied_ranks(g)),
        ]
        digests.update(_resolutions(f"{shape}-300", g, policies))
    return dict(sorted(digests.items()))


def test_outputs_match_the_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = golden_digests()
    keys = expected.keys() | actual.keys()
    changed = sorted(k for k in keys if expected.get(k) != actual.get(k))
    assert not changed, f"{len(changed)} golden digests differ: {changed[:10]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_digests(), indent=1) + "\n", encoding="utf-8")
