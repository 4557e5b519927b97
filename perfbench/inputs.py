"""Seeded inputs for the large-document workloads.

Standard library only: the documents depend on the seed alone, never on the
program under test, so every commit is measured on the same bytes.
"""
from __future__ import annotations

import hashlib
import json
import random

AUTHORITY_LEVELS = 8
ANTECEDENT_ATOMS = tuple(f"a{j:02d}" for j in range(12))


def derive_seed(seed: int, *parts: object) -> int:
    """Stable 64-bit seed for one named input stream of a workload seed."""
    text = ":".join(map(repr, (seed, *parts)))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def norm_document(seed: int, n_norms: int, n_conflicts: int) -> str:
    """A norm document with ``n_conflicts`` distinct random conflicts.

    ``declared_at`` is a permutation of 0..n-1, so lex-posterior is a strict
    order. Authority is drawn from 0..7, so lex-superior ties are common.
    Each norm has 1-4 antecedents out of 12 atoms, so lex-specialis sees
    both comparable and incomparable pairs. Conflict pairs come in random
    orientation and order; the text is indented like ``write_norm_document``.
    """
    if not 0 <= n_conflicts <= n_norms * (n_norms - 1) // 2:
        raise ValueError(f"{n_conflicts} conflicts do not fit {n_norms} norms")
    rng = random.Random(seed)
    ids = [f"n{i:04d}" for i in range(n_norms)]
    declared = list(range(n_norms))
    rng.shuffle(declared)
    norms = [
        {
            "id": ids[i],
            "declared_at": declared[i],
            "authority_rank": rng.randrange(AUTHORITY_LEVELS),
            "antecedents": sorted(rng.sample(ANTECEDENT_ATOMS, rng.randint(1, 4))),
        }
        for i in range(n_norms)
    ]
    seen: set[tuple[int, int]] = set()
    conflicts = []
    while len(conflicts) < n_conflicts:
        a, b = rng.randrange(n_norms), rng.randrange(n_norms)
        key = (a, b) if a < b else (b, a)
        if a == b or key in seen:
            continue
        seen.add(key)
        conflicts.append([ids[a], ids[b]])
    return json.dumps({"norms": norms, "conflicts": conflicts}, indent=2) + "\n"
