"""Differential tests: DSATUR, the admission engine, the per-norm
scoring kernel and its keys, the random-drop baseline, the bench loop and
its conflict sampler, the norm-document parser and ``build_graph``, and the
oracle's predicates and exhaustive searches against private copies of the
implementations they replaced, plus fuzzing of the document parsers.
A graph under a policy and a corrupted norm document are each drawn by
one test, and each draw runs each public call once.
``test_algorithms_match_the_reference`` holds the four algorithms, DSATUR,
random drop, the class totals in both modes and the policy's keys to the
reference on one drawn graph and policy. It checks every output invariant
on those results (``_assert_invariants`` for the four algorithms,
``_assert_dsatur_matches_the_reference`` for DSATUR) and the graph's own:
symmetry, degrees, a rebuild and the norm document's round trip.
``test_parse_errors_match_the_checking_parser`` holds the parser, and
``build_graph`` on the pairs in each container, to the checking loop.

The reference below colours with DSATUR's O(n²) selection scan, keeps the
four algorithms as four separate loops and scores every pairwise policy
through a per-kind ``prefers`` dispatch, as the package did before all
three were rewritten. As in the paper, ``reference`` colours and ranks
once per graph and policy, and the four loops start from that one
colouring and class order. Its bench builds each instance once, through
the checked ``build_graph``, runs each public algorithm and baseline on
it once and reads the rows of all three metrics from that run, through
``score_admitted_set``. Its parser checks every norm and pair, and errors
must match it in type and full message. The reference calls only public
names of the package, none of the private code under test. Outputs must
stay equal, so any refactor behind the public names can prove that it
changed nothing.
"""
from __future__ import annotations

import json
import random
from dataclasses import replace
from itertools import combinations, permutations, product
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcolour import (
    ALGORITHMS,
    build_graph,
    Colouring,
    ConflictGraph,
    CurtailedNorm,
    DuplicateNormId,
    Norm,
    NormColourError,
    NormId,
    Policy,
    PolicyKind,
    Resolution,
    SchemaError,
    ScoreMode,
    SelfConflict,
    TooLarge,
    UnknownNormId,
    dsatur,
    is_valid_colouring,
    policy_label,
    score_admitted_set,
)
from normcolour import policies
from normcolour.bench import (
    BASELINES,
    BenchConfig,
    BenchRow,
    Metric,
    benchmark_norms,
    default_weak_ordering,
    derive_seed,
    generate_random_conflicts,
    max_conflicts,
    run_benchmark,
)
from normcolour.documents import (
    ResolutionDocument,
    parse_norm_document,
    parse_rank_map,
    read_resolution,
    write_norm_document,
    write_resolution,
)
from normcolour.oracle import (
    MAX_ADMISSIBLE_SEARCH,
    MAX_CHROMATIC_SEARCH,
    chromatic_number,
    is_admissible,
    is_complete_extension,
    is_conflict_free,
    is_stable_extension,
    max_cardinality_admissible,
    random_drop,
)

from .conftest import class_totals
from .test_properties import graphs, graphs_with_policies

# -- reference: colouring ---------------------------------------------------


def _ref_dsatur(g: ConflictGraph) -> Colouring:
    order = g.ids
    if not order:
        return Colouring({}, 0)

    assignment: dict[NormId, int] = {}
    # saturation set = distinct colours among already-coloured neighbours
    neighbour_colours: dict[NormId, set[int]] = {v: set() for v in order}
    degree = {v: g.degree(v) for v in order}
    num_used = 0

    for _ in range(len(order)):
        best = None
        best_key = (-1, -1)
        for v in order:
            if v in assignment:
                continue
            key = (len(neighbour_colours[v]), degree[v])
            if key > best_key:
                best = v
                best_key = key
        assert best is not None
        blocked = neighbour_colours[best]
        colour = next(c for c in range(num_used + 1) if c not in blocked)
        assignment[best] = colour
        num_used = max(num_used, colour + 1)
        for w in g.neighbours(best):
            if w not in assignment:
                neighbour_colours[w].add(colour)

    return Colouring(assignment, num_used)


# -- reference: policies ----------------------------------------------------


def _ref_rank(ranks, v):
    assert ranks is not None
    try:
        return ranks[v]
    except KeyError:
        raise UnknownNormId(f"weak ordering assigns no rank to {v!r}") from None


def _ref_prefers(policy: Policy, g: ConflictGraph, a: NormId, b: NormId) -> bool:
    if policy.kind is PolicyKind.LEX_POSTERIOR:
        ta, tb = g.norm(a).declared_at, g.norm(b).declared_at
        return ta > tb if policy.prefer_recent else ta < tb
    if policy.kind is PolicyKind.LEX_SUPERIOR:
        return g.norm(a).authority_rank > g.norm(b).authority_rank
    if policy.kind is PolicyKind.LEX_SPECIALIS:
        return g.norm(a).antecedents < g.norm(b).antecedents
    if policy.kind is PolicyKind.WEAK_ORDER:
        return _ref_rank(policy.ranks, a) > _ref_rank(policy.ranks, b)
    raise ValueError(f"{policy.kind.value} is not a pairwise-preference policy")


def _ref_score_colour(g: ConflictGraph, phi: Colouring, c: int, policy: Policy) -> float:
    members = [v for v in g.ids if phi.assignment[v] == c]
    if policy.kind is PolicyKind.MAX_CLASS:
        return float(len(members))

    total = 0
    for v in members:
        for w in g.neighbours(v):
            if _ref_prefers(policy, g, v, w):
                total += 1
            elif policy.mode is ScoreMode.NET and _ref_prefers(policy, g, w, v):
                total -= 1
    return float(total)


def _ref_rank_colours(g: ConflictGraph, phi: Colouring, policy: Policy) -> list[int]:
    scores = {c: _ref_score_colour(g, phi, c, policy) for c in range(phi.num_colours)}
    return sorted(scores, key=lambda c: (-scores[c], c))


# -- reference: random-drop baseline ---------------------------------------


def _ref_random_drop(g: ConflictGraph, rng: random.Random) -> frozenset[NormId]:
    # rebuilds the live-edge list from every edge after each drop
    alive = set(g.ids)
    while True:
        live = [e for e in g.edges if e[0] in alive and e[1] in alive]
        if not live:
            return frozenset(alive)
        edge = live[rng.randrange(len(live))]
        alive.discard(edge[rng.randrange(2)])


# -- reference: the four algorithms ----------------------------------------


def _prepare(g: ConflictGraph, policy: Policy) -> tuple[Colouring, list[int]]:
    phi = _ref_dsatur(g)
    return phi, _ref_rank_colours(g, phi, policy)


def _complete_into(
    g: ConflictGraph,
    assignment: dict[NormId, int],
    c: int,
    members: set[NormId],
    skip: set[NormId],
) -> None:
    for v in g.ids:
        if v in skip:
            continue
        if g.neighbours(v).isdisjoint(members):
            assignment[v] = c
            members.add(v)


def _class_members(g: ConflictGraph, assignment: Mapping[NormId, int], c: int) -> list[NormId]:
    return [v for v in g.ids if assignment[v] == c]


# Each algorithm gives its entries and final colouring from the prepared
# colouring phi and class order.


def _ref_resolve(g: ConflictGraph, phi: Colouring, order: list[int]):
    entries: tuple[CurtailedNorm, ...] = ()
    if order:
        best = order[0]
        entries = tuple(CurtailedNorm(v) for v in _class_members(g, phi.assignment, best))
    return entries, phi


def _ref_resolve_complete(g: ConflictGraph, phi: Colouring, order: list[int]):
    if not order:
        return (), phi
    best = order[0]
    assignment = dict(phi.assignment)
    members = set(_class_members(g, assignment, best))
    _complete_into(g, assignment, best, members, skip=set())
    entries = tuple(CurtailedNorm(v) for v in _class_members(g, assignment, best))
    return entries, Colouring(assignment, phi.num_colours)


def _ref_curtail(g: ConflictGraph, phi: Colouring, order: list[int]):
    entries: list[CurtailedNorm] = []
    admitted_order: list[NormId] = []
    for c in order:
        members = _class_members(g, phi.assignment, c)
        for v in members:
            nbrs = g.neighbours(v)
            wrt = tuple(w for w in admitted_order if w in nbrs)
            entries.append(CurtailedNorm(v, wrt))
        admitted_order.extend(members)
    return tuple(entries), phi


def _ref_curtail_complete(g: ConflictGraph, phi: Colouring, order: list[int]):
    assignment = dict(phi.assignment)
    entries: list[CurtailedNorm] = []
    admitted_order: list[NormId] = []
    admitted: set[NormId] = set()
    for c in order:
        members_set = set(_class_members(g, assignment, c))
        _complete_into(g, assignment, c, members_set, skip=admitted)
        members = _class_members(g, assignment, c)
        for v in members:
            nbrs = g.neighbours(v)
            wrt = tuple(w for w in admitted_order if w in nbrs)
            entries.append(CurtailedNorm(v, wrt))
        admitted_order.extend(members)
        admitted.update(members)
    return tuple(entries), Colouring(assignment, phi.num_colours)


_REFERENCE = {
    "resolve": _ref_resolve,
    "resolve-complete": _ref_resolve_complete,
    "curtail": _ref_curtail,
    "curtail-complete": _ref_curtail_complete,
}


def reference(g: ConflictGraph, policy: Policy) -> dict[str, Resolution]:
    """Each algorithm's resolution by name, all four from one colouring and
    one class order, as in the paper."""
    phi, order = _prepare(g, policy)
    label = policy_label(policy)
    return {
        name: Resolution(name, label, *algorithm(g, phi, order), tuple(order))
        for name, algorithm in _REFERENCE.items()
    }


def _results(g: ConflictGraph, policy: Policy) -> dict[str, Resolution]:
    return {name: algorithm(g, policy) for name, algorithm in ALGORITHMS.items()}


def _assert_invariants(g: ConflictGraph, results: dict[str, Resolution]) -> None:
    """What the paper guarantees of the four algorithms' results on g."""
    for res in results.values():
        phi = res.colouring
        assert is_valid_colouring(g, phi)
        assert Colouring(phi.assignment, phi.num_colours) == phi
        document = ResolutionDocument(res.algorithm, res.policy, phi.num_colours, res.entries)
        assert read_resolution(write_resolution(res)) == document
    resolved = results["resolve"].admitted
    assert is_conflict_free(g, resolved) and is_admissible(g, resolved)
    completed = frozenset(results["resolve-complete"].admitted)
    assert is_stable_extension(g, completed) and is_complete_extension(g, completed)
    # stable by the definition: a norm is outside exactly when a neighbour is inside
    assert all((v in completed) == g.neighbours(v).isdisjoint(completed) for v in g.ids)
    assert set(resolved) <= completed  # completion only grows the admitted set
    assert len(completed) <= len(max_cardinality_admissible(g))
    for name, plain in (("curtail", "resolve"), ("curtail-complete", "resolve-complete")):
        res = results[name]
        assert sorted(res.admitted) == sorted(g.ids)
        uncurtailed = res.admitted_unconditionally
        assert is_conflict_free(g, uncurtailed) and is_admissible(g, uncurtailed)
        # each conflict curtails one end, the one admitted later, by the other
        assert res.total_curtailments == len(g.edges)
        order = [e.norm for e in res.entries]
        for k, e in enumerate(res.entries):
            assert e.curtailed_wrt == tuple(v for v in order[:k] if v in g.neighbours(e.norm))
        if res.colour_order:  # the first class admitted is the plain variant's
            first = [v for v in order if res.colouring.assignment[v] == res.colour_order[0]]
            assert tuple(first) == results[plain].admitted
    # each completed class blocks every later norm, so only the first is uncurtailed
    res = results["curtail-complete"]
    assert res.admitted_unconditionally == completed
    later = set(g.ids)
    for c in res.colour_order:
        members = {v for v in later if res.colouring.assignment[v] == c}
        later -= members
        assert all(not g.neighbours(v).isdisjoint(members) for v in later)


def _assert_dsatur_matches_the_reference(g: ConflictGraph) -> Colouring:
    """DSATUR's colouring of g, once it is held equal to the reference's."""
    phi, ref = dsatur(g), _ref_dsatur(g)
    # the assignment's order is the selection order, so it is compared too
    assert list(phi.assignment.items()) == list(ref.assignment.items())
    assert phi.num_colours == ref.num_colours
    assert Colouring(phi.assignment, phi.num_colours) == phi
    assert is_valid_colouring(g, phi)
    assert phi.num_colours <= max((g.degree(v) for v in g.ids), default=0) + 1  # Brooks-style
    assert sorted(phi.assignment) == sorted(g.ids)
    assert set(phi.assignment.values()) == set(range(phi.num_colours))
    for v, c in phi.assignment.items():
        assert all(phi.assignment[w] != c for w in g.neighbours(v))
    return phi


def _tie_heavy_graph(rng: random.Random, shape: str, n: int) -> ConflictGraph:
    """n norms with ids shuffled against insertion order (so no tie can be
    broken by the id itself), joined in one of a few tie-heavy shapes."""
    ids = [f"n{i}" for i in rng.sample(range(n), n)]
    pairs = ((a, b) for i, a in enumerate(ids) for b in ids[i + 1 :])
    if shape == "edgeless":
        edges = []
    elif shape == "star":
        edges = [(ids[n // 2], v) for v in ids if v != ids[n // 2]]
    elif shape == "complete":
        edges = list(pairs)
    elif shape == "stars":  # several equal-degree hubs sharing their leaves
        hubs = ids[:: n // 5]
        edges = [(h, v) for h in hubs for v in ids if v not in hubs]
    else:
        p = {"sparse": 4 / n, "dense": 0.3}[shape]
        edges = [e for e in pairs if rng.random() < p]
    return ConflictGraph([Norm(v) for v in ids], edges)


@pytest.mark.parametrize("shape", ["edgeless", "star", "stars", "complete", "sparse", "dense"])
def test_dsatur_matches_the_reference_on_larger_graphs(shape):
    rng = random.Random(f"dsatur-{shape}")
    for n in (150, 300):
        _assert_dsatur_matches_the_reference(_tie_heavy_graph(rng, shape, n))


@settings(max_examples=200, deadline=None)
@given(graphs_with_policies(max_n=16), st.integers(0, 2**32))
def test_algorithms_match_the_reference(gp, seed):
    g, policy = gp
    results = _results(g, policy)
    assert results == reference(g, policy)
    _assert_invariants(g, results)
    phi = _assert_dsatur_matches_the_reference(g)

    rng, ref_rng = random.Random(seed), random.Random(seed)
    dropped = random_drop(g, rng)
    assert dropped == _ref_random_drop(g, ref_rng)
    assert is_conflict_free(g, dropped)
    # the same number of draws, so a caller's later draws are unchanged too
    assert rng.random() == ref_rng.random()

    # class totals under the policy and, if pairwise, its other mode
    pairwise = policy.kind is not PolicyKind.MAX_CLASS
    for p in [replace(policy, mode=mode) for mode in ScoreMode] if pairwise else [policy]:
        assert class_totals(g, phi, p) == [
            _ref_score_colour(g, phi, c, p) for c in range(phi.num_colours)
        ]
    assert sum(class_totals(g, phi, Policy.max_class())) == len(g)
    if pairwise:  # a is preferred to b exactly when a's key is below b's
        key = policies._keys(policy, g.norms)
        for (i, a), (j, b) in product(enumerate(g.ids), repeat=2):
            assert (key[i] < key[j]) == _ref_prefers(policy, g, a, b)

    for v in g.ids:
        assert all(v in g.neighbours(w) and w != v for w in g.neighbours(v))
    assert sum(g.degree(v) for v in g.ids) == 2 * len(g.edges)
    # a rebuild ignores the pairs' order and orientation, and repeats collapse
    rnd = random.Random(seed)
    pairs = [e[::-1] if rnd.random() < 0.5 else e for e in g.edges] + list(g.edges)
    rnd.shuffle(pairs)
    assert build_graph(g.norms, pairs) == g
    assert parse_norm_document(write_norm_document(g)) == g


def _ring(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


# Classic graphs of 6-12 norms, past the exhaustive 5-norm scope of
# tests/test_small_graphs.py, whose structure a random draw rarely hits.
_NAMED_GRAPHS = {
    "cycle-6": _ring(6),
    "cycle-7": _ring(7),
    "wheel-7": _ring(6) + [(6, i) for i in range(6)],
    "prism-6": _ring(3) + [(3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)],
    "octahedron-6": [(i, j) for i, j in combinations(range(6), 2) if j - i != 3],
    "complete-6": list(combinations(range(6), 2)),
    "bipartite-3-3": [(i, j) for i in range(3) for j in range(3, 6)],
    "crown-8": [(i, 4 + j) for i in range(4) for j in range(4) if i != j],
    "cube-8": [(i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < i ^ b],
    "wagner-8": _ring(8) + [(i, i + 4) for i in range(4)],
    "petersen-10": _ring(5) + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    # the Mycielskian of the 5-cycle: triangle-free, yet four colours
    "grotzsch-11": _ring(5) + [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    + [(10, 5 + i) for i in range(5)],
}


@pytest.mark.parametrize("name", _NAMED_GRAPHS)
def test_algorithms_match_the_reference_on_named_graphs(name):
    edges = _NAMED_GRAPHS[name]
    n = 1 + max(max(e) for e in edges)
    # metadata from few values, so every pairwise policy meets ties
    norms = [
        Norm(f"n{i}", declared_at=i % 3, authority_rank=(2 * i) % 3,
             antecedents=frozenset(("", "p", "pq", "q")[i % 4]))
        for i in range(n)
    ]
    g = ConflictGraph(norms, [(f"n{i}", f"n{j}") for i, j in edges])
    for policy in _every_built_in_policy(g):
        results = _results(g, policy)
        assert results == reference(g, policy), policy_label(policy)
        _assert_invariants(g, results)


def _seeded_document(seed: int, n: int, degree: int) -> str:
    """A norm document of n norms with metadata drawn from few values, so
    every policy meets ties, and about n * degree / 2 conflicts."""
    rng = random.Random(f"curtail-{seed}")
    norms = [
        {
            "id": f"n{i}",
            "declared_at": rng.randrange(n // 4),
            "authority_rank": rng.randrange(5),
            "antecedents": rng.sample("pqrs", rng.randrange(4)),
        }
        for i in rng.sample(range(n), n)
    ]
    pairs = rng.sample(list(combinations(range(n), 2)), n * degree // 2)
    conflicts = [[norms[i]["id"], norms[j]["id"]] for i, j in pairs]
    return json.dumps({"norms": norms, "conflicts": conflicts})


def _every_built_in_policy(g: ConflictGraph) -> list[Policy]:
    rng = random.Random(len(g))
    ranks = {v: rng.randrange(-4, 5) for v in g.ids}
    return [Policy.max_class(), Policy.lex_posterior(prefer_recent=True)] + [
        make(mode)
        for mode in ScoreMode
        for make in (
            Policy.lex_posterior,
            Policy.lex_superior,
            Policy.lex_specialis,
            lambda mode: Policy.weak_order(ranks, mode),
        )
    ]


@pytest.mark.parametrize("seed, n, degree", [(0, 300, 6), (1, 320, 24)])
def test_algorithms_match_the_reference_on_larger_documents(seed, n, degree):
    # the curtailing algorithms admit every norm with the curtailments handed
    # forward to it, so each list's order is compared on graphs far beyond
    # the 16-norm examples
    g = parse_norm_document(_seeded_document(seed, n, degree))
    for policy in _every_built_in_policy(g):
        assert _results(g, policy) == reference(g, policy), policy_label(policy)


def _as_callable(policy: Policy):
    """A callable heuristic that scores each class as the built-in policy does."""
    def score(g: ConflictGraph, phi: Colouring, c: int) -> float:
        return class_totals(g, phi, policy)[c]
    return score


@pytest.mark.parametrize("seed, n, degree", [(2, 12, 3), (3, 40, 4), (4, 60, 12), (5, 24, 20)])
def test_a_built_in_policy_resolves_as_its_callable_does(seed, n, degree):
    # a built-in policy is ranked on positions, a callable through DSATUR's
    # Colouring and rank_colours; metadata drawn from few values gives every
    # policy tied classes (equal sizes under max-class, shared authority
    # ranks under lex superior, a weak order with ties)
    g = parse_norm_document(_seeded_document(seed, n, degree))
    for policy in _every_built_in_policy(g):
        for run in ALGORITHMS.values():
            built_in, called = run(g, policy), run(g, _as_callable(policy))
            assert built_in.entries == called.entries
            assert built_in.colouring == called.colouring
            assert list(built_in.colouring.assignment) == list(called.colouring.assignment)
            assert built_in.colour_order == called.colour_order


def _specific_graph(seed: int, n: int, atoms: int) -> ConflictGraph:
    """n norms whose antecedents come from `atoms` atoms, mostly distinct: half
    draw a fresh set, the other half drop or add one atom of an earlier norm's
    set and conflict with it, so many conflicts join a strict subset to its
    superset; random conflicts join the rest."""
    rng = random.Random(seed)
    sets, pairs = [], []
    for i in range(n):
        if i < 2 or rng.random() < 0.5:
            sets.append(frozenset(f"x{a}" for a in rng.sample(range(atoms), rng.randint(2, 5))))
            continue
        k = rng.randrange(i)
        base = sets[k]
        if len(base) > 1 and rng.random() < 0.5:
            sets.append(base - {rng.choice(sorted(base))})
        else:
            sets.append(base | {f"x{rng.randrange(atoms)}"})
        pairs.append((f"n{k}", f"n{i}"))
    pairs += [tuple(f"n{i}" for i in rng.sample(range(n), 2)) for _ in range(2 * n)]
    return build_graph([Norm(f"n{i}", antecedents=s) for i, s in enumerate(sets)], pairs)


@pytest.mark.parametrize("mode", list(ScoreMode))
def test_lex_specialis_keys_on_many_atoms_match_the_reference(mode):
    # the keys are the norms' own antecedent sets, not copies or complements
    g = _specific_graph(seed=3, n=300, atoms=400)
    assert len(set(norm.antecedents for norm in g.norms)) > 0.9 * len(g)
    policy = Policy.lex_specialis(mode)
    assert all(k is norm.antecedents for k, norm in zip(policies._keys(policy, g.norms), g.norms))
    net = mode is ScoreMode.NET
    ref = [
        sum(
            1 if _ref_prefers(policy, g, v, w) else -1 if net and _ref_prefers(policy, g, w, v) else 0
            for w in g.neighbours(v)
        )
        for v in g.ids
    ]
    assert any(ref)
    assert policies._norm_scores(g, policy) == ref


# -- reference: oracle predicates and exhaustive searches -------------------
# The id-keyed versions the position-based oracle replaced.


def _ref_as_member_set(g: ConflictGraph, members) -> frozenset[NormId]:
    s = frozenset(members)
    for v in s:
        if v not in g:
            raise UnknownNormId(f"unknown norm id {v!r}")
    return s


def _ref_is_conflict_free(g: ConflictGraph, members) -> bool:
    """True iff no conflict joins two members."""
    s = _ref_as_member_set(g, members)
    return all(g.neighbours(v).isdisjoint(s) for v in s)


def _ref_is_acceptable(g: ConflictGraph, v: NormId, s: frozenset[NormId]) -> bool:
    # v is acceptable wrt s iff s attacks every attacker of v.
    return all(not g.neighbours(b).isdisjoint(s) for b in g.neighbours(v))


def _ref_is_admissible(g: ConflictGraph, members) -> bool:
    """True iff conflict-free and every member's attackers are attacked back.

    With bidirectional attacks each member defends itself, so this agrees
    with is_conflict_free; both sides are computed from the definitions.
    """
    s = _ref_as_member_set(g, members)
    return _ref_is_conflict_free(g, s) and all(_ref_is_acceptable(g, v, s) for v in s)


def _ref_is_complete_extension(g: ConflictGraph, members) -> bool:
    """True iff admissible and containing every norm acceptable wrt itself."""
    s = _ref_as_member_set(g, members)
    if not _ref_is_admissible(g, s):
        return False
    return all(v in s for v in g.ids if _ref_is_acceptable(g, v, s))


def _ref_is_stable_extension(g: ConflictGraph, members) -> bool:
    """True iff a maximal conflict-free set: with symmetric attacks, the
    stable extensions (Coste-Marquis, Devred and Marquis 2005)."""
    s = _ref_as_member_set(g, members)
    return _ref_is_conflict_free(g, s) and not any(
        _ref_is_conflict_free(g, s | {v}) for v in g.ids if v not in s
    )


def _ref_max_cardinality_admissible(g: ConflictGraph) -> frozenset[NormId]:
    """A maximum-cardinality conflict-free set, by exhaustive branch and bound.

    Equals a maximum independent set of the graph. Among maximum sets the
    one whose sorted id tuple is lexicographically smallest is returned.
    Raises TooLarge above the search budget.
    """
    n = len(g)
    if n > MAX_ADMISSIBLE_SEARCH:
        raise TooLarge(f"exhaustive admissible-set search capped at {MAX_ADMISSIBLE_SEARCH} norms")
    ids = sorted(g.ids)
    pos = {v: i for i, v in enumerate(ids)}
    adj = [0] * n
    for a, b in g.edges:
        adj[pos[a]] |= 1 << pos[b]
        adj[pos[b]] |= 1 << pos[a]

    best_mask = 0
    best_count = 0

    def explore(i: int, chosen: int, count: int, blocked: int) -> None:
        nonlocal best_mask, best_count
        if count + (n - i) <= best_count:
            return
        if i == n:
            best_mask, best_count = chosen, count
            return
        if not (blocked >> i) & 1:
            explore(i + 1, chosen | (1 << i), count + 1, blocked | adj[i])
        explore(i + 1, chosen, count, blocked)

    explore(0, 0, 0, 0)
    return frozenset(ids[i] for i in range(n) if (best_mask >> i) & 1)


def _ref_chromatic_number(g: ConflictGraph) -> int:
    """Exact chromatic number via backtracking; capped for tractability."""
    n = len(g)
    if n > MAX_CHROMATIC_SEARCH:
        raise TooLarge(f"exact colouring search capped at {MAX_CHROMATIC_SEARCH} norms")
    if n == 0:
        return 0
    upper = dsatur(g).num_colours
    lower = max(1, len(_ref_greedy_clique(g)))
    for k in range(lower, upper):
        if _ref_colourable_with(g, k):
            return k
    return upper


def _ref_greedy_clique(g: ConflictGraph) -> list[NormId]:
    order = sorted(g.ids, key=lambda v: -g.degree(v))
    clique: list[NormId] = []
    for v in order:
        if all(u in g.neighbours(v) for u in clique):
            clique.append(v)
    return clique


def _ref_colourable_with(g: ConflictGraph, k: int) -> bool:
    order = sorted(g.ids, key=lambda v: -g.degree(v))
    pos = {v: i for i, v in enumerate(order)}
    earlier_neighbours = [
        [pos[w] for w in g.neighbours(v) if pos[w] < pos[v]] for v in order
    ]
    colours = [-1] * len(order)

    def assign(i: int, used: int) -> bool:
        if i == len(order):
            return True
        forbidden = {colours[j] for j in earlier_neighbours[i]}
        # allowing at most one fresh colour per step breaks colour symmetry
        for c in range(min(used + 1, k)):
            if c not in forbidden:
                colours[i] = c
                if assign(i + 1, max(used, c + 1)):
                    return True
        colours[i] = -1
        return False

    return assign(0, 0)


@st.composite
def graphs_with_member_sets(draw):
    g = draw(graphs(max_n=12))
    subsets = st.lists(st.sampled_from(g.ids), unique=True) if g.ids else st.just([])
    members = draw(st.one_of(st.just([]), st.just(list(g.ids)), subsets))
    return g, members


@settings(max_examples=300, deadline=None)
@given(graphs_with_member_sets())
def test_oracle_matches_the_reference(gm):
    g, members = gm
    assert is_conflict_free(g, members) == _ref_is_conflict_free(g, members)
    assert is_admissible(g, members) == _ref_is_admissible(g, members)
    assert is_complete_extension(g, members) == _ref_is_complete_extension(g, members)
    assert is_stable_extension(g, members) == _ref_is_stable_extension(g, members)
    assert max_cardinality_admissible(g) == _ref_max_cardinality_admissible(g)
    assert chromatic_number(g) == _ref_chromatic_number(g)


# -- reference: the bench loop and its conflict sampler ----------------------
# Each instance is built once and each algorithm or baseline runs on it
# once, through the public names; every metric's rows are read from that
# run. The candidate pairs are rebuilt on every draw.


def _ref_generate_random_conflicts(
    n_norms: int, n_conflicts: int, duplicate_directed_pairs: bool, rng: random.Random
) -> list[tuple[NormId, NormId]]:
    ids = [norm.id for norm in benchmark_norms(n_norms)]
    pairs = permutations if duplicate_directed_pairs else combinations
    chosen = rng.sample(list(pairs(range(n_norms), 2)), n_conflicts)
    return [(ids[i], ids[j]) for i, j in chosen]


def _ref_readings(a: str, g: ConflictGraph, policy: Policy, ranks, seed: int):
    """Algorithm or baseline a's rows on g under each metric, as
    (policy label, measure, value), from one run of a."""
    if a == "random-drop":
        label, admitted = "none", random_drop(g, random.Random(derive_seed(seed, "random-drop")))
    elif a == "preferred":
        label, admitted = "none", max_cardinality_admissible(g)
    else:
        res = ALGORITHMS[a](g, policy)
        label, admitted = res.policy, res.admitted
    counts = [("admitted_count", len(admitted))]
    if a.startswith("curtail"):
        admitted = res.admitted_unconditionally
        counts = [("curtailment_total", res.total_curtailments),
                  ("uncurtailed_count", len(admitted))]
    total = float(score_admitted_set(g, admitted, ranks))
    return {
        Metric.ADMITTED_COUNT: [(label, measure, float(v)) for measure, v in counts],
        Metric.SCORE_SUM: [(label, "score_sum", total)],
        Metric.SCORE_AVG: [(label, "score_avg", total / len(admitted) if admitted else 0.0)],
    }


def _ref_run_benchmark(cfg: BenchConfig) -> dict[Metric, list[BenchRow]]:
    """The rows of cfg's sweep under each metric; cfg.metric is not read."""
    norms = benchmark_norms(cfg.n_norms)
    ranks = cfg.policy.ranks
    if ranks is None:
        ranks = default_weak_ordering(cfg.n_norms)
    rows: dict[Metric, list[BenchRow]] = {metric: [] for metric in Metric}
    lo, hi = cfg.conflict_range
    for k in range(lo, hi + 1):
        for trial in range(cfg.trials_per_point):
            seed = derive_seed(cfg.seed, k, trial)
            pairs = _ref_generate_random_conflicts(
                cfg.n_norms, k, cfg.duplicate_directed_pairs, random.Random(seed)
            )
            g = build_graph(norms, pairs)
            for a in sorted(cfg.algorithms):
                for metric, readings in _ref_readings(a, g, cfg.policy, ranks, seed).items():
                    rows[metric] += [BenchRow(k, trial, a, *reading, seed) for reading in readings]
    return rows


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12), st.booleans(), st.data())
def test_conflict_sampler_matches_the_reference(n, duplicate, data):
    k = data.draw(st.integers(0, max_conflicts(n, duplicate)))
    seed = data.draw(st.integers(0, 2**32))
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert generate_random_conflicts(n, k, duplicate, rng) == _ref_generate_random_conflicts(
        n, k, duplicate, ref_rng
    )
    # the same number of draws, so a caller's later draws are unchanged too
    assert rng.random() == ref_rng.random()


def _bench_policies(n: int) -> list:
    """The policies the bench is checked under, with rank maps for n norms."""
    ids = [norm.id for norm in benchmark_norms(n)]
    return [
        Policy.max_class(),
        Policy.lex_posterior(),
        Policy.lex_posterior(ScoreMode.GROSS, prefer_recent=True),
        Policy.lex_superior(),
        Policy.lex_specialis(),
        Policy.lex_specialis(ScoreMode.GROSS),
        Policy.weak_order(default_weak_ordering(n)),
        Policy.weak_order({v: i % 3 for i, v in enumerate(ids)}, ScoreMode.GROSS),
    ]


_BENCH_POLICIES = {policy_label(p): k for k, p in enumerate(_bench_policies(1))}


# n_norms: (conflict range or None for all, trials, algorithms)
_BENCH_SIZES = {
    9: ((0, 36), 2, (*ALGORITHMS, *BASELINES)),
    # the paper's size over its whole range; a directed draw repeats edges
    16: (None, 1, (*ALGORITHMS, *BASELINES)),
    # masks of more than one machine word; the exact search stops at 24 norms
    70: ((150, 165), 1, (*ALGORITHMS, "random-drop")),
}


@pytest.mark.parametrize("n", _BENCH_SIZES, ids="{}-norms".format)
@pytest.mark.parametrize("policy", _BENCH_POLICIES)
def test_bench_matches_the_reference(policy, n):
    conflicts, trials, algorithms = _BENCH_SIZES[n]
    for seed, duplicate in ((3, True), (4, False)):
        cfg = BenchConfig(
            policy=_bench_policies(n)[_BENCH_POLICIES[policy]],
            metric=Metric.ADMITTED_COUNT,
            n_norms=n,
            conflict_range=conflicts or (0, max_conflicts(n, duplicate)),
            trials_per_point=trials,
            duplicate_directed_pairs=duplicate,
            seed=seed,
            algorithms=algorithms,
        )
        expected = _ref_run_benchmark(cfg)
        for metric in Metric:
            assert run_benchmark(replace(cfg, metric=metric)) == expected[metric], (
                seed, duplicate, metric)


# -- reference: the norm-document parser, in isinstance checks only ---------
# The field and pair rules as Norm, the parser and ConflictGraph stated them
# before their exact-type tests, kept here as a statement of the rules that
# is independent of the code under test.


def _ref_norm_fields(id, label, declared_at, authority_rank, antecedents) -> None:
    """Norm's field rules: SchemaError for the first bad field."""
    if not isinstance(id, str) or not id:
        raise SchemaError("id: expected a non-empty string")
    if not isinstance(label, str):
        raise SchemaError("label: expected a string")
    for field, value in (("declared_at", declared_at), ("authority_rank", authority_rank)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"{field}: expected an integer")
    if not isinstance(antecedents, (list, tuple, set, frozenset)):
        raise SchemaError("antecedents: expected a list of strings")
    for i, atom in enumerate(antecedents):
        if not isinstance(atom, str):
            raise SchemaError(f"antecedents[{i}]: expected a string")


def _ref_parse_norm(item: object, i: int) -> Norm:
    if not isinstance(item, dict):
        raise SchemaError(f"norms[{i}]: expected an object")
    if "id" not in item:
        raise SchemaError(f"norms[{i}]: missing required field 'id'")
    fields = (
        item["id"],
        item.get("label", ""),
        item.get("declared_at", 0),
        item.get("authority_rank", 0),
        item.get("antecedents", ()),
    )
    try:
        _ref_norm_fields(*fields)
    except SchemaError as exc:
        raise SchemaError(f"norms[{i}].{exc}") from None
    return Norm(*fields)  # outside the try: a field Norm refuses wrongly shows unprefixed


def _ref_build_graph(norms, conflicts) -> tuple[tuple[Norm, ...], tuple[tuple[int, ...], ...]]:
    """The graph's norms and adjacency by position, or the error it raises."""
    norms = tuple(norms)
    index: dict[NormId, int] = {}
    for pos, v in enumerate(norm.id for norm in norms):
        if index.setdefault(v, pos) != pos:
            raise DuplicateNormId(f"norms[{pos}]: duplicate norm id {v!r}")
    adj: list[set[int]] = [set() for _ in norms]
    for k, pair in enumerate(conflicts):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SchemaError(f"conflicts[{k}]: expected a pair of norm ids")
        a, b = pair
        if not isinstance(a, str) or not isinstance(b, str):
            raise SchemaError(f"conflicts[{k}][{int(isinstance(a, str))}]: expected a string")
        try:
            i, j = index[a], index[b]
        except KeyError as exc:
            raise UnknownNormId(f"conflicts[{k}]: unknown norm id {exc.args[0]!r}") from None
        if i == j:
            raise SelfConflict(f"conflicts[{k}]: norm {a!r} cannot conflict with itself")
        adj[i].add(j)
        adj[j].add(i)
    return norms, tuple(tuple(sorted(ns)) for ns in adj)


def _ref_parse_norm_document(text: str):
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    raw_norms = doc.get("norms")
    if not isinstance(raw_norms, list):
        raise SchemaError("norms: expected a list")
    norms = [_ref_parse_norm(item, i) for i, item in enumerate(raw_norms)]
    raw_conflicts = doc.get("conflicts", [])
    if not isinstance(raw_conflicts, list):
        raise SchemaError("conflicts: expected a list")
    return _ref_build_graph(norms, raw_conflicts)


def _outcome(f, *args):
    """f's result, a graph as its norms and adjacency by position, or the
    type and full message of what f raised."""
    try:
        got = f(*args)
    except NormColourError as exc:
        return type(exc), str(exc)
    return (got.norms, got._adj) if isinstance(got, ConflictGraph) else got


# Replacements of a norm's field or of the whole item, each of which the
# checked constructor rejects
_DELETE = object()
_NORM_CORRUPTIONS = [
    ("id", _DELETE), ("id", None), ("id", ""), ("id", 5), ("id", ["a"]),
    ("label", 3), ("label", None),
    ("declared_at", True), ("declared_at", 1.5), ("declared_at", "3"),
    ("authority_rank", False), ("authority_rank", None),
    ("antecedents", "p"), ("antecedents", [1]), ("antecedents", ["p", None]),
    ("antecedents", {"p": 1}), ("antecedents", [["p"]]),
    ("item", 5), ("item", "a"), ("item", ["id", "a"]), ("item", None),
]
# Replacements of a conflict pair; "ab" and {"a": .., "b": ..} would unpack
# to the ids a and b, which every document below has.
_PAIR_CORRUPTIONS = [
    "ab", {"a": 1, "b": 2}, ["a", "b", "c"], ["a"], [], ["a", "a"], ["a", "zz"],
    ["zz", "a"], ["a", 5], [5, "a"], [True, "b"], [None, None], 5, None,
]


@st.composite
def corrupted_norm_documents(draw):
    """A valid norm document, then up to three corruptions at random norm or
    pair indices: bad fields and items, duplicate ids, bad pairs."""
    extra = draw(st.lists(st.sampled_from(["c", "d", "é", "x\"y", "\u2028"]), unique=True))
    ids = draw(st.permutations(["a", "b", *extra]))
    norms = []
    for v in ids:
        item = {"id": v}
        for field, values in (
            ("label", st.text(max_size=3)),
            ("declared_at", st.integers(-5, 5)),
            ("authority_rank", st.integers(-5, 5)),
            ("antecedents", st.lists(st.sampled_from(["p", "q", "r"]), max_size=3)),
        ):
            if draw(st.booleans()):
                item[field] = draw(values)
        norms.append(item)
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
    conflicts = [list(p) for p in draw(st.lists(pair, max_size=8))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["norm", "duplicate", "pair"]))
        if kind == "pair":
            if conflicts:
                k = draw(st.integers(0, len(conflicts) - 1))
                conflicts[k] = draw(st.sampled_from(_PAIR_CORRUPTIONS))
            continue
        i = draw(st.integers(0, len(norms) - 1))
        if kind == "duplicate":
            field, value = "id", draw(st.sampled_from(ids))
        else:
            field, value = draw(st.sampled_from(_NORM_CORRUPTIONS))
        if field == "item":
            norms[i] = value
        elif not isinstance(norms[i], dict):
            continue  # already replaced whole
        elif value is _DELETE:
            norms[i] = {k: v for k, v in norms[i].items() if k != field}
        else:
            norms[i] = {**norms[i], field: value}
    return json.dumps({"norms": norms, "conflicts": conflicts})


# the conflicts as a list, as a tuple of tuples and as a one-shot iterator
_CONTAINERS = (
    list,
    lambda pairs: tuple(tuple(p) if isinstance(p, list) else p for p in pairs),
    iter,
)


@settings(max_examples=500, deadline=None)
@given(corrupted_norm_documents())
def test_parse_errors_match_the_checking_parser(text):
    assert _outcome(parse_norm_document, text) == _outcome(_ref_parse_norm_document, text)
    doc = json.loads(text)
    try:
        norms = [_ref_parse_norm(item, i) for i, item in enumerate(doc["norms"])]
    except SchemaError:
        return  # no graph to build
    for make in _CONTAINERS:
        expected = _outcome(_ref_build_graph, norms, make(doc["conflicts"]))
        assert _outcome(build_graph, norms, make(doc["conflicts"])) == expected
# -- fuzzing: malformed documents raise NormColourError, nothing else -------

# the field names both document shapes use, so that fuzzing gets past the top level
_FIELDS = st.sampled_from(
    [
        "norms", "conflicts", "id", "label", "declared_at", "authority_rank", "antecedents",
        "entries", "norm", "curtailed_wrt", "algorithm", "policy", "colours_used",
    ]
)
# a leaf that the text replaces with a number literal of 4,000-6,000 digits,
# past Python's default limit of 4,300 digits for reading an int
_LONG_NUMBER = "<long number>"
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.just(_LONG_NUMBER),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_FIELDS | st.text(max_size=4), inner, max_size=5),
    max_leaves=24,
)
_long_numbers = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "-"]),
    st.integers(4000, 6000).map("7".__mul__),
    st.sampled_from(["", ".5", "e3"]),
)
_json_texts = st.builds(
    lambda value, number: json.dumps(value).replace(json.dumps(_LONG_NUMBER), number),
    _json_values,
    _long_numbers,
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_json_texts, st.text(), st.binary()))
def test_parsers_raise_only_package_errors(document):
    for parse in (parse_norm_document, parse_rank_map, read_resolution):
        try:
            parse(document)
        except NormColourError:
            pass
