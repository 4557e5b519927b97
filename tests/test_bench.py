import random
import sys
from collections import Counter
from dataclasses import replace

import pytest

from normcolour import (
    EmptyInput,
    NormColourError,
    Policy,
    SchemaError,
    TooLarge,
    TooManyConflicts,
    UnknownNormId,
    build_graph,
)
from normcolour import bench, colouring, graph
from normcolour.bench import (
    BenchConfig,
    Metric,
    benchmark_norms,
    default_weak_ordering,
    derive_seed,
    generate_random_conflicts,
    max_conflicts,
    preset_config,
    rows_to_csv,
    run_benchmark,
    summarise,
)


class TestGenerateRandomConflicts:
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda rng: generate_random_conflicts(4, -1, True, rng), "n_conflicts"),
            (lambda rng: generate_random_conflicts(-1, 1, True, rng), "n_norms"),
            (lambda rng: generate_random_conflicts("4", 1, True, rng), "n_norms"),
            (lambda rng: generate_random_conflicts(4, 1.0, True, rng), "n_conflicts"),
            (lambda rng: benchmark_norms(-3), "n"),
            (lambda rng: default_weak_ordering(-3), "n"),
            (lambda rng: benchmark_norms(True), "n"),
            (lambda rng: generate_random_conflicts(4, 2, "no", rng), "duplicate_directed_pairs"),
            (lambda rng: generate_random_conflicts(4, 2, None, rng), "duplicate_directed_pairs"),
            (lambda rng: generate_random_conflicts(4, 2, 1, rng), "duplicate_directed_pairs"),
            (lambda rng: max_conflicts(-3, True), "n_norms"),
            (lambda rng: max_conflicts(2.5, True), "n_norms"),
            (lambda rng: max_conflicts("ab", True), "n_norms"),
            (lambda rng: max_conflicts(4, "yes"), "duplicate_directed_pairs"),
        ],
        ids=["negative-conflicts", "negative-norms", "str-norms", "float-conflicts",
             "benchmark_norms", "default_weak_ordering", "bool-norms",
             "str-directed", "none-directed", "int-directed", "max_conflicts-negative",
             "max_conflicts-float", "max_conflicts-str", "max_conflicts-str-directed"],
    )
    def test_a_bad_count_is_named(self, call, name):
        rng = random.Random(0)
        with pytest.raises(SchemaError, match=f"^{name}: expected a"):
            call(rng)
        assert rng.random() == random.Random(0).random()  # nothing was drawn

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda rng: benchmark_norms(10**5000), "n"),
            (lambda rng: default_weak_ordering(10**5000), "n"),
            (lambda rng: generate_random_conflicts(10**5000, 1, True, rng), "n_norms"),
            (lambda rng: run_benchmark(BenchConfig(
                policy=Policy.max_class(), metric=Metric.ADMITTED_COUNT, n_norms=10**5000,
                conflict_range=(1, 1), trials_per_point=1,
            )), "n_norms"),
        ],
        ids=["benchmark_norms", "default_weak_ordering", "generate_random_conflicts",
             "run_benchmark"],
    )
    def test_a_count_too_long_to_print_is_refused(self, call, name):
        # such a count passes every cap, so only str() can stop it building its ids
        rng = random.Random(0)
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SchemaError, match=f"^{name}: an integer of over {limit} digits$"):
            call(rng)
        assert rng.random() == random.Random(0).random()  # nothing was drawn

    def test_zero_conflicts(self):
        assert generate_random_conflicts(16, 0, True, random.Random(0)) == []
        # zero norms is a valid count too
        assert generate_random_conflicts(0, 0, True, random.Random(0)) == []
        assert benchmark_norms(0) == [] and default_weak_ordering(0) == {}

    def test_each_call_hands_out_a_fresh_norm_list(self):
        # the norm set is cached per count; a caller's edits must not reach it
        first = benchmark_norms(5)
        first.reverse()
        first.append(first[0])
        assert [norm.id for norm in benchmark_norms(5)] == ["n0", "n1", "n2", "n3", "n4"]
        cached = bench._norm_set.cache_info().currsize
        with pytest.raises(SchemaError):
            benchmark_norms(10**5000)
        assert bench._norm_set.cache_info().currsize == cached

    def test_full_directed_budget_collapses_to_complete_graph(self):
        pairs = generate_random_conflicts(16, 240, True, random.Random(1))
        assert len(pairs) == 240
        g = build_graph(benchmark_norms(16), pairs)
        assert len(g.edges) == 120
        assert all(g.degree(v) == 15 for v in g.ids)

    def test_full_undirected_budget_is_complete_graph(self):
        pairs = generate_random_conflicts(16, 120, False, random.Random(1))
        g = build_graph(benchmark_norms(16), pairs)
        assert len(g.edges) == 120

    def test_pairs_are_distinct(self):
        pairs = generate_random_conflicts(10, 60, True, random.Random(5))
        assert len(set(pairs)) == 60

    def test_over_budget(self):
        with pytest.raises(TooManyConflicts):
            generate_random_conflicts(16, 241, True, random.Random(0))
        with pytest.raises(TooManyConflicts):
            generate_random_conflicts(16, 121, False, random.Random(0))

    def test_a_count_too_long_to_print_is_not_shown(self):
        with pytest.raises(TooManyConflicts) as info:
            generate_random_conflicts(16, 10**5000, True, random.Random(0))
        assert str(info.value) == "<too long to print> conflicts exceed the maximum of 240"

    def test_deterministic(self):
        a = generate_random_conflicts(12, 30, False, random.Random(9))
        b = generate_random_conflicts(12, 30, False, random.Random(9))
        assert a == b

    @pytest.mark.parametrize("directed", [True, False])
    def test_mutating_a_draw_leaves_later_draws_unchanged(self, directed):
        first = generate_random_conflicts(12, 30, directed, random.Random(9))
        expected = list(first)
        first.reverse()
        first[0] = ("n00", "n00")
        first.append(("x", "y"))
        assert generate_random_conflicts(12, 30, directed, random.Random(9)) == expected


class TestConfig:
    def test_range_validation(self):
        with pytest.raises(TooManyConflicts):
            BenchConfig(policy=Policy.max_class(), metric=Metric.ADMITTED_COUNT,
                        conflict_range=(1, 241))
        with pytest.raises(ValueError):
            BenchConfig(policy=Policy.max_class(), metric=Metric.ADMITTED_COUNT,
                        conflict_range=(5, 2))

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_must_be_positive(self, trials):
        with pytest.raises(ValueError, match="trials_per_point"):
            BenchConfig(policy=Policy.max_class(), metric=Metric.ADMITTED_COUNT,
                        trials_per_point=trials)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            BenchConfig(policy=Policy.max_class(), metric=Metric.ADMITTED_COUNT,
                        algorithms=("resolve", "quantum"))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"trials_per_point": 0},
            {"trials_per_point": 2.5},
            {"conflict_range": (5, 2)},
            {"conflict_range": (1.5, 3)},
            {"conflict_range": (1, 3.0)},
            {"n_norms": 16.0},
            {"algorithms": ("resolve", "quantum")},
            {"algorithms": "resolve"},
            {"algorithms": ["resolve"]},
            {"algorithms": ("resolve", "preferred", "resolve")},
            {"metric": "admitted-count"},
            {"conflict_range": (1, 2, 3)},
            {"conflict_range": [1]},
            {"conflict_range": 5},
            {"n_norms": -2, "conflict_range": (1, 1)},
            {"n_norms": -3, "conflict_range": (0, 0)},
            {"policy": None},
            {"duplicate_directed_pairs": "no"},
            {"seed": True},
            {"seed": "x"},
            {"seed": 1.0},
        ],
    )
    def test_bad_config_is_a_package_error(self, overrides):
        fields = {"policy": Policy.max_class(), "metric": Metric.ADMITTED_COUNT, **overrides}
        # the first override names the field the error must name
        with pytest.raises(SchemaError, match=next(iter(overrides))):
            BenchConfig(**fields)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_norms": -(10**5000)},
            {"trials_per_point": -(10**5000)},
            {"conflict_range": (0, 10**5000)},
            {"conflict_range": (10**5000, 1)},
            {"conflict_range": (1, 2, 10**5000)},
            {"algorithms": (10**5000,)},
            {"metric": 10**5000},
            {"policy": 10**5000},
            {"seed": 10**5000},
        ],
    )
    def test_a_value_too_long_to_print_is_not_shown(self, overrides):
        fields = {"policy": Policy.max_class(), "metric": Metric.ADMITTED_COUNT, **overrides}
        with pytest.raises(NormColourError, match=next(iter(overrides))) as info:
            BenchConfig(**fields)
        assert "<too long to print>" in str(info.value)

    def test_a_conflict_range_list_is_stored_as_a_tuple(self):
        fields = {"policy": Policy.max_class(), "metric": Metric.ADMITTED_COUNT}
        listed = BenchConfig(**fields, conflict_range=[1, 5])
        assert listed.conflict_range == (1, 5)
        assert listed == BenchConfig(**fields, conflict_range=(1, 5))
        assert hash(listed) == hash(BenchConfig(**fields, conflict_range=(1, 5)))

    def test_a_repeated_algorithm_is_named(self):
        with pytest.raises(SchemaError, match="^algorithms: 'resolve' is listed twice"):
            BenchConfig(Policy.max_class(), Metric.ADMITTED_COUNT,
                        algorithms=("resolve", "preferred", "resolve"))

    def test_unknown_preset_is_a_package_error(self):
        with pytest.raises(NormColourError, match="mystery"):
            preset_config("mystery")
        with pytest.raises(NormColourError, match="oren-count"):
            preset_config(["oren-count"])
        with pytest.raises(NormColourError, match="<too long to print>"):
            preset_config(10**5000)

    def test_max_conflicts(self):
        assert max_conflicts(16, True) == 240
        assert max_conflicts(16, False) == 120

    def test_presets(self):
        oren = preset_config("oren-count", seed=4)
        assert oren.conflict_range == (1, 240)
        assert oren.trials_per_point == 10
        assert oren.duplicate_directed_pairs
        score = preset_config("score-sum", trials=3)
        assert score.conflict_range == (1, 120)
        assert score.trials_per_point == 3
        assert not score.duplicate_directed_pairs
        with pytest.raises(ValueError):
            preset_config("mystery")


def class_size(g, phi, c):
    """A callable heuristic: the size of colour class c."""
    return sum(1 for v in g.ids if phi.assignment[v] == c)


def small_config(**overrides):
    base = dict(
        policy=Policy.weak_order(default_weak_ordering(16)),
        metric=Metric.ADMITTED_COUNT,
        conflict_range=(1, 1),
        trials_per_point=1,
        algorithms=("resolve",),
        seed=11,
    )
    base.update(overrides)
    return BenchConfig(**base)


class TestRunBenchmark:
    def test_single_point_single_trial(self):
        rows = run_benchmark(small_config())
        assert len(rows) == 1
        row = rows[0]
        assert (row.num_conflicts, row.trial, row.algorithm) == (1, 0, "resolve")
        assert row.metric == "admitted_count"
        assert row.value == 15.0  # one conflict leaves a 15-norm colour class

    def test_one_row_per_algorithm(self):
        rows = run_benchmark(
            small_config(algorithms=("resolve", "resolve-complete", "random-drop", "preferred"))
        )
        assert [r.algorithm for r in rows] == ["preferred", "random-drop", "resolve", "resolve-complete"]

    def test_curtailing_algorithms_report_exploratory_metrics(self):
        rows = run_benchmark(small_config(algorithms=("curtail", "curtail-complete")))
        metrics = {(r.algorithm, r.metric): r.value for r in rows}
        assert metrics[("curtail", "uncurtailed_count")] == 15.0
        assert metrics[("curtail", "curtailment_total")] == 1.0
        assert metrics[("curtail-complete", "curtailment_total")] == 1.0

    def test_paired_seeds_share_instances(self):
        rows = run_benchmark(small_config(algorithms=("resolve", "preferred")))
        assert len({r.seed for r in rows}) == 1

    def test_baseline_rows_carry_no_policy(self):
        rows = run_benchmark(small_config(algorithms=("random-drop",)))
        assert rows[0].policy == "none"

    def test_score_metrics(self):
        rows = run_benchmark(
            small_config(metric=Metric.SCORE_SUM, conflict_range=(120, 120),
                         duplicate_directed_pairs=False)
        )
        assert rows[0].metric == "score_sum"
        assert rows[0].value == 15.0  # complete graph: only the top norm survives
        rows = run_benchmark(
            small_config(metric=Metric.SCORE_AVG, conflict_range=(120, 120),
                         duplicate_directed_pairs=False)
        )
        assert rows[0].value == 15.0

    def test_deterministic_rows(self):
        cfg = small_config(conflict_range=(1, 5), trials_per_point=3,
                           algorithms=("resolve", "random-drop"))
        assert run_benchmark(cfg) == run_benchmark(cfg)

    def test_score_avg_near_zero_at_one_conflict(self):
        rows = run_benchmark(
            small_config(metric=Metric.SCORE_AVG, trials_per_point=20,
                         duplicate_directed_pairs=False)
        )
        assert all(-1.0 <= r.value <= 1.0 for r in rows)

    def test_paired_instance_ordering(self):
        # per shared instance: resolve <= resolve-complete <= exact maximum
        cfg = small_config(conflict_range=(20, 60), trials_per_point=2,
                           algorithms=("resolve", "resolve-complete", "preferred"))
        rows = run_benchmark(cfg)
        by_instance: dict[tuple[int, int], dict[str, float]] = {}
        for r in rows:
            by_instance.setdefault((r.num_conflicts, r.trial), {})[r.algorithm] = r.value
        for values in by_instance.values():
            assert values["resolve"] <= values["resolve-complete"] <= values["preferred"]

    @pytest.fixture
    def dsatur_calls(self, monkeypatch):
        """The adjacency of each call of the DSATUR core, whether the bench
        calls it directly or through ``dsatur``."""
        calls = []
        core = colouring._dsatur

        def counting_core(adj):
            calls.append(adj)
            return core(adj)

        monkeypatch.setattr(colouring, "_dsatur", counting_core)
        monkeypatch.setattr(bench, "_dsatur", counting_core)
        return calls

    @pytest.mark.parametrize("policy", [Policy.weak_order(default_weak_ordering(16)), class_size],
                             ids=["built-in", "callable"])
    def test_each_instance_is_coloured_once(self, dsatur_calls, policy):
        cfg = small_config(policy=policy, conflict_range=(1, 3), trials_per_point=2,
                           algorithms=("resolve", "resolve-complete", "curtail", "random-drop"))
        run_benchmark(cfg)
        assert len(dsatur_calls) == 6
        assert len({id(adj) for adj in dsatur_calls}) == 6

    def test_baselines_alone_colour_nothing(self, dsatur_calls):
        run_benchmark(small_config(conflict_range=(1, 3), algorithms=("random-drop", "preferred")))
        assert dsatur_calls == []

    @pytest.fixture
    def checked_calls(self, monkeypatch):
        """Counts of the checked constructions of a graph and of a colouring."""
        calls = Counter()

        def counting(name, original):
            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted

        cg, phi = graph.ConflictGraph, colouring.Colouring
        monkeypatch.setattr(cg, "__init__", counting("ConflictGraph", cg.__init__))
        monkeypatch.setattr(phi, "__post_init__", counting("Colouring", phi.__post_init__))
        return calls

    @pytest.mark.parametrize(
        "policy, algorithms, built",
        [
            # a built-in policy runs on neighbour masks: no graph, no colouring
            (None, ("curtail", "resolve"), {}),
            # the baselines run the oracle's cores on the same masks
            (None, ("curtail", "preferred", "random-drop", "resolve"), {}),
            # a callable scores a Colouring of a graph: dsatur's, once per instance
            (class_size, ("curtail", "resolve"), {"ConflictGraph": 6, "Colouring": 6}),
        ],
        ids=["built-in", "baselines", "callable"],
    )
    def test_each_instance_builds_only_what_it_needs(self, checked_calls, policy, algorithms,
                                                     built):
        cfg = small_config(metric=Metric.SCORE_SUM, conflict_range=(1, 3), trials_per_point=2,
                           algorithms=algorithms)
        run_benchmark(cfg if policy is None else replace(cfg, policy=policy))
        assert checked_calls == built

    def test_preferred_keeps_the_oracle_search_budget(self):
        cfg = small_config(policy=Policy.max_class(), algorithms=("preferred",))
        run_benchmark(replace(cfg, n_norms=24))
        with pytest.raises(TooLarge, match="^exhaustive admissible-set search capped at 24 norms$"):
            run_benchmark(replace(cfg, n_norms=25))

    @pytest.mark.parametrize("metric", [Metric.SCORE_SUM, Metric.SCORE_AVG])
    @pytest.mark.parametrize("algorithms", [("resolve", "curtail"), ("random-drop", "preferred")])
    def test_partial_rank_map_fails_before_any_instance(self, checked_calls, metric, algorithms):
        ranks = default_weak_ordering(16)
        del ranks["n15"]
        with pytest.raises(UnknownNormId, match="no rank to 'n15'"):
            run_benchmark(small_config(policy=Policy.weak_order(ranks), metric=metric,
                                       algorithms=algorithms))
        assert checked_calls == {}

    def test_different_seeds_differ(self):
        rows_a = run_benchmark(small_config(conflict_range=(40, 40), seed=1))
        rows_b = run_benchmark(small_config(conflict_range=(40, 40), seed=2))
        assert rows_a[0].seed != rows_b[0].seed


class TestSummarise:
    def test_single_row_is_its_own_mean(self):
        rows = run_benchmark(small_config())
        means = summarise(rows)
        key = (1, "resolve", "weak-order:net", "admitted_count")
        assert means[key] == rows[0].value

    def test_two_value_mean(self):
        rows = run_benchmark(small_config(conflict_range=(30, 30), trials_per_point=2))
        means = summarise(rows)
        values = [r.value for r in rows]
        assert means[(30, "resolve", "weak-order:net", "admitted_count")] == sum(values) / 2

    def test_group_mean_matches_recomputation(self):
        rows = run_benchmark(small_config(conflict_range=(10, 12), trials_per_point=10))
        means = summarise(rows)
        for point in (10, 11, 12):
            group = [r.value for r in rows if r.num_conflicts == point]
            assert means[(point, "resolve", "weak-order:net", "admitted_count")] == pytest.approx(
                sum(group) / len(group)
            )

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            summarise([])


class TestCsv:
    def test_header_and_line_endings(self):
        text = rows_to_csv(run_benchmark(small_config()))
        assert text.startswith("num_conflicts,trial,algorithm,policy,metric,value,seed\n")
        assert "\r" not in text
        assert text.endswith("\n")

    def test_float_rendering(self):
        rows = run_benchmark(
            small_config(metric=Metric.SCORE_AVG, conflict_range=(7, 7), trials_per_point=1)
        )
        line = rows_to_csv(rows).splitlines()[1]
        value = line.split(",")[5]
        assert len(value.replace("-", "").replace(".", "")) <= 7  # 6 significant digits

    def test_derive_seed_is_stable(self):
        assert derive_seed(7, 10, 3) == derive_seed(7, 10, 3)
        assert derive_seed(7, 10, 3) != derive_seed(7, 10, 4)
        assert derive_seed(7, 10, 3) != derive_seed(8, 10, 3)
