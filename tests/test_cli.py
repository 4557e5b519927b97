import argparse
import contextlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normcolour
from normcolour import Policy, cli
from normcolour.bench import CSV_HEADER
from normcolour.cli import build_parser, main
from normcolour.documents import parse_norm_document, read_resolution, write_resolution
from normcolour.resolution import colour_curtail_complete

from .conftest import DATA_DIR, data_text


@pytest.fixture
def six_norms_file(tmp_path):
    path = tmp_path / "six_norms.json"
    shutil.copy(DATA_DIR / "six_norms.json", path)
    return str(path)


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.json"
    shutil.copy(DATA_DIR / "k2.json", path)
    return str(path)


class TestResolveCommand:
    def test_max_class_to_stdout(self, six_norms_file, capsys):
        code = main(["resolve", "--input", six_norms_file, "--algorithm", "resolve", "--policy", "max-class"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["algorithm"] == "resolve"
        assert doc["policy"] == "max-class"
        assert all(e["curtailed_wrt"] == [] for e in doc["entries"])

    def test_output_file(self, six_norms_file, tmp_path):
        out = tmp_path / "res.json"
        code = main(
            ["resolve", "--input", six_norms_file, "--algorithm", "curtail",
             "--policy", "lex-posterior", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["entries"]) == 6

    def test_matches_library_call(self, six_norms_file, capsys):
        code = main(
            ["resolve", "--input", six_norms_file, "--algorithm", "curtail-complete",
             "--policy", "lex-posterior", "--mode", "gross"]
        )
        assert code == 0
        from normcolour.policies import ScoreMode

        g = parse_norm_document(data_text("six_norms.json"))
        expected = write_resolution(
            colour_curtail_complete(g, Policy.lex_posterior(ScoreMode.GROSS))
        )
        assert capsys.readouterr().out == expected

    def test_weak_order_with_rank_file(self, k2_file, tmp_path, capsys):
        rank_file = tmp_path / "ranks.json"
        rank_file.write_text('{"a": 1, "b": 2}')
        code = main(
            ["resolve", "--input", k2_file, "--algorithm", "resolve",
             "--policy", "weak-order", "--rank-file", str(rank_file)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [e["norm"] for e in doc["entries"]] == ["b"]

    def test_weak_order_without_rank_file_is_usage_error(self, k2_file, capsys):
        code = main(["resolve", "--input", k2_file, "--policy", "weak-order"])
        assert code == 1
        assert "rank-file" in capsys.readouterr().err

    def test_bad_rank_file_is_input_error(self, k2_file, tmp_path, capsys):
        rank_file = tmp_path / "ranks.json"
        rank_file.write_text('{"a": "high"}')
        code = main(
            ["resolve", "--input", k2_file, "--policy", "weak-order",
             "--rank-file", str(rank_file)]
        )
        assert code == 2
        assert str(rank_file) in capsys.readouterr().err

    def test_deeply_nested_rank_file_is_input_error(self, k2_file, tmp_path, capsys):
        rank_file = tmp_path / "ranks.json"
        rank_file.write_text("[" * 100_000 + "]" * 100_000)
        code = main(
            ["resolve", "--input", k2_file, "--policy", "weak-order",
             "--rank-file", str(rank_file)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(rank_file) in err
        assert "nested too deeply" in err

    def test_overlong_integer_in_rank_file_is_input_error(self, k2_file, tmp_path, capsys):
        rank_file = tmp_path / "ranks.json"
        rank_file.write_text('{"a": ' + "9" * 5000 + ', "b": 1}')
        code = main(
            ["resolve", "--input", k2_file, "--policy", "weak-order",
             "--rank-file", str(rank_file)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(rank_file) in err
        assert "integer literal" in err

    def test_missing_input_file(self, capsys):
        code = main(["resolve", "--input", "/nonexistent.json", "--policy", "max-class"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["resolve", "--input", str(bad), "--policy", "max-class"]) == 2

    def test_schema_violation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"norms": [{"label": "missing id"}]}')
        assert main(["resolve", "--input", str(bad), "--policy", "max-class"]) == 2

    def test_invalid_utf8_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"norms": [{"id": "\xff"}]}')
        assert main(["resolve", "--input", str(bad), "--policy", "max-class"]) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_overlong_integer_in_document_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "long.json"
        bad.write_text('{"norms": [{"id": "a", "declared_at": -' + "9" * 5000 + "}]}")
        assert main(["resolve", "--input", str(bad), "--policy", "lex-posterior"]) == 2
        assert "integer literal" in capsys.readouterr().err

    def test_input_too_large_for_memory_is_input_error(self, k2_file, monkeypatch, capsys):
        # the read fails as it would on /dev/zero, without allocating anything
        class TooLarge(io.StringIO):
            def read(self, *args):
                raise MemoryError

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: TooLarge(), raising=False)
        assert main(["resolve", "--input", k2_file, "--policy", "max-class"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot read {k2_file}: too large to hold in memory\n"

    def test_deeply_nested_document_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["resolve", "--input", str(bad), "--policy", "max-class"]) == 2
        assert "nested too deeply" in capsys.readouterr().err


class TestCheckCommand:
    def test_conflicting_pair(self, k2_file, capsys):
        code = main(["check", "--input", k2_file, "--set", "a,b"])
        assert code == 0
        assert capsys.readouterr().out.strip() == (
            "conflict_free=false admissible=false complete=false"
        )

    def test_complete_set(self, six_norms_file, capsys):
        code = main(["check", "--input", six_norms_file, "--set", "1,2,3,5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "conflict_free=true" in out
        assert "admissible=true" in out
        assert "complete=true" in out

    def test_empty_set(self, k2_file, capsys):
        assert main(["check", "--input", k2_file, "--set", ""]) == 0
        assert "conflict_free=true" in capsys.readouterr().out

    def test_unknown_id_is_input_error(self, k2_file):
        assert main(["check", "--input", k2_file, "--set", "a,zz"]) == 2

    @pytest.mark.parametrize("hash_seed", range(8))
    def test_first_unknown_id_is_named_under_every_hash_seed(self, k2_file, hash_seed):
        src = str(Path(normcolour.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "normcolour.cli", "check", "--input", k2_file, "--set", "p,q,r,s"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: unknown norm id 'p'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["resolve", "--policy", "max-class", "--output"],
        ["bench", "--preset", "score-sum", "--trials", "1", "--out"],
    ],
    ids=["resolve", "bench"],
)
def test_an_unwritable_output_is_input_error(argv, six_norms_file, tmp_path, capsys):
    path = tmp_path / "missing-directory" / "out"
    if argv[0] == "resolve":
        argv = [*argv[:1], "--input", six_norms_file, *argv[1:]]
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ")
    assert not path.parent.exists()


class TestBenchCommand:
    def test_small_preset_run(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["bench", "--preset", "score-sum", "--seed", "3", "--trials", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "num_conflicts,trial,algorithm,policy,metric,value,seed"
        # 120 conflict counts x 1 trial x 2 algorithms
        assert len(lines) == 1 + 120 * 2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_usage_error(self, trials, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["bench", "--preset", "score-sum", "--trials", trials, "--out", str(out)])
        assert code == 1
        assert "--trials" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_preset_is_usage_error(self, capsys):
        assert main(["bench", "--preset", "mystery"]) == 1


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert main(["resolve", "--frobnicate"]) == 1

    def test_unknown_subcommand(self):
        assert main(["explode"]) == 1

    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_bad_algorithm_name(self, k2_file):
        assert main(["resolve", "--input", k2_file, "--policy", "max-class", "--algorithm", "nope"]) == 1

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--policy", "lex-posterior", "--rank-file", "RANKS"], "--rank-file"),
            (["--policy", "max-class", "--rank-file", "RANKS"], "--rank-file"),
            (["--policy", "lex-superior", "--rank-file", "MISSING"], "--rank-file"),
            (["--policy", "lex-superior", "--prefer-recent"], "--prefer-recent"),
            (["--policy", "lex-specialis", "--prefer-recent"], "--prefer-recent"),
            (["--policy", "weak-order", "--rank-file", "RANKS", "--prefer-recent"], "--prefer-recent"),
            (["--policy", "max-class", "--mode", "gross"], "--mode"),
        ],
    )
    def test_a_flag_the_policy_does_not_read_is_usage_error(
        self, k2_file, tmp_path, capsys, flags, named
    ):
        rank_file = tmp_path / "ranks.json"
        rank_file.write_text('{"a": 1, "b": 2}')
        out = tmp_path / "res.json"
        argv = ["resolve", "--input", k2_file, "--output", str(out)]
        files = {"RANKS": str(rank_file), "MISSING": str(tmp_path / "missing.json")}
        argv += [files.get(flag, flag) for flag in flags]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {named}: ")
        assert not out.exists()


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [[], ["resolve"], ["check"], ["bench"]])
def test_help_returns_zero_with_the_help_on_stdout(command, flag, capsys):
    assert main([*command, flag]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(" ".join(["usage: normcolour", *command, "[-h]"]))
    assert err == ""


def test_entry_exits_zero_after_help(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["normcolour", "bench", "-h"])
    with pytest.raises(SystemExit) as info:
        cli.entry()
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: normcolour bench")


def test_readme_commands_parse():
    # every `normcolour ...` line of the README's console blocks, with its
    # backslash continuations joined, must be accepted by the CLI's parser
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```console\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("normcolour ")]
    assert {argv[0] for argv in commands} == {"resolve", "check", "bench"}
    for argv in commands:
        build_parser().parse_args(argv)


# -- argv drawn from the parser's own actions ---------------------------------
# Every input is a file written here, a directory or a missing path, so no
# drawn argv reads an endless device.


def _subcommand_actions() -> dict[str, list[argparse.Action]]:
    """Each subcommand's actions but help, which stops parsing at once
    (``test_help_returns_zero_with_the_help_on_stdout``)."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        for name, parser in sub.choices.items()
    }


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """Input paths, good and bad, and output paths, writable and not."""
    root = tmp_path_factory.mktemp("fuzz")
    texts = {
        "norms.json": json.dumps({
            "norms": [{"id": "a", "declared_at": 1, "authority_rank": 2, "antecedents": ["p"]},
                      {"id": "b", "declared_at": 2, "antecedents": ["p", "q"]}, {"id": "c"}],
            "conflicts": [["a", "b"], ["b", "c"]],
        }),
        "ranks.json": '{"a": 2, "b": 1, "c": 0}',
        "empty.json": "",
        "truncated.json": "{",
        "nested.json": "[" * 5000 + "]" * 5000,
        "long-int.json": '{"a": ' + "9" * 5000 + "}",
    }
    for name, text in texts.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "latin-1.json").write_bytes(b'{"norms": [{"id": "\xe9"}]}')
    inputs = [str(root / name) for name in [*texts, "latin-1.json", "missing.json"]]
    outputs = [str(root / "out"), str(root), str(root / "missing" / "out")]
    return inputs + [str(root)], outputs


# True nine times in ten: Hypothesis draws small integers far more often
_USUALLY = st.sampled_from([True] * 9 + [False])


def _value(action: argparse.Action, inputs: list[str], outputs: list[str]):
    """A strategy for the argument of an action that takes one."""
    if action.choices:
        return st.sampled_from([*action.choices] * 3 + ["bogus"])
    if action.type is int:  # --seed and --trials: at most one trial per point
        return st.sampled_from(["1", "0", "-2", "x", "9" * 5000])
    good = st.sampled_from(inputs[:2])  # the norm document and the rank map, half the time
    by_dest = {
        "input": st.one_of(good, st.sampled_from(inputs)),
        "rank_file": st.one_of(good, st.sampled_from(inputs)),
        "output": st.sampled_from(outputs),
        "out": st.sampled_from(outputs),
        "norm_set": st.sampled_from(["a", "a,c", "a,b,c", "zz", ""]),
    }
    return by_dest[action.dest]  # a new flag needs its values here


@st.composite
def _argv(draw, inputs: list[str], outputs: list[str]) -> list[str]:
    actions = _subcommand_actions()
    command = draw(st.sampled_from([*actions] * 3 + ["explode", None]))
    argv = [] if command is None else [command]
    pool = actions.get(command) or [a for group in actions.values() for a in group]
    # the required flags first, each now and then left out, then any others
    chosen = [a for a in pool if a.required and draw(_USUALLY)]
    for action in chosen + draw(st.lists(st.sampled_from(pool), max_size=4)):
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0 and draw(_USUALLY):  # now and then, its value left out
            argv.append(draw(_value(action, inputs, outputs)))
    if not draw(_USUALLY):
        argv.append(draw(st.sampled_from(["--frobnicate", "stray"])))
    if command == "bench":  # the last --trials wins, so a preset runs one trial per point
        argv += ["--trials", draw(st.sampled_from(["1", "1", "0", "x"]))]
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_drawn_argv_keeps_the_exit_code_contract(fuzz_paths, data):
    inputs, outputs = fuzz_paths
    argv = data.draw(_argv(inputs, outputs), label="argv")
    if os.path.isfile(outputs[0]):
        os.remove(outputs[0])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert err.startswith("usage error:") == (code == 1)
    assert err.startswith("error:") == (code == 2)
    if code == 0:
        assert err == ""
        args = build_parser().parse_args(argv)
        path = getattr(args, "output", None) or getattr(args, "out", None)
        text = out.getvalue() if path is None else Path(path).read_text(encoding="utf-8")
        if args.command == "resolve":
            read_resolution(text)
        elif args.command == "bench":
            assert text.startswith(",".join(CSV_HEADER) + "\n")
