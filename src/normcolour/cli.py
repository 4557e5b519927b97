"""Command-line front end.

Three subcommands, all thin wrappers over the library:

* ``resolve`` — read a norm document, run one of the four algorithms under
  a policy, emit the resolution document.
* ``check``   — classify a norm set (conflict-free / admissible / complete)
  with the brute-force oracle.
* ``bench``   — run one of the canned benchmark presets and emit CSV.

Exit codes: 0 success, 1 usage error, 2 input error.
"""
from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .bench import _PRESETS, preset_config, rows_to_csv, run_benchmark
from .documents import parse_norm_document, parse_rank_map, write_resolution
from .errors import NormColourError, SchemaError
from .oracle import report
from .policies import Policy, PolicyKind, ScoreMode
from .resolution import ALGORITHMS

POLICY_NAMES = [kind.value for kind in PolicyKind]
# the resolve flag that sets each Policy field
_FLAGS = {"ranks": "--rank-file", "prefer_recent": "--prefer-recent", "mode": "--mode"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; remap through UsageError for the 0/1/2
    # exit-code contract.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="normcolour", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    resolve = sub.add_parser("resolve", help="resolve conflicts in a norm document")
    resolve.add_argument("--input", required=True, help="norm document (JSON)")
    resolve.add_argument("--algorithm", default="resolve", choices=sorted(ALGORITHMS))
    resolve.add_argument("--policy", required=True, choices=POLICY_NAMES)
    resolve.add_argument("--mode", default="net", choices=[mode.value for mode in ScoreMode])
    resolve.add_argument("--rank-file", help="JSON rank map {id: integer} for weak-order")
    resolve.add_argument(
        "--prefer-recent",
        action="store_true",
        help="flip lex-posterior to prefer the later-declared norm",
    )
    resolve.add_argument("--output", help="write the resolution here instead of stdout")

    check = sub.add_parser("check", help="classify a norm set with the oracle")
    check.add_argument("--input", required=True, help="norm document (JSON)")
    check.add_argument("--set", required=True, dest="norm_set", help="comma-separated norm ids")

    bench = sub.add_parser("bench", help="run a benchmark preset, emit CSV")
    bench.add_argument("--preset", required=True, choices=list(_PRESETS))
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--trials", type=int, help="override the preset's trials per point")
    bench.add_argument("--out", help="write CSV here instead of stdout")

    return parser


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise NormColourError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise NormColourError(f"cannot read {path}: not UTF-8 ({exc.reason})") from None
    except MemoryError:  # an endless device, or a file larger than memory
        raise NormColourError(f"cannot read {path}: too large to hold in memory") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise NormColourError(f"cannot write {path}: {exc.strerror or exc}") from None


def _build_policy(args: argparse.Namespace) -> Policy:
    ranks = args.rank_file  # a path, which Policy refuses unread for a kind that reads no rank map
    if args.policy == "weak-order":
        if not ranks:
            raise UsageError("--policy weak-order requires --rank-file")
        text = _read_text(ranks)
        try:
            ranks = parse_rank_map(text)
        except NormColourError as exc:
            raise type(exc)(f"{args.rank_file}: {exc}") from None
    try:
        return Policy(PolicyKind(args.policy), ScoreMode(args.mode), ranks, args.prefer_recent)
    except SchemaError as exc:  # a flag the policy does not read; the message names its field
        field, _, reason = str(exc).partition(": ")
        raise UsageError(f"{_FLAGS[field]}: {reason}") from None


def _cmd_resolve(args: argparse.Namespace) -> int:
    policy = _build_policy(args)
    g = parse_norm_document(_read_text(args.input))
    resolution = ALGORITHMS[args.algorithm](g, policy)
    _write_text(args.output, write_resolution(resolution))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    g = parse_norm_document(_read_text(args.input))
    members = [part for part in args.norm_set.split(",") if part]
    rep = report(g, members)
    flags = ("conflict_free", "admissible", "complete")
    print(" ".join(f"{name}={str(getattr(rep, name)).lower()}" for name in flags))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.trials is not None and args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    cfg = preset_config(args.preset, seed=args.seed, trials=args.trials)
    rows = run_benchmark(cfg)
    _write_text(args.out, rows_to_csv(rows))
    return 0


_COMMANDS = {"resolve": _cmd_resolve, "check": _cmd_check, "bench": _cmd_bench}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (resolve, check, or bench)")
        return _COMMANDS[args.command](args)
    except SystemExit:  # argparse exits only once it has printed -h's help, as error() raises
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NormColourError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
