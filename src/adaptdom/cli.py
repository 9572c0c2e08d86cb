"""Command-line surface: run scenarios, inspect trees, check reports.

Exit codes: 0 success, 1 violated invariant or invalid configuration,
2 usage or parse error. Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    AdaptdomError,
    DanglingReference,
    IoFailure,
    ParseError,
    UnknownVersion,
)
from .persistence import load_config
from .registry import Kind
from .report import RunReport, verify_report
from .simharness import Simulator
from .adaptation import strategy_name

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8: {exc.reason}") from exc


def cmd_run(args) -> int:
    system = load_config(_read_text(args.scenario))
    sim = Simulator(system, seed=args.seed)
    report = sim.run(args.until)
    text = report.render()
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoFailure(f"cannot write {args.report}: {exc}") from exc
        print(f"report written to {args.report}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def render_tree(system) -> list[str]:
    """Deterministic indented rendering of the domain hierarchy."""
    registry = system.registry
    lines = ["/ [domain]" + _logic_suffix(system, registry.root)]

    def walk(domain, depth):
        for name, member in sorted(registry.member_names(domain).items()):
            kind = member.kind.value
            suffix = _logic_suffix(system, member) if member.kind is Kind.DOMAIN else ""
            lines.append(f"{'  ' * depth}{name} [{kind}]{suffix}")
            if member.kind is Kind.DOMAIN:
                walk(member, depth + 1)

    walk(registry.root, 1)
    return lines


def _logic_suffix(system, domain) -> str:
    logic = system.engine.logic_of(domain)
    if logic is None:
        return ""
    return f" logic={logic.name} strategy={strategy_name(logic.strategy)}"


def cmd_tree(args) -> int:
    system = load_config(_read_text(args.config))
    for line in render_tree(system):
        print(line)
    return EXIT_OK


def cmd_validate(args) -> int:
    load_config(_read_text(args.scenario))
    print("ok")
    return EXIT_OK


def cmd_replay(args) -> int:
    problems = verify_report(_read_text(args.report))
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return EXIT_VIOLATION
    print(f"ok: all invariants hold over {args.report}")
    return EXIT_OK


def cmd_dump_graph(args) -> int:
    report = RunReport.parse(_read_text(args.report))
    for line in report.graph_lines:
        print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptdom",
        description="Adaptive management domains over a deterministic simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its report")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--until", type=int, default=1000)
    p_run.add_argument("--report", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_tree = sub.add_parser("tree", help="render the domain hierarchy")
    p_tree.add_argument("config")
    p_tree.set_defaults(fn=cmd_tree)

    p_val = sub.add_parser("validate", help="check a scenario document")
    p_val.add_argument("scenario")
    p_val.set_defaults(fn=cmd_validate)

    p_replay = sub.add_parser("replay", help="re-check invariants over a report")
    p_replay.add_argument("report")
    p_replay.set_defaults(fn=cmd_replay)

    p_dump = sub.add_parser("dump-graph", help="print a report's final graph")
    p_dump.add_argument("report")
    p_dump.set_defaults(fn=cmd_dump_graph)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except (ParseError, UnknownVersion, IoFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DanglingReference,) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except AdaptdomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
