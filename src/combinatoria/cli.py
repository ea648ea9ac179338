"""Command-line surface over the whole library.

Output contract, shared by every subcommand:

- ``--format human`` (default): an aligned table on stdout.
- ``--format json``: one envelope object ``{"command", "format_version",
  "result"}``.  Every count is a decimal string, never a JSON number, so
  arbitrarily large values survive any JSON parser.
- ``--format csv``: a header row plus data rows; non-numeric fields quoted.

The default format can be preset with the COMBINATORIA_FORMAT environment
variable.  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, Sequence

from . import genealogy as genealogy_mod
from . import oracle as oracle_mod
from . import partitions as partitions_mod
from . import problems as problems_mod
from .caput import CaputSpec, HeadMode, count_caput, enumerate_caput
from .errors import CombinatoriaError
from .perm import (
    Permutation,
    compose,
    cycle_type,
    fixed_points,
    format_cycles,
    format_one_line,
    inverse,
    parse_permutation,
)

FORMAT_VERSION = "1"
FORMAT_ENV_VAR = "COMBINATORIA_FORMAT"
FORMATS = ("human", "json", "csv")


def _default_format() -> str:
    value = os.environ.get(FORMAT_ENV_VAR, "human").strip().lower()
    return value if value in FORMATS else "human"


def _perm_payload(p: Permutation) -> dict:
    return {
        "degree": p.degree,
        "one_line": format_one_line(p),
        "cycles": format_cycles(p),
        "cycle_type": str(cycle_type(p)),
    }


def _parse_problem_id(text: str):
    if text.strip().lower() == problems_mod.SIMPLICITER:
        return problems_mod.SIMPLICITER
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"problem id must be 1..12 or {problems_mod.SIMPLICITER!r}, got {text!r}"
        ) from None


# -- subcommand handlers --------------------------------------------------------
# Each returns (result: dict for the JSON envelope, header, rows, exit_code).
# Counts inside `result` are decimal strings; `rows` carry ints so the CSV
# writer leaves them unquoted.  `caput enumerate` and `genealogy coords`
# return `rows` as a generator, so --format json never builds a table row.

def _cmd_perm(args) -> tuple[dict, list[str], list[list], int]:
    p = parse_permutation(args.p)
    if args.perm_op == "compose":
        q = parse_permutation(args.q)
        out = compose(p, q)
        result = {
            "operation": "compose",
            "p": _perm_payload(p),
            "q": _perm_payload(q),
            "result": _perm_payload(out),
        }
    elif args.perm_op == "inverse":
        out = inverse(p)
        result = {
            "operation": "inverse",
            "p": _perm_payload(p),
            "result": _perm_payload(out),
        }
    else:  # cycles
        out = p
        result = {
            "operation": "cycles",
            "result": _perm_payload(p),
            "fixed_points": sorted(fixed_points(p)),
        }
    header = ["one_line", "cycles", "cycle_type"]
    payload = result["result"]
    rows = [[payload["one_line"], payload["cycles"], payload["cycle_type"]]]
    return result, header, rows, 0


def _cmd_partitions(args) -> tuple[dict, list[str], list[list], int]:
    n = args.n
    if args.partitions_op == "count":
        count = partitions_mod.count_partitions(n)
        result = {"n": n, "count": str(count)}
        return result, ["n", "count"], [[n, count]], 0
    if args.partitions_op == "two-part":
        count = partitions_mod.two_part_count(n)
        result = {"n": n, "two_part_count": str(count)}
        return result, ["n", "two_part_count"], [[n, count]], 0
    items = partitions_mod.enumerate_partitions(n)
    result = {
        "n": n,
        "count": str(len(items)),
        "partitions": [str(p) for p in items],
    }
    rows = [[str(p)] for p in items]
    return result, ["partition"], rows, 0


def _cmd_classes(args) -> tuple[dict, list[str], list[list], int]:
    n = args.n
    entries = []
    rows = []
    total = 0
    for t in partitions_mod.cycle_types_of(n):
        order = partitions_mod.class_order(t).order
        total += order
        partition = str(partitions_mod.cycle_type_to_partition(t))
        entries.append(
            {"cycle_type": str(t), "partition": partition, "order": str(order)}
        )
        rows.append([str(t), partition, order])
    result = {
        "n": n,
        "class_count": str(len(entries)),
        "order_total": str(total),
        "classes": entries,
    }
    return result, ["cycle_type", "partition", "order"], rows, 0


def _caput_spec_from_args(args) -> CaputSpec:
    mode = HeadMode(args.mode)
    return CaputSpec.parse_head(args.n, args.head, mode)


def _caput_echo(spec: CaputSpec) -> dict:
    return {
        "degree": spec.degree,
        "head": {str(pos): sym for pos, sym in spec.head_contents().items()},
        "mode": spec.mode.value,
    }


def _cmd_caput(args) -> tuple[dict, list[str], Iterable[list], int]:
    spec = _caput_spec_from_args(args)
    if args.caput_op == "count":
        count = count_caput(spec)
        result = {"spec": _caput_echo(spec), "count": str(count)}
        rows = [[spec.degree, ",".join(map(str, sorted(spec.head))), spec.mode.value, count]]
        return result, ["degree", "head", "mode", "count"], rows, 0
    perms = list(enumerate_caput(spec))
    result = {
        "spec": _caput_echo(spec),
        "count": str(len(perms)),
        "permutations": [format_one_line(p) for p in perms],
    }
    rows = ([format_one_line(p), format_cycles(p), str(cycle_type(p))] for p in perms)
    return result, ["one_line", "cycles", "cycle_type"], rows, 0


def _cmd_problems(args) -> tuple[dict, list[str], list[list], int]:
    if args.problems_op == "solve":
        outcome = problems_mod.solve(
            args.id, args.n, args.k, with_witnesses=args.witnesses
        )
        result = {
            "problem_id": outcome.problem_id,
            "title": problems_mod.PROBLEM_TITLES[outcome.problem_id],
            "inputs": outcome.inputs,
            "status": outcome.status,
            "count": None if outcome.count is None else str(outcome.count),
        }
        if outcome.witnesses is not None:
            result["witnesses"] = [
                sorted(w) if isinstance(w, frozenset) else list(w)
                for w in outcome.witnesses
            ]
            result["truncated"] = outcome.truncated
        rows = [
            [
                str(outcome.problem_id),
                outcome.status,
                "" if outcome.count is None else outcome.count,
            ]
        ]
        return result, ["problem_id", "status", "count"], rows, 0
    reduction = problems_mod.reduce_to_caput(args.id, args.n, args.k)
    result = {
        "problem_id": reduction.problem_id,
        "inputs": reduction.inputs,
        "status": reduction.status,
        "direct_count": None
        if reduction.direct_count is None
        else str(reduction.direct_count),
        "caput_count": None
        if reduction.caput_count is None
        else str(reduction.caput_count),
        "head": reduction.head_description,
        "agrees": reduction.agrees,
        "note": reduction.note,
    }
    rows = [
        [
            str(reduction.problem_id),
            reduction.status,
            "" if reduction.direct_count is None else reduction.direct_count,
            "" if reduction.caput_count is None else reduction.caput_count,
            "" if reduction.agrees is None else str(reduction.agrees).lower(),
        ]
    ]
    return result, ["problem_id", "status", "direct_count", "caput_count", "agrees"], rows, 0


def _cmd_genealogy(args) -> tuple[dict, list[str], Iterable[list], int]:
    if args.genealogy_op == "personae":
        model = genealogy_mod.GradusModel(args.gradus)
        count = genealogy_mod.personae_count(args.gradus)
        result = {
            "gradus": model.gradus,
            "cognationes": model.cognationes,
            "count": str(count),
        }
        return result, ["gradus", "cognationes", "count"], [
            [model.gradus, model.cognationes, count]
        ], 0
    if args.genealogy_op == "coords":
        coords = genealogy_mod.coordinates(args.gradus)
        result = {
            "gradus": args.gradus,
            "layout": genealogy_mod.LAYOUT_VERSION,
            "count": str(len(coords)),
            "coordinates": [[c.antecedens, c.sequens] for c in coords],
        }
        rows = ([c.antecedens, c.sequens] for c in coords)
        return result, ["antecedens", "sequens"], rows, 0
    count = genealogy_mod.discerptiones_two(args.n)
    result = {"cognationes": args.n, "two_part_count": str(count)}
    return result, ["cognationes", "two_part_count"], [[args.n, count]], 0


def _cmd_verify(args) -> tuple[dict, list[str], list[list], int]:
    reports = oracle_mod.verify_all(args.max_n)
    all_passed = all(r.passed for r in reports)
    result = {
        "max_n": args.max_n,
        "all_passed": all_passed,
        "reports": [
            {
                "claim": r.claim,
                "range": r.n_range,
                "verdict": r.verdict,
                "counterexample": r.counterexample,
            }
            for r in reports
        ],
    }
    rows = [[r.claim, r.n_range, r.verdict, r.counterexample or ""] for r in reports]
    return result, ["claim", "range", "verdict", "counterexample"], rows, 0 if all_passed else 1


# -- output rendering ----------------------------------------------------------
# json, csv and io are imported by the renderer that needs them: a request
# renders one format, and each fresh interpreter pays only for its own.

def render_json(command: str, result: dict) -> str:
    import json

    envelope = {"command": command, "format_version": FORMAT_VERSION, "result": result}
    return json.dumps(envelope, indent=2, ensure_ascii=False)


def render_csv(header: list[str], rows: Iterable[list]) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def render_human(header: list[str], rows: Iterable[list]) -> str:
    table = [header] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


# -- parser ---------------------------------------------------------------------
# Each fill function adds a command's sub-commands and arguments to its
# parser; ``common`` carries --format, so it can trail the invocation.

def _fill_perm(perm: argparse.ArgumentParser, common: argparse.ArgumentParser) -> None:
    perm_sub = perm.add_subparsers(dest="perm_op", required=True)
    perm_compose = perm_sub.add_parser(
        "compose", parents=[common], help="right-to-left product p∘q"
    )
    perm_compose.add_argument("p", help="one-line [2,3,1] or cycle (123) form")
    perm_compose.add_argument("q", help="applied first")
    perm_compose.set_defaults(handler=_cmd_perm)
    perm_inverse = perm_sub.add_parser("inverse", parents=[common])
    perm_inverse.add_argument("p")
    perm_inverse.set_defaults(handler=_cmd_perm)
    perm_cycles = perm_sub.add_parser(
        "cycles", parents=[common], help="cycle decomposition and type"
    )
    perm_cycles.add_argument("p")
    perm_cycles.set_defaults(handler=_cmd_perm)


def _fill_partitions(parts: argparse.ArgumentParser, common: argparse.ArgumentParser) -> None:
    parts_sub = parts.add_subparsers(dest="partitions_op", required=True)
    for name, doc in (
        ("count", "exact p(n)"),
        ("list", "all partitions, largest first part first"),
        ("two-part", "partitions into exactly two parts"),
    ):
        sp = parts_sub.add_parser(name, parents=[common], help=doc)
        sp.add_argument("--n", type=int, required=True)
        sp.set_defaults(handler=_cmd_partitions)


def _fill_classes(classes: argparse.ArgumentParser, common: argparse.ArgumentParser) -> None:
    classes.add_argument("--n", type=int, required=True)
    classes.set_defaults(handler=_cmd_classes)


def _fill_caput(cap: argparse.ArgumentParser, common: argparse.ArgumentParser) -> None:
    cap_sub = cap.add_subparsers(dest="caput_op", required=True)
    for name, doc in (
        ("count", "closed-form count"),
        ("enumerate", "lexicographic listing"),
    ):
        sp = cap_sub.add_parser(name, parents=[common], help=doc)
        sp.add_argument("--n", type=int, required=True, help="degree")
        sp.add_argument(
            "--head",
            default="",
            help="comma list like 1=a,3=c; empty for no constraint",
        )
        sp.add_argument(
            "--mode",
            choices=[m.value for m in HeadMode],
            default=HeadMode.LOOSE.value,
        )
        sp.set_defaults(handler=_cmd_caput)


def _fill_problems(probs: argparse.ArgumentParser, common: argparse.ArgumentParser) -> None:
    probs_sub = probs.add_subparsers(dest="problems_op", required=True)
    solve = probs_sub.add_parser("solve", parents=[common])
    solve.add_argument("--id", type=_parse_problem_id, required=True)
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--k", type=int, default=None)
    solve.add_argument(
        "--witnesses", action="store_true", help="include an explicit listing"
    )
    solve.set_defaults(handler=_cmd_problems)
    reduce_p = probs_sub.add_parser(
        "reduce", parents=[common], help="recover the count through the head machinery"
    )
    reduce_p.add_argument("--id", type=_parse_problem_id, required=True)
    reduce_p.add_argument("--n", type=int, required=True)
    reduce_p.add_argument("--k", type=int, default=None)
    reduce_p.set_defaults(handler=_cmd_problems)


def _fill_genealogy(gen: argparse.ArgumentParser, common: argparse.ArgumentParser) -> None:
    gen_sub = gen.add_subparsers(dest="genealogy_op", required=True)
    personae = gen_sub.add_parser(
        "personae", parents=[common], help="2^n * (n+1) persons at degree n"
    )
    personae.add_argument("--gradus", type=int, required=True)
    personae.set_defaults(handler=_cmd_genealogy)
    coords = gen_sub.add_parser(
        "coords", parents=[common], help="every person's (antecedens, sequens)"
    )
    coords.add_argument("--gradus", type=int, required=True)
    coords.set_defaults(handler=_cmd_genealogy)
    disc = gen_sub.add_parser(
        "discerptiones",
        parents=[common],
        help="two-part partitions of the rank count",
    )
    disc.add_argument("--n", type=int, required=True)
    disc.set_defaults(handler=_cmd_genealogy)


def _fill_verify(verify: argparse.ArgumentParser, common: argparse.ArgumentParser) -> None:
    verify.add_argument("--max-n", type=int, default=6, dest="max_n")
    verify.set_defaults(handler=_cmd_verify)


# (name, help, whether the command itself takes --format, fill function)
_COMMANDS = (
    ("perm", "compose, invert or decompose permutations", False, _fill_perm),
    ("partitions", "integer partition counting and listing", False, _fill_partitions),
    ("classes", "conjugacy classes of S_n with their exact orders", True, _fill_classes),
    ("caput", "fixed-head variation counts and listings", False, _fill_caput),
    ("problems", "the numbered classical problems", False, _fill_problems),
    ("genealogy", "consanguinity-tree counts and coordinates", False, _fill_genealogy),
    ("verify", "run every closed form against the brute-force oracle", True, _fill_verify),
)


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; given argv, only the command argv[0] names is filled in.

    Every command's parser is made, so the top-level help and the error for
    an unknown command list them all; only the one parsed needs its
    sub-commands and arguments.  Without argv every command is filled in.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=FORMATS,
        default=_default_format(),
        help=f"output format (default from ${FORMAT_ENV_VAR}, else human)",
    )

    parser = argparse.ArgumentParser(
        prog="combinatoria",
        description="Exact permutation, partition, head-variation and "
        "consanguinity-tree combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc, takes_format, fill in _COMMANDS:
        command = sub.add_parser(name, parents=[common] if takes_format else [], help=doc)
        if argv is None or name in argv[:1]:
            fill(command, common)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    command = " ".join(["combinatoria"] + argv)
    # Counts are exact at any size, so their decimal strings may pass the
    # interpreter's int-to-str digit limit.  Lift it only once argv is parsed;
    # interpreters without the setter have no limit.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        result, header, rows, exit_code = args.handler(args)
    except CombinatoriaError as exc:
        print(f"combinatoria: error: {exc}", file=sys.stderr)
        return 2
    else:
        if args.format == "json":
            print(render_json(command, result))
        elif args.format == "csv":
            print(render_csv(header, rows))
        else:
            print(render_human(header, rows))
        return exit_code
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    raise SystemExit(main())
