"""Command-line surface over the whole library.

Output contract, shared by every subcommand, each of whose leaves builds
only the output of the format asked for:

- ``--format human`` (default): an aligned table on stdout.
- ``--format json``: one envelope object ``{"command", "format_version",
  "result"}``.  Every count is a decimal string, never a JSON number, so
  arbitrarily large values survive any JSON parser.
- ``--format csv``: a header row plus data rows, written to stdout row by
  row; non-numeric fields quoted.

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


_PERM_HEADER = ["one_line", "cycles", "cycle_type"]


def _perm_row(p: Permutation) -> list[str]:
    return [format_one_line(p), format_cycles(p), str(cycle_type(p))]


def _perm_payload(p: Permutation) -> dict:
    return {"degree": p.degree, **dict(zip(_PERM_HEADER, _perm_row(p)))}


def _parse_problem_id(text: str):
    if text.strip().lower() == problems_mod.SIMPLICITER:
        return problems_mod.SIMPLICITER
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"problem id must be 1..12 or {problems_mod.SIMPLICITER!r}, got {text!r}"
        ) from None


# -- leaf handlers ---------------------------------------------------------------
# Each leaf of the parser has one handler, which builds only what --format asks
# for: the JSON result for json, with every count a decimal string, or else
# (header, rows) for the table, with counts left as ints so the CSV writer
# leaves them unquoted.  Only verify has a say in the exit code: it records on
# args whether verification failed, and main turns that into exit 1.
_Answer = dict | tuple[list[str], Iterable[Sequence]]


def _one_row(args, header: list[str], row: list) -> _Answer:
    """A one-row answer: the table, or for json the row as an object whose
    count fields are written in decimal."""
    if args.format != "json":
        return header, [row]
    return {name: str(v) if name.endswith("count") else v for name, v in zip(header, row)}


def _decimal(count: int | None) -> str | None:
    return None if count is None else str(count)


def _cell(count: int | None) -> int | str:
    return "" if count is None else count


def _cmd_perm_compose(args) -> _Answer:
    p, q = parse_permutation(args.p), parse_permutation(args.q)
    out = compose(p, q)
    if args.format != "json":
        return _PERM_HEADER, [_perm_row(out)]
    return {
        "operation": "compose",
        "p": _perm_payload(p),
        "q": _perm_payload(q),
        "result": _perm_payload(out),
    }


def _cmd_perm_inverse(args) -> _Answer:
    p = parse_permutation(args.p)
    out = inverse(p)
    if args.format != "json":
        return _PERM_HEADER, [_perm_row(out)]
    return {"operation": "inverse", "p": _perm_payload(p), "result": _perm_payload(out)}


def _cmd_perm_cycles(args) -> _Answer:
    p = parse_permutation(args.p)
    if args.format != "json":
        return _PERM_HEADER, [_perm_row(p)]
    return {
        "operation": "cycles",
        "result": _perm_payload(p),
        "fixed_points": sorted(fixed_points(p)),
    }


def _cmd_partitions_count(args) -> _Answer:
    return _one_row(args, ["n", "count"], [args.n, partitions_mod.count_partitions(args.n)])


def _cmd_partitions_two_part(args) -> _Answer:
    count = partitions_mod.two_part_count(args.n)
    return _one_row(args, ["n", "two_part_count"], [args.n, count])


def _cmd_partitions_list(args) -> _Answer:
    items = partitions_mod.enumerate_partitions(args.n)
    if args.format != "json":
        return ["partition"], ([str(p)] for p in items)
    return {"n": args.n, "count": str(len(items)), "partitions": [str(p) for p in items]}


def _cmd_classes(args) -> _Answer:
    classes = []
    for t in partitions_mod.cycle_types_of(args.n):
        partition = str(partitions_mod.cycle_type_to_partition(t))
        classes.append((str(t), partition, partitions_mod.class_order(t).order))
    if args.format != "json":
        return ["cycle_type", "partition", "order"], classes
    return {
        "n": args.n,
        "class_count": str(len(classes)),
        "order_total": str(sum(order for _, _, order in classes)),
        "classes": [
            {"cycle_type": t, "partition": partition, "order": str(order)}
            for t, partition, order in classes
        ],
    }


def _caput_spec_from_args(args) -> CaputSpec:
    mode = HeadMode(args.mode)
    return CaputSpec.parse_head(args.n, args.head, mode)


def _caput_echo(spec: CaputSpec) -> dict:
    return {
        "degree": spec.degree,
        "head": {str(pos): sym for pos, sym in spec.head_contents().items()},
        "mode": spec.mode.value,
    }


def _cmd_caput_count(args) -> _Answer:
    spec = _caput_spec_from_args(args)
    count = count_caput(spec)
    if args.format != "json":
        head = ",".join(map(str, sorted(spec.head)))
        return ["degree", "head", "mode", "count"], [[spec.degree, head, spec.mode.value, count]]
    return {"spec": _caput_echo(spec), "count": str(count)}


def _cmd_caput_enumerate(args) -> _Answer:
    spec = _caput_spec_from_args(args)
    perms = list(enumerate_caput(spec))
    if args.format != "json":
        return _PERM_HEADER, map(_perm_row, perms)
    return {
        "spec": _caput_echo(spec),
        "count": str(len(perms)),
        "permutations": [format_one_line(p) for p in perms],
    }


def _cmd_problems_solve(args) -> _Answer:
    outcome = problems_mod.solve(args.id, args.n, args.k, with_witnesses=args.witnesses)
    if args.format != "json":
        row = [str(outcome.problem_id), outcome.status, _cell(outcome.count)]
        return ["problem_id", "status", "count"], [row]
    result = {
        "problem_id": outcome.problem_id,
        "title": problems_mod.PROBLEM_TITLES[outcome.problem_id],
        "inputs": outcome.inputs,
        "status": outcome.status,
        "count": _decimal(outcome.count),
    }
    if outcome.witnesses is not None:
        result["witnesses"] = [
            sorted(w) if isinstance(w, frozenset) else list(w) for w in outcome.witnesses
        ]
        result["truncated"] = outcome.truncated
    return result


def _cmd_problems_reduce(args) -> _Answer:
    reduction = problems_mod.reduce_to_caput(args.id, args.n, args.k)
    if args.format != "json":
        row = [
            str(reduction.problem_id),
            reduction.status,
            _cell(reduction.direct_count),
            _cell(reduction.caput_count),
            "" if reduction.agrees is None else str(reduction.agrees).lower(),
        ]
        return ["problem_id", "status", "direct_count", "caput_count", "agrees"], [row]
    return {
        "problem_id": reduction.problem_id,
        "inputs": reduction.inputs,
        "status": reduction.status,
        "direct_count": _decimal(reduction.direct_count),
        "caput_count": _decimal(reduction.caput_count),
        "head": reduction.head_description,
        "agrees": reduction.agrees,
        "note": reduction.note,
    }


def _cmd_genealogy_personae(args) -> _Answer:
    model = genealogy_mod.GradusModel(args.gradus)
    count = genealogy_mod.personae_count(args.gradus)
    header = ["gradus", "cognationes", "count"]
    return _one_row(args, header, [model.gradus, model.cognationes, count])


def _cmd_genealogy_coords(args) -> _Answer:
    coords = genealogy_mod.coordinates(args.gradus)
    pairs = ([c.antecedens, c.sequens] for c in coords)
    if args.format != "json":
        return ["antecedens", "sequens"], pairs
    return {
        "gradus": args.gradus,
        "layout": genealogy_mod.LAYOUT_VERSION,
        "count": str(len(coords)),
        "coordinates": list(pairs),
    }


def _cmd_genealogy_discerptiones(args) -> _Answer:
    count = genealogy_mod.discerptiones_two(args.n)
    return _one_row(args, ["cognationes", "two_part_count"], [args.n, count])


def _cmd_verify(args) -> _Answer:
    reports = oracle_mod.verify_all(args.max_n)
    all_passed = all(r.passed for r in reports)
    args.verification_failed = not all_passed
    header = ["claim", "range", "verdict", "counterexample"]
    if args.format != "json":
        return header, [[r.claim, r.n_range, r.verdict, r.counterexample or ""] for r in reports]
    entries = [
        dict(zip(header, (r.claim, r.n_range, r.verdict, r.counterexample))) for r in reports
    ]
    return {"max_n": args.max_n, "all_passed": all_passed, "reports": entries}


# -- output rendering ----------------------------------------------------------
# json and csv are imported by the renderer that needs them: a request
# renders one format, and each fresh interpreter pays only for its own.

def render_json(command: str, result: dict) -> str:
    import json

    envelope = {"command": command, "format_version": FORMAT_VERSION, "result": result}
    return json.dumps(envelope, indent=2, ensure_ascii=False)


def render_csv(header: list[str], rows: Iterable[list]) -> None:
    """Write the table to stdout as CSV, one row at a time."""
    import csv

    writer = csv.writer(sys.stdout, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


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
    perm_compose.set_defaults(handler=_cmd_perm_compose)
    perm_inverse = perm_sub.add_parser("inverse", parents=[common])
    perm_inverse.add_argument("p")
    perm_inverse.set_defaults(handler=_cmd_perm_inverse)
    perm_cycles = perm_sub.add_parser(
        "cycles", parents=[common], help="cycle decomposition and type"
    )
    perm_cycles.add_argument("p")
    perm_cycles.set_defaults(handler=_cmd_perm_cycles)


def _fill_partitions(parts: argparse.ArgumentParser, common: argparse.ArgumentParser) -> None:
    parts_sub = parts.add_subparsers(dest="partitions_op", required=True)
    for name, doc, handler in (
        ("count", "exact p(n)", _cmd_partitions_count),
        ("list", "all partitions, largest first part first", _cmd_partitions_list),
        ("two-part", "partitions into exactly two parts", _cmd_partitions_two_part),
    ):
        sp = parts_sub.add_parser(name, parents=[common], help=doc)
        sp.add_argument("--n", type=int, required=True)
        sp.set_defaults(handler=handler)


def _fill_classes(classes: argparse.ArgumentParser, common: argparse.ArgumentParser) -> None:
    classes.add_argument("--n", type=int, required=True)
    classes.set_defaults(handler=_cmd_classes)


def _fill_caput(cap: argparse.ArgumentParser, common: argparse.ArgumentParser) -> None:
    cap_sub = cap.add_subparsers(dest="caput_op", required=True)
    for name, doc, handler in (
        ("count", "closed-form count", _cmd_caput_count),
        ("enumerate", "lexicographic listing", _cmd_caput_enumerate),
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
        sp.set_defaults(handler=handler)


def _fill_problems(probs: argparse.ArgumentParser, common: argparse.ArgumentParser) -> None:
    probs_sub = probs.add_subparsers(dest="problems_op", required=True)
    solve = probs_sub.add_parser("solve", parents=[common])
    solve.add_argument("--id", type=_parse_problem_id, required=True)
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--k", type=int, default=None)
    solve.add_argument(
        "--witnesses", action="store_true", help="include an explicit listing"
    )
    solve.set_defaults(handler=_cmd_problems_solve)
    reduce_p = probs_sub.add_parser(
        "reduce", parents=[common], help="recover the count through the head machinery"
    )
    reduce_p.add_argument("--id", type=_parse_problem_id, required=True)
    reduce_p.add_argument("--n", type=int, required=True)
    reduce_p.add_argument("--k", type=int, default=None)
    reduce_p.set_defaults(handler=_cmd_problems_reduce)


def _fill_genealogy(gen: argparse.ArgumentParser, common: argparse.ArgumentParser) -> None:
    gen_sub = gen.add_subparsers(dest="genealogy_op", required=True)
    for name, doc, size, handler in (
        ("personae", "2^n * (n+1) persons at degree n", "--gradus", _cmd_genealogy_personae),
        ("coords", "every person's (antecedens, sequens)", "--gradus", _cmd_genealogy_coords),
        ("discerptiones", "two-part partitions of the rank count", "--n",
         _cmd_genealogy_discerptiones),
    ):
        sp = gen_sub.add_parser(name, parents=[common], help=doc)
        sp.add_argument(size, type=int, required=True)
        sp.set_defaults(handler=handler)


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
        output = args.handler(args)
    except CombinatoriaError as exc:
        print(f"combinatoria: error: {exc}", file=sys.stderr)
        return 2
    else:
        if args.format == "json":
            print(render_json(command, output))
        elif args.format == "csv":
            render_csv(*output)
        else:
            print(render_human(*output))
        return 1 if getattr(args, "verification_failed", False) else 0
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    raise SystemExit(main())
