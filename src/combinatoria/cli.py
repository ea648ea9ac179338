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

Every command and leaf is one row of ``_COMMANDS``.  To add a leaf, write its
``_cmd_*`` handler, which returns the JSON result or (header, rows), and add
its row: its name, help, arguments and handler.  The parser, ``--format``
and the rendering follow from the row.
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
    classes = (
        # the cycle lengths are the partition's parts, already in order
        (str(t), ",".join(map(str, t.cycle_lengths())), partitions_mod.class_order(t).order)
        for t in partitions_mod.cycle_types_of(args.n)
    )
    if args.format != "json":
        return ["cycle_type", "partition", "order"], classes
    # the totals need every class before the first is written
    classes = list(classes)
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
    perms = enumerate_caput(spec)
    if args.format != "json":
        return _PERM_HEADER, map(_perm_row, perms)
    lines = list(map(format_one_line, perms))
    return {"spec": _caput_echo(spec), "count": str(len(lines)), "permutations": lines}


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
    count = genealogy_mod.personae_count(args.gradus)
    header = ["gradus", "cognationes", "count"]
    return _one_row(args, header, [args.gradus, args.gradus + 1, count])


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
# One row per command: its help, then its leaves.  A leaf is (name, help,
# arguments, handler); a leaf named None is the command itself, and a leaf
# without help is listed by name only.  An argument is (flag, argparse
# keywords).  build_parser gives every leaf --format first, so to add a leaf,
# write its handler above and add one row here.

_N = [("--n", {"type": int, "required": True})]
_GRADUS = [("--gradus", {"type": int, "required": True})]
_CAPUT = [
    ("--n", {"type": int, "required": True, "help": "degree"}),
    ("--head", {"default": "", "help": "comma list like 1=a,3=c; empty for no constraint"}),
    ("--mode", {"choices": [m.value for m in HeadMode], "default": HeadMode.LOOSE.value}),
]
_PROBLEM = [
    ("--id", {"type": _parse_problem_id, "required": True}),
    ("--n", {"type": int, "required": True}),
    ("--k", {"type": int, "default": None}),
]
_P = [("p", {})]

_COMMANDS = {
    "perm": ("compose, invert or decompose permutations", [
        ("compose", "right-to-left product p∘q", [
            ("p", {"help": "one-line [2,3,1] or cycle (123) form"}),
            ("q", {"help": "applied first"}),
        ], _cmd_perm_compose),
        ("inverse", None, _P, _cmd_perm_inverse),
        ("cycles", "cycle decomposition and type", _P, _cmd_perm_cycles),
    ]),
    "partitions": ("integer partition counting and listing", [
        ("count", "exact p(n)", _N, _cmd_partitions_count),
        ("list", "all partitions, largest first part first", _N, _cmd_partitions_list),
        ("two-part", "partitions into exactly two parts", _N, _cmd_partitions_two_part),
    ]),
    "classes": ("conjugacy classes of S_n with their exact orders", [
        (None, None, _N, _cmd_classes),
    ]),
    "caput": ("fixed-head variation counts and listings", [
        ("count", "closed-form count", _CAPUT, _cmd_caput_count),
        ("enumerate", "lexicographic listing", _CAPUT, _cmd_caput_enumerate),
    ]),
    "problems": ("the numbered classical problems", [
        ("solve", None, [
            *_PROBLEM,
            ("--witnesses", {"action": "store_true", "help": "include an explicit listing"}),
        ], _cmd_problems_solve),
        ("reduce", "recover the count through the head machinery", _PROBLEM,
         _cmd_problems_reduce),
    ]),
    "genealogy": ("consanguinity-tree counts and coordinates", [
        ("personae", "2^n * (n+1) persons at degree n", _GRADUS, _cmd_genealogy_personae),
        ("coords", "every person's (antecedens, sequens)", _GRADUS, _cmd_genealogy_coords),
        ("discerptiones", "two-part partitions of the rank count", _N,
         _cmd_genealogy_discerptiones),
    ]),
    "verify": ("run every closed form against the brute-force oracle", [
        (None, None, [("--max-n", {"type": int, "default": 6, "dest": "max_n"})], _cmd_verify),
    ]),
}


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The CLI's parser, with only the command argv[0] names filled in.

    Every command's parser is made, so the top-level help and the error for
    an unknown command list them all; only the one parsed needs its leaves.
    """
    format_keywords = {
        "choices": FORMATS,
        "default": _default_format(),
        "help": f"output format (default from ${FORMAT_ENV_VAR}, else human)",
    }
    parser = argparse.ArgumentParser(
        prog="combinatoria",
        description="Exact permutation, partition, head-variation and "
        "consanguinity-tree combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (doc, leaves) in _COMMANDS.items():
        command = sub.add_parser(name, help=doc)
        if name not in argv[:1]:
            continue
        if leaves[0][0] is not None:
            ops = command.add_subparsers(dest=f"{name}_op", required=True)
        for leaf, leaf_doc, arguments, handler in leaves:
            if leaf is None:
                target = command
            else:
                target = ops.add_parser(leaf, **({"help": leaf_doc} if leaf_doc else {}))
            target.add_argument("--format", **format_keywords)
            for flag, keywords in arguments:
                target.add_argument(flag, **keywords)
            target.set_defaults(handler=handler)
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
