"""The whole CLI surface, pinned by digest.

Every leaf in every format over a small grid of sizes, heads, modes and
problem ids, with the refusals past each ceiling, the usage errors and every
help text.  Each group of requests is reduced to one sha256 over the argv,
exit code, stdout and stderr of each request, and compared with the digest
captured from the CLI when each command still built both its JSON result and
its table rows.  A mismatch names the group; comparing `_answer` of each of
its requests on two checkouts finds the request.  Run as a script,

    PYTHONPATH=src python tests/test_cli_corpus.py "caput count" verify

writes `_answer` of every request of the named groups (every group if none is
named) as JSON lines, the lines `group_digest` hashes, so the outputs of two
checkouts compare with `diff`.
"""
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from collections.abc import Iterator

import pytest

from combinatoria.cli import _COMMANDS, main

FORMATS = ("human", "json", "csv")

PERMS = ("[1]", "[2,1]", "(12)", "[2,3,1]", "(123)", "(13)(2)", "[1,4,3,6,5,2]", "[3,1,2,5,4]")
BAD_PERMS = ("[1,1,2]", "(1,x)", "[0]", "", "(1 99999999999)")
HEADS = ("", "1=a", "2=b", "1=a,3=c", "1=b", "1=a,1=a", "9=i")
MODES = ("loose", "exact", "setwise")
PROBLEM_IDS = (*map(str, range(0, 14)), "simpliciter", "x")


def _formatted(*requests):
    return [[*argv, "--format", fmt] for argv in requests for fmt in FORMATS]


def _sizes(*argv_and_values):
    *argv, values = argv_and_values
    return _formatted(*([*argv, str(v)] for v in values))


def _problems(op: str) -> list[list[str]]:
    requests = []
    for pid, n, k in itertools.product(PROBLEM_IDS, ("-1", "0", "4"), (None, "2", "7")):
        argv = ["problems", op, "--id", pid, "--n", n] + ([] if k is None else ["--k", k])
        requests.append(argv)
        if op == "solve" and n == "4":
            requests.append(argv + ["--witnesses"])
    return _formatted(*requests)


def corpus() -> dict[str, list[list[str]]]:
    """Requests by group; sizes stay small, except refusals past a ceiling."""
    perms = PERMS + BAD_PERMS
    return {
        "perm compose": _formatted(*(["perm", "compose", p, q] for p in perms for q in PERMS)),
        "perm inverse": _formatted(*(["perm", "inverse", p] for p in perms)),
        "perm cycles": _formatted(*(["perm", "cycles", p] for p in perms)),
        "partitions count": _sizes("partitions", "count", "--n", (-1, 0, 1, 6, 60, 100, 100_001)),
        "partitions list": _sizes("partitions", "list", "--n", (-1, 0, 1, 2, 5, 8, 121)),
        "partitions two-part": _sizes("partitions", "two-part", "--n", (-1, 0, 1, 7, 10**6)),
        "classes": _sizes("classes", "--n", (-1, 0, 1, 2, 4, 7, 121)),
        # 77 classes, the first with two-digit cycle lengths (α₁₀ to α₁₂)
        "classes wide": _sizes("classes", "--n", (12,)),
        "caput count": _formatted(
            *(
                ["caput", "count", "--n", str(n), "--head", head, "--mode", mode]
                for n, head, mode in itertools.product((0, 1, 3, 4, 40), HEADS, MODES)
            ),
            ["caput", "count", "--n", "50001"],
            ["caput", "count", "--n", "50001", "--mode", "exact"],
        ),
        "caput enumerate": _formatted(
            *(
                ["caput", "enumerate", "--n", str(n), "--head", head, "--mode", mode]
                for n, head, mode in itertools.product((0, 1, 3, 5), HEADS, MODES)
            ),
            ["caput", "enumerate", "--n", "13"],
        ),
        "problems solve": _problems("solve"),
        "problems reduce": _problems("reduce"),
        "genealogy personae": _sizes(
            "genealogy", "personae", "--gradus", (-1, 0, 1, 5, 200, 1_000_001)
        ),
        "genealogy coords": _sizes("genealogy", "coords", "--gradus", (-1, 0, 1, 3, 21)),
        "genealogy discerptiones": _sizes(
            "genealogy", "discerptiones", "--n", (-1, 0, 1, 7, 100)
        ),
        "verify": _sizes("verify", "--max-n", (-1, 0, 1, 2, 3, 4, 9)),
        "usage": [
            [],
            ["frobnicate"],
            ["perm"],
            ["perm", "compose", "[1]"],
            ["partitions", "count"],
            ["partitions", "count", "--n", "x"],
            ["classes", "--n", "4", "--format", "xml"],
            ["caput", "count", "--n", "4", "--mode", "tight"],
            ["caput", "enumerate"],
            ["problems", "solve", "--n", "4"],
            ["problems", "reduce", "--id", "1"],
            ["genealogy", "personae"],
            ["genealogy", "coords", "--gradus", "1.5"],
            ["verify", "--max-n"],
            ["verify", "--bogus"],
            ["classes", "--n", "3"],
            ["caput", "count", "--n", "4", "--head", "1=a"],
        ],
        "help": [
            [*command, "--help"]
            for command in (
                [],
                ["perm"], ["perm", "compose"], ["perm", "inverse"], ["perm", "cycles"],
                ["partitions"], ["partitions", "count"], ["partitions", "list"],
                ["partitions", "two-part"],
                ["classes"],
                ["caput"], ["caput", "count"], ["caput", "enumerate"],
                ["problems"], ["problems", "solve"], ["problems", "reduce"],
                ["genealogy"], ["genealogy", "personae"], ["genealogy", "coords"],
                ["genealogy", "discerptiones"],
                ["verify"],
            )
        ],
    }


def _answer(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [argv, code, out.getvalue(), err.getvalue()]


def answer_lines(requests: list[list[str]]) -> Iterator[str]:
    for argv in requests:
        yield json.dumps(_answer(argv), ensure_ascii=False) + "\n"


def group_digest(requests: list[list[str]]) -> str:
    digest = hashlib.sha256()
    for line in answer_lines(requests):
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def corpus_digests() -> dict[str, str]:
    """Every group's digest; needs COLUMNS=80."""
    return {group: group_digest(requests) for group, requests in corpus().items()}


DIGESTS = {
    "perm compose": "972547f0bd025e1451ad2d6762352da60119ac64d74261ea76cbc98ef0cee75f",
    "perm inverse": "a76b33df71d3bd8640aed0af374551289367c5c2b12b2d7d4eedde612256e4e4",
    "perm cycles": "a9f8eca449d5957ed3936f21a0d3f9a590e5642c526550ec69251b9c659e4e66",
    "partitions count": "38de03a4d87da54fee8c9e8048a67695ed765872fa3ca301b32387d4cc3a3053",
    "partitions list": "27d0166a11b801e1ff120acd2c8a8f6c20766aaf6ad2572cc28f10a6b610f92b",
    "partitions two-part": "c57c4a47c05453fec2256d69206f31c1972b988ef736838152fcdbe14ee38b85",
    "classes": "787e7e93c8f41a6b76d8559df43013acef10e0ab76c09cbd3e8b88d252fae387",
    "classes wide": "3bd6982833811a00146e72db34965dd75a5a271b9b2acaf5fe741e7270d1da5e",
    "caput count": "60d3ea8dda81d5d9f95c4c57cb289c61c57b9c7ce1dcec76e2f7ca71e1fbfc2c",
    "caput enumerate": "1bfa267df215c9265b742d7b6a4cead77849549e1ddd14a1265ea16b1ca02a60",
    "problems solve": "0ad111d9f975c39029572a169539d9459d9d66c8c431374367f3a3d3e659c58e",
    "problems reduce": "41d892e9a81aa582cc675d697ca9fb96dae043f867c57bb3871952988efa3879",
    "genealogy personae": "a9237a603f984956bced9c1e47abd2f7628c876f95296681d825189843690f38",
    "genealogy coords": "210ca1a418504e46ef2bfa4dd0551dbfa34a94849e69297142e9be4d7d97e021",
    "genealogy discerptiones": "25702fc6ecc4ac30bf6839edaf9a74f2121ea59c5358bdc57aa06c9bcfb631d8",
    "verify": "1eb9843f6808aefa16106c93edc3c7adc1522fe2762a13d80dc048052fdeafde",
    "usage": "bfc61a426060a5b3f8a28bb6a97782328357a7f7a947996bb195435632046eea",
    "help": "8f0a74d8e3694e1dcc114d4b4d261db76c0e9beff6541fe63363cece775fdba7",
}


@pytest.fixture
def fixed_terminal(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def table_leaves() -> list[list[str]]:
    """The argv that names each leaf of the parser's table."""
    return [
        [command] + ([] if leaf is None else [leaf])
        for command, (_, rows) in _COMMANDS.items()
        for leaf, *_ in rows
    ]


def test_the_corpus_covers_every_leaf_in_every_format():
    groups = corpus()
    leaves = set(groups) - {"usage", "help", "classes wide"}
    assert leaves == {" ".join(argv) for argv in table_leaves()}
    helped = {(), *((command,) for command in _COMMANDS), *map(tuple, table_leaves())}
    assert sorted(tuple(argv[:-1]) for argv in groups["help"]) == sorted(helped)
    assert {argv[-1] for argv in groups["classes wide"]} == set(FORMATS)
    for leaf in leaves:
        assert {argv[-1] for argv in groups[leaf]} == set(FORMATS)
    assert sum(map(len, groups.values())) >= 1000
    assert set(DIGESTS) == set(groups)


@pytest.mark.parametrize("group", sorted(DIGESTS))
def test_every_answer_matches_its_digest(fixed_terminal, group):
    assert group_digest(corpus()[group]) == DIGESTS[group]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    groups = corpus()
    for group in sys.argv[1:] or groups:
        sys.stdout.writelines(answer_lines(groups[group]))
