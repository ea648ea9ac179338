"""The whole CLI surface, pinned by digest.

Every leaf in every format over a small grid of sizes, heads, modes and
problem ids, with the refusals past each ceiling, the usage errors and every
help text.  Each group of requests is reduced to one sha256 over the argv,
exit code, stdout and stderr of each request, and compared with the digest
captured from the CLI when each command still built both its JSON result and
its table rows.  A mismatch names the group; comparing `_answer` of each of
its requests on two checkouts finds the request.
"""
import contextlib
import hashlib
import io
import itertools
import json

import pytest

from combinatoria.cli import main

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


def group_digest(requests: list[list[str]]) -> str:
    digest = hashlib.sha256()
    for argv in requests:
        line = json.dumps(_answer(argv), ensure_ascii=False) + "\n"
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def corpus_digests() -> dict[str, str]:
    """Every group's digest; needs COLUMNS=80 and no COMBINATORIA_FORMAT set."""
    return {group: group_digest(requests) for group, requests in corpus().items()}


DIGESTS = {
    "perm compose": "972547f0bd025e1451ad2d6762352da60119ac64d74261ea76cbc98ef0cee75f",
    "perm inverse": "a76b33df71d3bd8640aed0af374551289367c5c2b12b2d7d4eedde612256e4e4",
    "perm cycles": "a9f8eca449d5957ed3936f21a0d3f9a590e5642c526550ec69251b9c659e4e66",
    "partitions count": "f5a7c80fccc991b6a53943594adddbfc301f8dc320495e51b18a82c9fcb234cb",
    "partitions list": "8f593f5898257c7a5235df05ce7b46006e60653c66dc0ca137da9d6e6634b924",
    "partitions two-part": "c57c4a47c05453fec2256d69206f31c1972b988ef736838152fcdbe14ee38b85",
    "classes": "04ba4331cf35224a3bae06e6dd83378b63dc06668aa243ba43eb80fcd4948fc4",
    "classes wide": "3bd6982833811a00146e72db34965dd75a5a271b9b2acaf5fe741e7270d1da5e",
    "caput count": "a5b37925c3daa9321eb6cfd04cf5ceb95f563cb42bb07809aa6e91f638c399e3",
    "caput enumerate": "40de222966d0d8e71628fa96ad58ae7e6f8d515eb61fff768a2bb7403d58ba10",
    "problems solve": "4132262b2938ddf482bf910c8529761a013dc5d90539ce24ac8dc2531c7184b8",
    "problems reduce": "bb864de3fdc37121917f4dbf4cfcf4ba21217fa9c052667e32608933257d603b",
    "genealogy personae": "d3a2e1de2a053a44d4876d4c499c3edc07402391839add6bb418c84b3b30ca83",
    "genealogy coords": "e1fe583b65e36e21cc0dfa44e6b5dc9b6d258afc12c0eed868afb1fae5b15ed0",
    "genealogy discerptiones": "25702fc6ecc4ac30bf6839edaf9a74f2121ea59c5358bdc57aa06c9bcfb631d8",
    "verify": "81f16deb2ebe474928646ccc3e212c16fd91a7c819bad77d8dcf6828d9016d39",
    "usage": "bfc61a426060a5b3f8a28bb6a97782328357a7f7a947996bb195435632046eea",
    "help": "2bd659d7dd3d44c4ef063b9bf015c32e2c28b194363509b524c2114a23e548f9",
}


@pytest.fixture
def fixed_terminal(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("COMBINATORIA_FORMAT", raising=False)


def test_the_corpus_covers_every_leaf_in_every_format():
    groups = corpus()
    leaves = set(groups) - {"usage", "help", "classes wide"}
    assert len(leaves) == 15
    assert {argv[-1] for argv in groups["classes wide"]} == set(FORMATS)
    for leaf in leaves:
        assert {argv[-1] for argv in groups[leaf]} == set(FORMATS)
    assert sum(map(len, groups.values())) >= 1000
    assert set(DIGESTS) == set(groups)


@pytest.mark.parametrize("group", sorted(DIGESTS))
def test_every_answer_matches_its_digest(fixed_terminal, group):
    assert group_digest(corpus()[group]) == DIGESTS[group]
