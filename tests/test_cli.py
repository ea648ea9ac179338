import argparse
import contextlib
import csv
import decimal
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import combinatoria.cli as cli_mod
import combinatoria.perm as perm_mod
from combinatoria import OracleReport
from combinatoria.cli import main
from combinatoria.errors import CEILINGS

CAPUT_CEILING = CEILINGS["head enumeration"].limit
COORDINATE_CEILING = CEILINGS["coordinate listing"].limit
COUNTING_CEILING = CEILINGS["partition count"].limit
PARTITION_CEILING = CEILINGS["partition listing"].limit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), out


class TestPartitionsCommand:
    def test_count_100(self, capsys):
        code, payload, _ = run_json(capsys, "partitions", "count", "--n", "100")
        assert code == 0
        assert payload["result"]["count"] == "190569292"

    def test_counts_are_decimal_strings(self, capsys):
        _, payload, _ = run_json(capsys, "partitions", "count", "--n", "60")
        assert isinstance(payload["result"]["count"], str)
        assert payload["result"]["count"].isdigit()

    def test_list_six(self, capsys):
        code, payload, _ = run_json(capsys, "partitions", "list", "--n", "6")
        assert payload["result"]["partitions"][:3] == ["6", "5,1", "4,2"]
        assert payload["result"]["count"] == "11"

    def test_two_part(self, capsys):
        _, payload, _ = run_json(capsys, "partitions", "two-part", "--n", "7")
        assert payload["result"]["two_part_count"] == "3"


class TestClassesCommand:
    def test_human_table_has_11_rows_summing_to_720(self, capsys):
        code, out, _ = run(capsys, "classes", "--n", "6", "--format", "human")
        lines = out.strip().splitlines()
        data = lines[2:]  # header + rule
        assert len(data) == 11
        orders = [int(line.split()[-1]) for line in data]
        assert sum(orders) == 720

    def test_csv_quotes_cycle_notation(self, capsys):
        code, out, _ = run(capsys, "classes", "--n", "4", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == '"cycle_type","partition","order"'
        assert any(line.endswith(",6") for line in lines)  # orders unquoted
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 5  # header + p(4) classes

    def test_formats_report_identical_counts(self, capsys):
        _, human, _ = run(capsys, "classes", "--n", "5", "--format", "human")
        _, payload, _ = run_json(capsys, "classes", "--n", "5")
        _, out_csv, _ = run(capsys, "classes", "--n", "5", "--format", "csv")
        human_orders = sorted(int(l.split()[-1]) for l in human.strip().splitlines()[2:])
        json_orders = sorted(int(c["order"]) for c in payload["result"]["classes"])
        csv_orders = sorted(
            int(row[2]) for row in list(csv.reader(io.StringIO(out_csv)))[1:]
        )
        assert human_orders == json_orders == csv_orders


class TestCaputCommand:
    def test_count_the_six_rows(self, capsys):
        code, payload, _ = run_json(
            capsys, "caput", "count", "--n", "4", "--head", "1=a", "--mode", "loose"
        )
        assert code == 0
        assert payload["result"]["count"] == "6"

    def test_spec_is_echoed(self, capsys):
        _, payload, _ = run_json(
            capsys, "caput", "count", "--n", "4", "--head", "1=a,3=c", "--mode", "exact"
        )
        spec = payload["result"]["spec"]
        assert spec == {"degree": 4, "head": {"1": "a", "3": "c"}, "mode": "exact"}

    def test_enumerate_lists_lexicographically(self, capsys):
        _, payload, _ = run_json(
            capsys, "caput", "enumerate", "--n", "4", "--head", "1=a"
        )
        perms = payload["result"]["permutations"]
        assert perms[0] == "[1,2,3,4]"
        assert perms == sorted(perms)
        assert len(perms) == 6

    def test_json_listing_formats_no_table_rows(self, capsys, monkeypatch):
        def unused(p):
            raise AssertionError("a table row was formatted for --format json")

        monkeypatch.setattr(cli_mod, "format_cycles", unused)
        code, payload, _ = run_json(capsys, "caput", "enumerate", "--n", "5")
        assert code == 0
        assert payload["result"]["count"] == "120"

    @pytest.mark.parametrize("fmt", ["human", "json", "csv"])
    def test_each_format_converts_the_count_once(self, capsys, monkeypatch, fmt):
        conversions = []

        class Counted(int):
            def __str__(self):
                conversions.append(fmt)
                return int.__str__(self)

        monkeypatch.setattr(cli_mod, "count_caput", lambda spec: Counted(6))
        code, out, _ = run(capsys, "caput", "count", "--n", "4", "--head", "1=a", "--format", fmt)
        assert code == 0 and "6" in out
        assert len(conversions) == 1

    def test_csv_listing_formats_each_permutation_once(self, capsys, monkeypatch):
        formatted = []

        def counted(p):
            formatted.append(p)
            return perm_mod.format_one_line(p)

        monkeypatch.setattr(cli_mod, "format_one_line", counted)
        code, out, _ = run(capsys, "caput", "enumerate", "--n", "5", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 1 + 120
        assert len(formatted) == 120

    def test_csv_listing_keeps_no_list_of_permutations(self):
        # 8! = 40320 rows; a list of them alone would take about 6 MB
        class Discard(io.TextIOBase):
            def write(self, text):
                return len(text)

        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(Discard()):
                code = main(["caput", "enumerate", "--n", "8", "--format", "csv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2_000_000

    def test_displaced_head_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "caput", "count", "--n", "4", "--head", "1=b")
        assert code == 2
        assert "occupant" in err


class TestPermCommand:
    def test_compose_right_to_left(self, capsys):
        _, payload, _ = run_json(capsys, "perm", "compose", "(12)(3)", "(13)(2)")
        assert payload["result"]["result"]["one_line"] == "[3,1,2]"
        assert payload["result"]["result"]["cycles"] == "(132)"

    def test_inverse(self, capsys):
        _, payload, _ = run_json(capsys, "perm", "inverse", "(123)")
        assert payload["result"]["result"]["cycles"] == "(132)"

    def test_cycles_of_the_worked_example(self, capsys):
        _, payload, _ = run_json(capsys, "perm", "cycles", "[1,4,3,6,5,2]")
        assert payload["result"]["result"]["cycles"] == "(1)(3)(5)(246)"
        assert payload["result"]["result"]["cycle_type"] == "α₁=3 α₃=1"
        assert payload["result"]["fixed_points"] == [1, 3, 5]

    def test_degree_mismatch_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "perm", "compose", "[1,2]", "[1,2,3]")
        assert code == 2

    @pytest.mark.parametrize("text", ["(1,x)", "(1 99999999999)"])
    def test_unreadable_or_oversized_cycle_text_is_a_usage_error(self, capsys, text):
        code, out, err = run(capsys, "perm", "cycles", text)
        assert code == 2
        assert out == ""
        assert err.startswith("combinatoria: error:")


class TestProblemsCommand:
    def test_solve_problem_5(self, capsys):
        _, payload, _ = run_json(capsys, "problems", "solve", "--id", "5", "--n", "4")
        assert payload["result"]["count"] == "6"
        assert payload["result"]["status"] == "ok"

    def test_reduce_problem_5(self, capsys):
        _, payload, _ = run_json(capsys, "problems", "reduce", "--id", "5", "--n", "4")
        result = payload["result"]
        assert result["direct_count"] == result["caput_count"] == "6"
        assert result["agrees"] is True

    def test_reduce_simpliciter_not_reducible(self, capsys):
        _, payload, _ = run_json(
            capsys, "problems", "reduce", "--id", "simpliciter", "--n", "4"
        )
        assert payload["result"]["status"] == "not-reducible"
        assert payload["result"]["caput_count"] is None

    def test_reserved_problem(self, capsys):
        _, payload, _ = run_json(capsys, "problems", "solve", "--id", "9", "--n", "4")
        assert payload["result"]["status"] == "not-specified-in-source"
        assert payload["result"]["count"] is None

    def test_bad_id_is_usage_error(self, capsys):
        code, _, err = run(capsys, "problems", "solve", "--id", "nope", "--n", "4")
        assert code == 2


class TestGenealogyCommand:
    def test_personae(self, capsys):
        _, payload, _ = run_json(capsys, "genealogy", "personae", "--gradus", "3")
        assert payload["result"] == {"gradus": 3, "cognationes": 4, "count": "32"}

    def test_coords_layout_tag_and_pairs(self, capsys):
        _, payload, _ = run_json(capsys, "genealogy", "coords", "--gradus", "2")
        result = payload["result"]
        assert result["layout"] == "reconstructed-v1"
        assert result["count"] == "12"
        assert result["coordinates"][:4] == [[0, 0], [0, 1], [0, 2], [1, 0]]

    def test_discerptiones(self, capsys):
        _, payload, _ = run_json(capsys, "genealogy", "discerptiones", "--n", "6")
        assert payload["result"]["two_part_count"] == "3"


class TestVerifyCommand:
    def test_exit_zero_when_all_pass(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "--max-n", "4")
        assert code == 0
        assert payload["result"]["all_passed"] is True
        verdicts = {r["verdict"] for r in payload["result"]["reports"]}
        assert verdicts == {"pass"}

    def test_human_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "3", "--format", "human")
        assert code == 0
        assert out.count("pass") >= 9

    @pytest.mark.parametrize("fmt", ["human", "json", "csv"])
    def test_exit_one_when_a_check_fails(self, capsys, monkeypatch, fmt):
        failed = OracleReport("a claim", "n=1..2", passed=False, counterexample="n=2")
        monkeypatch.setattr(cli_mod.oracle_mod, "verify_all", lambda max_n: [failed])
        code, out, err = run(capsys, "verify", "--max-n", "2", "--format", fmt)
        assert code == 1
        assert "fail" in out and err == ""


class TestEnvelope:
    def test_command_is_echoed(self, capsys):
        _, payload, _ = run_json(capsys, "partitions", "count", "--n", "6")
        assert payload["command"].startswith("combinatoria partitions count")
        assert payload["format_version"] == "1"

    def test_json_round_trips_byte_identically(self, capsys):
        for argv in (
            ["partitions", "list", "--n", "6"],
            ["classes", "--n", "6"],
            ["caput", "count", "--n", "4", "--head", "1=a"],
            ["genealogy", "coords", "--gradus", "2"],
        ):
            _, payload, raw = run_json(capsys, *argv)
            rendered = json.dumps(payload, indent=2, ensure_ascii=False)
            assert rendered == raw.rstrip("\n")


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag_exits_2(self, capsys):
        assert run(capsys, "partitions", "count")[0] == 2

    def test_no_arguments_exits_2(self, capsys):
        assert run(capsys)[0] == 2

    def test_over_ceiling_is_reported_not_raised(self, capsys):
        code, _, err = run(capsys, "partitions", "list", "--n", "500")
        assert code == 2
        assert "120" in err

    @pytest.mark.parametrize("argv", [
        ["caput", "count", "--n", "4", "--head", "2=²"],
        ["caput", "count", "--n", "4", "--head", "1=a,2=①"],
        ["perm", "cycles", "(1²)"],
    ])
    def test_digits_int_cannot_read_are_refused(self, capsys, argv):
        # '²' and '①' are digits to str.isdigit but not to int
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("combinatoria: error:")

    def test_decimal_digits_of_any_script_are_read(self, capsys):
        _, payload, _ = run_json(capsys, "perm", "cycles", "(1٣2)")
        assert payload["result"]["result"]["one_line"] == "[3,1,2]"

    def test_count_past_the_counting_ceiling_is_refused(self, capsys):
        code, out, err = run(
            capsys, "partitions", "count", "--n", "99999999999999999999999999999999999"
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("combinatoria: error:")
        assert str(COUNTING_CEILING) in lines[0]


class TestHugeCounts:
    # 2000! has 5736 digits, past CPython's default int-to-str limit of 4300;
    # Decimal renders it without going through that limit.
    DIGITS = str(decimal.Decimal(math.factorial(2000)))
    LAST_FIELD = {
        "human": lambda out: out.splitlines()[-1].split()[-1],
        "csv": lambda out: list(csv.reader(io.StringIO(out)))[-1][-1],
        "json": lambda out: json.loads(out)["result"]["count"],
    }

    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_exact_digits_in_every_format(self, capsys, fmt):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(
            capsys, "problems", "solve", "--id", "4", "--n", "2000", "--format", fmt
        )
        assert code == 0, err
        assert len(self.DIGITS) > 4300
        assert self.LAST_FIELD[fmt](out) == self.DIGITS
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


class TestClosedPipe:
    """A reader that closes stdout early, as ``| head -1`` does, ends the
    request quietly with 141, the status a shell gives a writer stopped by
    SIGPIPE."""

    @staticmethod
    def _child(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.Popen(
            [sys.executable, "-m", "combinatoria.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )

    @pytest.mark.parametrize("fmt", ["csv", "human"])
    def test_reading_one_line_of_a_listing(self, fmt):
        header = '"partition"' if fmt == "csv" else "partition"
        # p(35) = 14883 rows, about 350 KB: far past what a pipe buffers, so
        # the child is still writing when the pipe closes
        child = self._child("partitions", "list", "--n", "35", "--format", fmt)
        first = child.stdout.readline()
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert (child.returncode, err, first) == (141, b"", f"{header}\n".encode())

    def test_a_passing_verify_is_not_reported_as_failed(self):
        # the pipe closes before the sweep writes its few rows
        child = self._child("verify", "--max-n", "3", "--format", "csv")
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (141, b"")


class TestEnvironmentDefault:
    """The format comes from argv alone: the environment presets none."""

    def test_env_var_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("COMBINATORIA_FORMAT", "json")
        code, out, _ = run(capsys, "partitions", "count", "--n", "6")
        assert (code, out) == (0, "n  count\n-  -----\n6  11\n")

    def test_bogus_env_value_falls_back_to_human(self, capsys, monkeypatch):
        monkeypatch.setenv("COMBINATORIA_FORMAT", "xml")
        code, out, _ = run(capsys, "partitions", "count", "--n", "6")
        assert code == 0
        assert out.splitlines()[0].startswith("n")


# -- every subcommand but verify, over drawn argv ----------------------------------
# Sizes stay below the sizes whose answers take long to build or print, or
# jump past the ceiling that refuses them, so no example starts a huge
# enumeration.

def _size(top: int, refused_past: int | None = None):
    """Integer text in -2..top or past the ceiling, or text that is no integer."""
    drawn = st.integers(min_value=-2, max_value=top)
    if refused_past is not None:
        drawn |= st.integers(min_value=refused_past + 1, max_value=10**40)
    return drawn.map(str) | st.sampled_from(["", "x", "1.5", "0x10"])


_PERM_TEXT = (
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.permutations(range(1, n + 1))
    ).map(lambda image: "[" + ",".join(map(str, image)) + "]")
    | st.lists(
        st.lists(st.integers(min_value=-1, max_value=12), min_size=1, max_size=4),
        min_size=1, max_size=4,
    ).map(lambda cycles: "".join("(" + ",".join(map(str, c)) + ")" for c in cycles))
    | st.lists(
        st.lists(st.sampled_from(["1", "2", "3", "x", "-1", "99999999999"]), min_size=1),
        min_size=1, max_size=3,
    ).map(lambda cycles: "".join("(" + " ".join(c) + ")" for c in cycles))
    | st.text(alphabet="[](), 0123456789x²①٣", max_size=12)
)

_HEAD_TEXT = (
    st.lists(
        st.tuples(st.integers(min_value=-1, max_value=8), st.sampled_from("abcdefgh123")),
        max_size=4,
    ).map(lambda pairs: ",".join(f"{pos}={sym}" for pos, sym in pairs))
    | st.text(alphabet="1234=abc, ²①٣", max_size=8)
)

_MODE = st.sampled_from(["loose", "exact", "setwise", "bogus"])

_PROBLEM_ID = st.sampled_from(
    [str(i) for i in range(-1, 14)] + ["simpliciter", "SIMPLICITER", "nope", ""]
)

def _problem(op: str):
    flags = st.tuples(
        _PROBLEM_ID, _size(8), st.none() | _size(9),
        st.booleans() if op == "solve" else st.just(False),
    )
    return flags.map(lambda f: [
        "problems", op, "--id", f[0], "--n", f[1],
        *([] if f[2] is None else ["--k", f[2]]),
        *(["--witnesses"] if f[3] else []),
    ])


_ARGV = st.one_of(
    st.tuples(st.sampled_from(["inverse", "cycles"]), _PERM_TEXT).map(
        lambda t: ["perm", t[0], t[1]]
    ),
    st.tuples(_PERM_TEXT, _PERM_TEXT).map(lambda t: ["perm", "compose", *t]),
    _size(3000, COUNTING_CEILING).map(lambda n: ["partitions", "count", "--n", n]),
    _size(30, PARTITION_CEILING).map(lambda n: ["partitions", "list", "--n", n]),
    _size(10**40).map(lambda n: ["partitions", "two-part", "--n", n]),
    _size(20, PARTITION_CEILING).map(lambda n: ["classes", "--n", n]),
    st.tuples(_size(200), _HEAD_TEXT, _MODE).map(
        lambda t: ["caput", "count", "--n", t[0], "--head", t[1], "--mode", t[2]]
    ),
    st.tuples(_size(6, CAPUT_CEILING), _HEAD_TEXT, _MODE).map(
        lambda t: ["caput", "enumerate", "--n", t[0], "--head", t[1], "--mode", t[2]]
    ),
    _problem("solve"),
    _problem("reduce"),
    _size(2000).map(lambda g: ["genealogy", "personae", "--gradus", g]),
    _size(8, COORDINATE_CEILING).map(lambda g: ["genealogy", "coords", "--gradus", g]),
    _size(10**40).map(lambda n: ["genealogy", "discerptiones", "--n", n]),
    st.lists(
        st.sampled_from(
            ["perm", "partitions", "classes", "caput", "problems", "genealogy",
             "count", "list", "enumerate", "solve", "coords", "--n", "--id", "3", "-1"]
        ),
        max_size=5,
    ),
)


class TestArgvProperty:
    @settings(max_examples=300, deadline=timedelta(seconds=2))
    @given(argv=_ARGV, fmt=st.sampled_from(["human", "json", "csv"]))
    def test_exit_code_is_0_or_2_and_json_parses(self, argv, fmt):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--format", fmt])
        assert code in (0, 2), err.getvalue()
        if code == 0 and fmt == "json":
            json.loads(out.getvalue())
        if code == 2:
            assert err.getvalue()


# -- the CLI surface, pinned --------------------------------------------------------
# Text captured from the CLI at 80 columns before its parser was built per
# command: top-level help, each command's and each leaf's help, an unknown
# command and a leaf missing a required argument.  Each entry is the exit
# code and the text: stdout on exit 0, stderr on exit 2, the other empty.

SURFACE = {
    '--help': (0, """\
usage: combinatoria [-h]
                    {perm,partitions,classes,caput,problems,genealogy,verify}
                    ...

Exact permutation, partition, head-variation and consanguinity-tree
combinatorics.

positional arguments:
  {perm,partitions,classes,caput,problems,genealogy,verify}
    perm                compose, invert or decompose permutations
    partitions          integer partition counting and listing
    classes             conjugacy classes of S_n with their exact orders
    caput               fixed-head variation counts and listings
    problems            the numbered classical problems
    genealogy           consanguinity-tree counts and coordinates
    verify              run every closed form against the brute-force oracle

options:
  -h, --help            show this help message and exit
"""),
    'perm --help': (0, """\
usage: combinatoria perm [-h] {compose,inverse,cycles} ...

positional arguments:
  {compose,inverse,cycles}
    compose             right-to-left product p∘q
    cycles              cycle decomposition and type

options:
  -h, --help            show this help message and exit
"""),
    'perm compose --help': (0, """\
usage: combinatoria perm compose [-h] [--format {human,json,csv}] p q

positional arguments:
  p                     one-line [2,3,1] or cycle (123) form
  q                     applied first

options:
  -h, --help            show this help message and exit
  --format {human,json,csv}
                        output format (default human)
"""),
    'perm inverse --help': (0, """\
usage: combinatoria perm inverse [-h] [--format {human,json,csv}] p

positional arguments:
  p

options:
  -h, --help            show this help message and exit
  --format {human,json,csv}
                        output format (default human)
"""),
    'perm cycles --help': (0, """\
usage: combinatoria perm cycles [-h] [--format {human,json,csv}] p

positional arguments:
  p

options:
  -h, --help            show this help message and exit
  --format {human,json,csv}
                        output format (default human)
"""),
    'partitions --help': (0, """\
usage: combinatoria partitions [-h] {count,list,two-part} ...

positional arguments:
  {count,list,two-part}
    count               exact p(n)
    list                all partitions, largest first part first
    two-part            partitions into exactly two parts

options:
  -h, --help            show this help message and exit
"""),
    'partitions count --help': (0, """\
usage: combinatoria partitions count [-h] [--format {human,json,csv}] --n N

options:
  -h, --help            show this help message and exit
  --format {human,json,csv}
                        output format (default human)
  --n N
"""),
    'partitions list --help': (0, """\
usage: combinatoria partitions list [-h] [--format {human,json,csv}] --n N

options:
  -h, --help            show this help message and exit
  --format {human,json,csv}
                        output format (default human)
  --n N
"""),
    'partitions two-part --help': (0, """\
usage: combinatoria partitions two-part [-h] [--format {human,json,csv}] --n N

options:
  -h, --help            show this help message and exit
  --format {human,json,csv}
                        output format (default human)
  --n N
"""),
    'classes --help': (0, """\
usage: combinatoria classes [-h] [--format {human,json,csv}] --n N

options:
  -h, --help            show this help message and exit
  --format {human,json,csv}
                        output format (default human)
  --n N
"""),
    'caput --help': (0, """\
usage: combinatoria caput [-h] {count,enumerate} ...

positional arguments:
  {count,enumerate}
    count            closed-form count
    enumerate        lexicographic listing

options:
  -h, --help         show this help message and exit
"""),
    'caput count --help': (0, """\
usage: combinatoria caput count [-h] [--format {human,json,csv}] --n N
                                [--head HEAD] [--mode {loose,exact,setwise}]

options:
  -h, --help            show this help message and exit
  --format {human,json,csv}
                        output format (default human)
  --n N                 degree
  --head HEAD           comma list like 1=a,3=c; empty for no constraint
  --mode {loose,exact,setwise}
"""),
    'caput enumerate --help': (0, """\
usage: combinatoria caput enumerate [-h] [--format {human,json,csv}] --n N
                                    [--head HEAD]
                                    [--mode {loose,exact,setwise}]

options:
  -h, --help            show this help message and exit
  --format {human,json,csv}
                        output format (default human)
  --n N                 degree
  --head HEAD           comma list like 1=a,3=c; empty for no constraint
  --mode {loose,exact,setwise}
"""),
    'problems --help': (0, """\
usage: combinatoria problems [-h] {solve,reduce} ...

positional arguments:
  {solve,reduce}
    reduce        recover the count through the head machinery

options:
  -h, --help      show this help message and exit
"""),
    'problems solve --help': (0, """\
usage: combinatoria problems solve [-h] [--format {human,json,csv}] --id ID
                                   --n N [--k K] [--witnesses]

options:
  -h, --help            show this help message and exit
  --format {human,json,csv}
                        output format (default human)
  --id ID
  --n N
  --k K
  --witnesses           include an explicit listing
"""),
    'problems reduce --help': (0, """\
usage: combinatoria problems reduce [-h] [--format {human,json,csv}] --id ID
                                    --n N [--k K]

options:
  -h, --help            show this help message and exit
  --format {human,json,csv}
                        output format (default human)
  --id ID
  --n N
  --k K
"""),
    'genealogy --help': (0, """\
usage: combinatoria genealogy [-h] {personae,coords,discerptiones} ...

positional arguments:
  {personae,coords,discerptiones}
    personae            2^n * (n+1) persons at degree n
    coords              every person's (antecedens, sequens)
    discerptiones       two-part partitions of the rank count

options:
  -h, --help            show this help message and exit
"""),
    'genealogy personae --help': (0, """\
usage: combinatoria genealogy personae [-h] [--format {human,json,csv}]
                                       --gradus GRADUS

options:
  -h, --help            show this help message and exit
  --format {human,json,csv}
                        output format (default human)
  --gradus GRADUS
"""),
    'genealogy coords --help': (0, """\
usage: combinatoria genealogy coords [-h] [--format {human,json,csv}] --gradus
                                     GRADUS

options:
  -h, --help            show this help message and exit
  --format {human,json,csv}
                        output format (default human)
  --gradus GRADUS
"""),
    'genealogy discerptiones --help': (0, """\
usage: combinatoria genealogy discerptiones [-h] [--format {human,json,csv}]
                                            --n N

options:
  -h, --help            show this help message and exit
  --format {human,json,csv}
                        output format (default human)
  --n N
"""),
    'verify --help': (0, """\
usage: combinatoria verify [-h] [--format {human,json,csv}] [--max-n MAX_N]

options:
  -h, --help            show this help message and exit
  --format {human,json,csv}
                        output format (default human)
  --max-n MAX_N
"""),
    'frobnicate': (2, """\
usage: combinatoria [-h]
                    {perm,partitions,classes,caput,problems,genealogy,verify}
                    ...
combinatoria: error: argument command: invalid choice: 'frobnicate' (choose from 'perm', 'partitions', 'classes', 'caput', 'problems', 'genealogy', 'verify')
"""),
    'caput count': (2, """\
usage: combinatoria caput count [-h] [--format {human,json,csv}] --n N
                                [--head HEAD] [--mode {loose,exact,setwise}]
combinatoria caput count: error: the following arguments are required: --n
"""),
}


class TestParser:
    @pytest.mark.parametrize("name", list(cli_mod._COMMANDS))
    def test_only_the_named_command_gets_its_leaves(self, name):
        parser = cli_mod.build_parser([name])
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(commands.choices) == list(cli_mod._COMMANDS)
        for other, command in commands.choices.items():
            filled = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
            assert bool(filled) == (other == name), other


class TestSurface:
    @pytest.mark.parametrize("argv", SURFACE)
    def test_text_and_exit_code_unchanged(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, *argv.split())
        expected_code, text = SURFACE[argv]
        assert code == expected_code
        assert (out, err) == ((text, "") if code == 0 else ("", text))
