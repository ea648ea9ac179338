"""The ``cli`` workload: seeded CLI requests and the checks on their output.

A run draws one sweep of requests from the seed and repeats it.  The sweep
is two draws of a fixed list of slots: small requests, exact counts,
refusals (exit 2 with a one-line error) and oversized counts (results past
4300 digits, or derangement numbers deep enough to exhaust the recursion
limit, which must still be exact).  The seed fills in sizes, heads,
permutations and formats; a size drawn from a range walks a seeded
permutation of it from draw to draw, and the formats of a draw are a seeded
shuffle of an even split, so every draw covers all three.
"""
from __future__ import annotations

import csv
import io
import json
import random
import re

from reference import Tables, binom, factorial, personae, two_parts

OK, WRONG, ERROR, REFUSED = "ok", "wrong", "error", "refused"
FORMATS = ("human", "json", "csv")
MODES = ("loose", "exact", "setwise")
WITNESS_LIMIT = 1000


class Deck:
    def __init__(self, seed: int, small: bool = False) -> None:
        self.seed = seed
        self.small = small
        self.ref = Tables()

    def _cycle(self, slot: str, values, r: int):
        values = list(values)
        random.Random(f"cli:{self.seed}:{slot}").shuffle(values)
        return values[r % len(values)]

    def sweep(self) -> list[dict]:
        return self._draw(0) + self._draw(1)

    def _draw(self, r: int) -> list[dict]:
        rng = random.Random(f"cli:{self.seed}:draw:{r}")
        pick = lambda slot, values: self._cycle(slot, values, r)  # noqa: E731
        ref = self.ref
        reqs: list[tuple[list[str], dict]] = []

        def perm_text(n: int) -> tuple[tuple[int, ...], str]:
            image = list(range(1, n + 1))
            rng.shuffle(image)
            return tuple(image), "[" + ",".join(map(str, image)) + "]"

        def head_arg(n: int, k: int) -> tuple[list[int], str]:
            head = sorted(rng.sample(range(1, min(n, 26) + 1), k))
            return head, ",".join(f"{i}={chr(96 + i)}" for i in head)

        # -- small requests -----------------------------------------------------
        n = pick("perm", range(3, 10))
        (p, pt), (q, qt) = perm_text(n), perm_text(n)
        reqs.append((["perm", "compose", pt, qt],
                     {"check": "perm", "image": tuple(p[x - 1] for x in q)}))
        inv = [0] * n
        for i, x in enumerate(p, 1):
            inv[x - 1] = i
        reqs.append((["perm", "inverse", pt], {"check": "perm", "image": tuple(inv)}))
        reqs.append((["perm", "cycles", qt], {"check": "perm", "image": q, "cycles": True}))
        m = pick("two-part", range(2, 10001))
        reqs.append((["partitions", "two-part", "--n", str(m)],
                     {"check": "row", "row": {"two_part_count": str(two_parts(m))}}))
        m = pick("list", range(1, 13))
        reqs.append((["partitions", "list", "--n", str(m)], {"check": "partition_list", "n": m}))
        m = pick("classes", range(1, 10))
        reqs.append((["classes", "--n", str(m)], {"check": "classes", "n": m}))
        n, k, mode = pick("enum-n", range(3, 7)), pick("enum-k", range(0, 3)), pick("enum-mode", MODES)
        head, text = head_arg(n, k)
        reqs.append((["caput", "enumerate", "--n", str(n), "--head", text, "--mode", mode],
                     {"check": "caput_list", "n": n, "head": head, "mode": mode, "count": ref.caput(n, k, mode)}))
        g = pick("coords", range(0, 6))
        reqs.append((["genealogy", "coords", "--gradus", str(g)], {"check": "coords", "gradus": g}))
        m = pick("discerptiones", range(0, 200))
        reqs.append((["genealogy", "discerptiones", "--n", str(m)],
                     {"check": "row", "row": {"two_part_count": str(two_parts(m))}}))
        pid, n = pick("reduce-id", (1, 2, 3, 4, 5)), pick("reduce-n", range(1, 12))
        k = rng.randint(0, n)
        direct = {4: factorial(n), 5: factorial(n - 1)}.get(pid, binom(n, k))
        reqs.append((["problems", "reduce", "--id", str(pid), "--n", str(n), "--k", str(k)],
                     {"check": "row", "row": {"status": "ok", "direct_count": str(direct),
                                              "caput_count": str(direct), "agrees": "true"}}))
        m = pick("verify", range(1, 5))
        reqs.append((["verify", "--max-n", str(m)], {"check": "verify"}))
        pid = pick("solve-id", (1, 4, 5, 6, 7, 8, "simpliciter"))
        n = rng.randint(1, 30)
        k = rng.randint(0, n)
        count, status = {
            1: (binom(n, k), "ok"), 4: (factorial(n), "ok"), 5: (factorial(n - 1), "ok"),
            7: (factorial(n - k), "ok"), "simpliciter": ((1 << n) - 1, "ok"),
        }.get(pid, (None, "not-specified-in-source"))
        reqs.append((["problems", "solve", "--id", str(pid), "--n", str(n), "--k", str(k)],
                     {"check": "row", "row": {"status": status, "count": None if count is None else str(count)}}))

        # -- exact counts ---------------------------------------------------------
        top = 600 if self.small else 3000
        m = pick("pcount", range(500, top + 1))
        reqs.append((["partitions", "count", "--n", str(m)],
                     {"check": "row", "row": {"count": str(ref.partitions(m))}}))
        for mode in MODES:
            n = pick(f"count-{mode}", range(50, 401))
            k = rng.randint(0, 5)
            head, text = head_arg(n, k)
            reqs.append((["caput", "count", "--n", str(n), "--head", text, "--mode", mode],
                         {"check": "row", "row": {"count": str(ref.caput(n, k, mode))}}))
        g = pick("personae", range(100, 5001))
        reqs.append((["genealogy", "personae", "--gradus", str(g)],
                     {"check": "row", "row": {"count": str(personae(g))}}))
        reqs.append((["problems", "solve", "--id", "4", "--n", "9", "--witnesses"],
                     {"check": "witnesses", "id": 4, "n": 9, "k": None, "count": factorial(9)}))
        pid, n = pick("witness-id", (1, 2, 3, 5, "simpliciter")), pick("witness-n", range(4, 10))
        k = rng.randint(0, n)
        count = {5: factorial(n - 1), "simpliciter": (1 << n) - 1}.get(pid, binom(n, k))
        reqs.append((["problems", "solve", "--id", str(pid), "--n", str(n), "--k", str(k), "--witnesses"],
                     {"check": "witnesses", "id": pid, "n": n, "k": k, "count": count}))

        # -- refusals: exit 2, one line on stderr --------------------------------------
        refusals = (
            lambda: ["caput", "enumerate", "--n", str(rng.randint(13, 20))],
            lambda: ["partitions", "list", "--n", str(rng.randint(121, 200))],
            lambda: ["genealogy", "coords", "--gradus", str(rng.randint(21, 40))],
            lambda: ["verify", "--max-n", str(rng.randint(9, 12))],
            lambda: ["perm", "compose", perm_text(4)[1], perm_text(5)[1]],
            lambda: ["perm", "inverse", "[1,1,2]"],
            lambda: ["caput", "count", "--n", "5", "--head", "1=b"],
            lambda: ["problems", "solve", "--id", "1", "--n", str(rng.randint(1, 9))],
        )
        for slot in range(3):
            make = refusals[pick(f"refusal-{slot}", range(slot, len(refusals), 3))]
            reqs.append((make(), {"check": "refusal"}))

        # -- oversized counts: exact answers are still owed ------------------------------
        n = pick("deep-exact", range(520, 901))
        k = rng.randint(0, 10)
        head, text = head_arg(n, k)
        reqs.append((["caput", "count", "--n", str(n), "--head", text, "--mode", "exact"],
                     {"check": "row", "row": {"count": str(ref.derangements(n - k))}}))
        kind = pick("huge", ("caput", "personae", "solve4", "simpliciter"))
        if kind == "caput":
            n = rng.randint(1600, 2400)
            reqs.append((["caput", "count", "--n", str(n)], {"check": "row", "row": {"count": str(factorial(n))}}))
        elif kind == "personae":
            g = rng.randint(15000, 20000)
            reqs.append((["genealogy", "personae", "--gradus", str(g)],
                         {"check": "row", "row": {"count": str(personae(g))}}))
        elif kind == "solve4":
            n = rng.randint(1750, 2500)
            reqs.append((["problems", "solve", "--id", "4", "--n", str(n)],
                         {"check": "row", "row": {"status": "ok", "count": str(factorial(n))}}))
        else:
            n = rng.randint(15000, 20000)
            reqs.append((["problems", "solve", "--id", "simpliciter", "--n", str(n)],
                         {"check": "row", "row": {"status": "ok", "count": str((1 << n) - 1)}}))

        formats = [FORMATS[i % 3] for i in range(len(reqs))]
        rng.shuffle(formats)
        out = [{"argv": argv + ["--format", fmt], "fmt": fmt, **expect}
               for (argv, expect), fmt in zip(reqs, formats)]
        rng.shuffle(out)
        return out


# -- checks ------------------------------------------------------------------------

def _table(fmt: str, stdout: str) -> list[dict]:
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        header, body = rows[0], rows[1:]
    else:
        # The dashed rule under the header gives each column's span.
        lines = stdout.rstrip("\n").split("\n")
        spans = [m.span() for m in re.finditer(r"-+", lines[1])]
        split = lambda line: [line[a:b].strip() for a, b in spans]  # noqa: E731
        header, body = split(lines[0]), [split(line) for line in lines[2:]]
    return [dict(zip(header, row)) for row in body]


def _text(value) -> str | None:
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _read_cycles(text: str, n: int) -> tuple[int, ...] | None:
    image = [0] * n
    for chunk in text[1:-1].split(")("):
        points = [int(x) for x in (chunk.split(",") if "," in chunk else chunk)]
        for i, x in enumerate(points):
            if not 1 <= x <= n or image[x - 1]:
                return None
            image[x - 1] = points[(i + 1) % len(points)]
    return tuple(image) if all(image) else None


def _one_line(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.strip("[]").split(","))


def _satisfies(img: tuple[int, ...], head: list[int], mode: str) -> bool:
    if tuple(sorted(img)) != tuple(range(1, len(img) + 1)):
        return False
    if mode == "setwise":
        return {img[i - 1] for i in head} == set(head)
    if any(img[i - 1] != i for i in head):
        return False
    return mode == "loose" or all(img[i - 1] != i for i in range(1, len(img) + 1) if i not in head)


def _ordered(items) -> bool:
    return all(a < b for a, b in zip(items, items[1:]))


class Checker:
    def __init__(self, ref: Tables) -> None:
        self.ref = ref

    def check(self, req: dict, code: int, stdout: str, stderr: str) -> tuple[str, str]:
        """(status, message) for one finished request."""
        want = 2 if req["check"] == "refusal" else 0
        if code != want:
            status = ERROR if "Traceback" in stderr else REFUSED if code == 2 else WRONG
            last = stderr.strip().splitlines()[-1:] or [""]
            return status, f"exit {code}, expected {want}: {last[0][:160]}"
        if want == 2:
            lines = stderr.strip().splitlines()
            ok = stdout == "" and len(lines) == 1 and lines[0].startswith("combinatoria: error: ")
            return (OK, "") if ok else (WRONG, f"refusal output: {stderr[:160]!r}")
        if stderr:
            return WRONG, f"stderr on success: {stderr[:160]!r}"
        try:
            if req["fmt"] == "json":
                envelope = json.loads(stdout)
                if envelope.get("format_version") != "1":
                    return WRONG, "json envelope without format_version 1"
                result, rows = envelope["result"], None
            else:
                result, rows = None, _table(req["fmt"], stdout)
            problem = getattr(self, "_" + req["check"])(req, result, rows)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return WRONG, f"unreadable output: {exc!r}"
        return (OK, "") if problem is None else (WRONG, problem)

    def _row(self, req, result, rows):
        if rows is not None:
            if len(rows) != 1:
                return f"{len(rows)} rows, expected 1"
            result = {k: (v or None) for k, v in rows[0].items()}
        for col, want in req["row"].items():
            got = _text(result.get(col))
            if got != want:
                return f"{col} = {str(got)[:40]}, expected {str(want)[:40]}"
        return None

    def _perm(self, req, result, rows):
        payload = result["result"] if rows is None else rows[0]
        image = req["image"]
        if _one_line(payload["one_line"]) != image:
            return f"one_line {payload['one_line']}, expected {list(image)}"
        if req.get("cycles") and _read_cycles(payload["cycles"], len(image)) != image:
            return f"cycles {payload['cycles']} do not spell {list(image)}"
        return None

    def _partition_list(self, req, result, rows):
        n = req["n"]
        want = self.ref.partitions(n)
        listed = result["partitions"] if rows is None else [r["partition"] for r in rows]
        if rows is None and result["count"] != str(want):
            return f"count {result['count']}, p({n}) = {want}"
        if len(listed) != want or listed[0] != str(n) or listed[-1] != ",".join(["1"] * n):
            return f"{len(listed)} partitions of {n} listed, p(n) = {want}"
        return None

    def _classes(self, req, result, rows):
        n = req["n"]
        want, total = self.ref.partitions(n), factorial(n)
        if rows is None:
            if result["class_count"] != str(want) or result["order_total"] != str(total):
                return f"class_count {result['class_count']}, order_total {result['order_total']}"
            orders = [int(c["order"]) for c in result["classes"]]
        else:
            orders = [int(r["order"]) for r in rows]
        if len(orders) != want or sum(orders) != total:
            return f"{len(orders)} classes summing to {sum(orders)}; want {want} and n!"
        return None

    def _caput_list(self, req, result, rows):
        listed = result["permutations"] if rows is None else [r["one_line"] for r in rows]
        if rows is None and result["count"] != str(req["count"]):
            return f"count {result['count']}, expected {req['count']}"
        images = [_one_line(s) for s in listed]
        if len(images) != req["count"] or not _ordered(images):
            return f"{len(images)} permutations listed, expected {req['count']} in lex order"
        if not all(_satisfies(img, req["head"], req["mode"]) for img in images):
            return "a listed permutation breaks the head"
        return None

    def _coords(self, req, result, rows):
        g = req["gradus"]
        if rows is None:
            pairs = [tuple(c) for c in result["coordinates"]]
            if result["count"] != str(personae(g)):
                return f"count {result['count']}, expected {personae(g)}"
        else:
            pairs = [(int(r["antecedens"]), int(r["sequens"])) for r in rows]
        if len(pairs) != personae(g) or not _ordered(pairs):
            return f"{len(pairs)} coordinates at gradus {g}, expected {personae(g)} in order"
        return None

    def _verify(self, req, result, rows):
        verdicts = [r["verdict"] for r in (result["reports"] if rows is None else rows)]
        if rows is None and result["all_passed"] is not True:
            return "all_passed is not true"
        if len(verdicts) < 9 or any(v != "pass" for v in verdicts):
            return f"verdicts {verdicts}"
        return None

    def _witnesses(self, req, result, rows):
        count = req["count"]
        problem = self._row({"row": {"count": str(count)}}, result, rows)
        if problem or rows is not None:
            return problem
        witnesses = [tuple(w) for w in result["witnesses"]]
        if len(witnesses) != min(count, WITNESS_LIMIT) or result["truncated"] != (count > WITNESS_LIMIT):
            return f"{len(witnesses)} witnesses (truncated={result['truncated']}) for count {count}"
        if len(set(witnesses)) != len(witnesses):
            return "repeated witnesses"
        n, pid = req["n"], req["id"]
        full = tuple(range(1, n + 1))
        for w in witnesses:
            if pid in (4, 5):
                ok = tuple(sorted(w)) == full and (pid == 4 or w[0] == 1)
            else:
                ok = set(w) <= set(full) and list(w) == sorted(w) and (
                    len(w) == req["k"] if pid in (1, 2, 3) else len(w) >= 1)
            if not ok:
                return f"witness {w} is not an answer to problem {pid} at n={n}"
        return None
