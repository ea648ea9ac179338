"""The ``library`` workload: seeded in-process calls and their checks.

A run draws one sweep of ops from the seed and repeats it.  Sizes and modes
form a fixed grid over the ranges below, so every seed asks for the same
amount of work; the seed draws what the work is done on (head positions,
the permutations of the algebra batches) and the order of the ops.

Every op is timed from the call until its result is fully consumed; the
checks run afterwards, outside the timed span, against ``reference``.
"""
from __future__ import annotations

import random

from reference import Tables, cycle_lengths, factorial, personae

ERROR = "error"
MODES = ("loose", "exact", "setwise")

# enumerate_caput: head sizes per degree, each in all three modes.
CAPUT_GRID = {9: (1, 2, 3, 5), 8: (0, 1, 2, 4), 7: (0, 1, 3)}
PARTITION_GRID = (20, 30, 40, 45)
CLASS_GRID = (20, 30, 40)
GRADUS_GRID = (8, 11, 14)
VICINITY_GRID = (6, 7, 8, 9)
# Algebra batches cost about 8-30 ms each, rising smoothly with the degree;
# many of them keep the sweep's median op from jumping between op kinds.
ALGEBRA_GRID = tuple(range(5, 61, 3))
ALGEBRA_BATCH = 200


class Deck:
    """The seeded sweep of one run."""

    def __init__(self, seed: int, small: bool = False) -> None:
        self.seed = seed
        self.small = small

    @staticmethod
    def warmup() -> list[dict]:
        """One tiny op of each kind, run before timing starts."""
        return [{"kind": "caput", "n": 4, "head": [1], "mode": m} for m in MODES] + [
            {"kind": kind, "n": 6} for kind in ("partitions", "classes", "coordinates", "vicinity")
        ] + [{"kind": "algebra", "n": 12, "perms": ["[" + ",".join(map(str, range(12, 0, -1))) + "]"]}]

    def sweep(self) -> list[dict]:
        rng = random.Random(f"library:{self.seed}")
        shrink = 2 if self.small else 0
        ops = []
        for n, sizes in CAPUT_GRID.items():
            n -= shrink
            for k in sizes:
                for mode in MODES:
                    head = sorted(rng.sample(range(1, n + 1), min(k, n)))
                    ops.append({"kind": "caput", "n": n, "head": head, "mode": mode})
        for kind, grid, cut in (
            ("partitions", PARTITION_GRID, 4 * shrink),
            ("classes", CLASS_GRID, 4 * shrink),
            ("coordinates", GRADUS_GRID, 4 * shrink),
            ("vicinity", VICINITY_GRID, shrink),
        ):
            ops += [{"kind": kind, "n": n - cut} for n in grid]
        batch = ALGEBRA_BATCH // (10 if self.small else 1)
        for degree in ALGEBRA_GRID:
            perms = []
            for _ in range(batch):
                image = list(range(1, degree + 1))
                rng.shuffle(image)
                perms.append("[" + ",".join(map(str, image)) + "]")
            ops.append({"kind": "algebra", "n": degree, "perms": perms})
        rng.shuffle(ops)
        return ops


class Library:
    """Runs ops against an imported combinatoria and checks what comes back."""

    def __init__(self) -> None:
        import combinatoria as c

        self.c = c
        self.ref = Tables()

    # -- timed part: call and consume ------------------------------------------

    def call(self, op: dict):
        c = self.c
        kind = op["kind"]
        n = op["n"]
        if kind == "caput":
            spec = c.CaputSpec(n, frozenset(op["head"]), c.HeadMode(op["mode"]))
            return list(c.enumerate_caput(spec))
        if kind == "partitions":
            return c.enumerate_partitions(n)
        if kind == "classes":
            return [(t, c.class_order(t).order) for t in c.cycle_types_of(n)]
        if kind == "coordinates":
            return c.coordinates(n)
        if kind == "vicinity":
            return c.vicinity_classes(n)
        out = []
        for text in op["perms"]:
            p = c.parse_permutation(text)
            cycles = c.format_cycles(p)
            try:
                back = c.parse_permutation(cycles)
            except Exception as exc:  # the round trip is one of the checks
                back = exc
            out.append((p, cycles, back, c.compose(p, c.inverse(p)), c.cycle_type(p)))
        return out

    # -- untimed part: checks ---------------------------------------------------

    def check(self, op: dict, out):
        """None when the output is right, else what is wrong with it.

        A bare message means a wrong answer; ``(ERROR, message)`` means a call
        inside the op raised where it should have answered.
        """
        return getattr(self, "_check_" + op["kind"])(op, out)

    def _check_caput(self, op, out):
        n, head, mode = op["n"], op["head"], op["mode"]
        want = self.ref.caput(n, len(head), mode)
        if len(out) != want:
            return f"caput n={n} head={head} {mode}: {len(out)} permutations, expected {want}"
        points = tuple(range(1, n + 1))
        heads = set(head)
        prev = ()
        for p in out:
            img = p.image
            if img <= prev or tuple(sorted(img)) != points:
                return f"caput n={n} head={head} {mode}: {img} out of order or not a permutation"
            if mode == "setwise":
                ok = {img[i - 1] for i in head} == heads
            else:
                ok = all(img[i - 1] == i for i in head) and (
                    mode == "loose"
                    or all(img[i - 1] != i for i in points if i not in heads)
                )
            if not ok:
                return f"caput n={n} head={head} {mode}: {img} breaks the head"
            prev = img
        return None

    def _check_partitions(self, op, out):
        n = op["n"]
        want = self.ref.partitions(n)
        if len(out) != want:
            return f"partitions n={n}: {len(out)} listed, p(n)={want}"
        prev = None
        for part in out:
            parts = part.parts
            if sum(parts) != n or any(a < b for a, b in zip(parts, parts[1:])):
                return f"partitions n={n}: {parts} is not a partition of n"
            if prev is not None and parts >= prev:
                return f"partitions n={n}: {parts} breaks reverse-lex order"
            prev = parts
        return None

    def _check_classes(self, op, out):
        n = op["n"]
        want = self.ref.partitions(n)
        if len(out) != want:
            return f"classes n={n}: {len(out)} cycle types, p(n)={want}"
        seen = set()
        total = 0
        for t, order in out:
            if t.degree != n or sum(i * a for i, a in enumerate(t.alpha, 1)) != n:
                return f"classes n={n}: bad cycle type {t.alpha}"
            seen.add(t.alpha)
            total += order
        if len(seen) != want:
            return f"classes n={n}: repeated cycle types"
        if total != factorial(n):
            return f"classes n={n}: class orders sum to {total}, not n!"
        return None

    def _check_coordinates(self, op, out):
        g = op["n"]
        want = personae(g)
        if len(out) != want:
            return f"coordinates gradus={g}: {len(out)} listed, expected {want}"
        prev = (-1, -1)
        for coord in out:
            pair = (coord.antecedens, coord.sequens)
            if pair <= prev or not (0 <= pair[0] < 1 << g and 0 <= pair[1] <= g):
                return f"coordinates gradus={g}: {pair} out of order or range"
            prev = pair
        return None

    def _check_vicinity(self, op, out):
        n = op["n"]
        want = factorial(n - 1)
        if len(out) != want:
            return f"vicinity n={n}: {len(out)} classes, expected (n-1)!={want}"
        points = tuple(range(1, n + 1))
        prev = ()
        for p in out:
            img = p.image
            if img <= prev or img[0] != 1 or tuple(sorted(img)) != points:
                return f"vicinity n={n}: {img} out of order or not canonical"
            prev = img
        return None

    def _check_algebra(self, op, out):
        if len(out) != len(op["perms"]):
            return f"algebra: {len(out)} results for {len(op['perms'])} inputs"
        for text, (p, cycles, back, unit, ctype) in zip(op["perms"], out):
            image = tuple(int(x) for x in text[1:-1].split(","))
            n = len(image)
            if p.image != image:
                return f"algebra: parse_permutation({text}) gave {p.image}"
            if isinstance(back, Exception):
                return ERROR, f"algebra: parse(format_cycles(p)) raised for {text} via {cycles!r}: {back!r}"
            if back.image != image:
                return f"algebra: parse(format_cycles(p)) != p for {text} via {cycles!r}"
            if unit.image != tuple(range(1, n + 1)):
                return f"algebra: compose(p, inverse(p)) is not the identity for {text}"
            alpha = [0] * n
            for length in cycle_lengths(image):
                alpha[length - 1] += 1
            if tuple(ctype.alpha) != tuple(alpha):
                return f"algebra: cycle_type({text}) = {ctype.alpha}, census {alpha}"
        return None

