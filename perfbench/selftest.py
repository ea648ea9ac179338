"""Self-test of the benchmark: its checks fire and its tracing misses nothing.

    python3 perfbench/selftest.py

1. Each workload runs briefly at small size as it is, then with one closed
   form broken on purpose (``class_order`` or ``count_caput`` off by one);
   the broken ops must show up as failures and make the run incorrect.
2. Each workload runs traced at small size; the self-check must find every
   per-layer metric non-zero on the workload that exercises it.
3. A wrapper installed only where ``count_caput`` is defined misses the
   binding ``cli`` made at import; the self-check must then name the metric
   rather than read it as zero.
4. BENCHMARK.json lists the workloads and metrics run.py reports.

Prints one line per check and exits 0 when all of them hold.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys

import run

MUTATIONS = {"library": "class_order", "verify": "count_caput", "cli": "count_caput"}


def expect(condition: bool, what: str) -> bool:
    print(("ok    " if condition else "FAIL  ") + what, flush=True)
    return condition


def checks_fire() -> bool:
    args = argparse.Namespace(seed=7, seconds=1.0, trace=0)
    ok = True
    for workload, mutation in MUTATIONS.items():
        clean = run.measure(workload, args, small=True)["summary"]
        broken = run.measure(workload, args, small=True, mutate=mutation)["summary"]
        ok &= expect(clean["correct"], f"{workload}: correct as it is "
                     f"({clean['failed']} of {clean['attempted']} ops failed)")
        ok &= expect(not broken["correct"] and broken["failed"] > clean["failed"],
                     f"{workload}: {mutation} off by one fails "
                     f"{broken['failed']} of {broken['attempted']} ops")
    return ok


def traced_runs_cover_layers() -> bool:
    args = argparse.Namespace(seed=7, seconds=1.0, trace=1)
    ok = True
    for workload in run.WORKLOADS:
        result = run.measure(workload, args, small=True)
        missing = [m for m, note in result["notes"].items() if note.startswith("self-check")]
        ok &= expect(result["summary"]["correct"] and not missing,
                     f"{workload}: traced run sees every layer it exercises {missing or ''}")
    return ok


def missed_binding_fails() -> bool:
    sys.path.insert(0, str(run.SRC))
    from combinatoria import caput, cli

    import tracer

    partial = tracer.Tracer()
    caput.count_caput = partial.wrap("caput.count_caput", caput.count_caput)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["caput", "count", "--n", "5"])
    stats = run.merge_traces([partial.export()])
    missing = run.self_check("cli", stats, run.layer_values(stats))
    return expect("caput.count_caput.self_s" in missing,
                  "cli: a wrapper missing cli's own count_caput binding fails the self-check")


def benchmark_json_matches() -> bool:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    same = (
        [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
        and {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
        and {m["name"]: m["unit"] for m in doc["per_layer"]} == {m: u for m, u, _ in run.PER_LAYER}
    )
    return expect(same, "BENCHMARK.json lists the workloads and metrics run.py reports")


def main() -> int:
    sys.set_int_max_str_digits(0)
    results = [benchmark_json_matches(), checks_fire(), traced_runs_cover_layers(), missed_binding_fails()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
