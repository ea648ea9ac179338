"""Benchmark of combinatoria: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload library|verify|cli|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from its
``src/``.  With ``--trace 0`` the last line of stdout is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced replay and the tracing overhead.  Every op's output is checked
against values the benchmark computes itself (reference.py).  The lines
before the last say what each metric is and where the run came from, and
the full result is also written under ``.perfbench_out/``.

README.md in this directory defines each workload and metric.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import cliops  # noqa: E402
from probe import Sampler  # noqa: E402
from tracer import LAYERS  # noqa: E402
from worker import normalize, repeat  # noqa: E402

clock = time.perf_counter

WORKLOADS = ("library", "verify", "cli")
VERIFY_MAX_N = 8
SETUP_SPAWNS = 15
IMPORT_SPAWNS = 9
# Process start-up and CLI requests are scaled by a reference start: a fresh
# interpreter importing the standard modules the package imports.  Raw
# set-up medians spread by a third from run to run on a shared machine;
# their ratio to the reference start, by 3%.  Set-up is timed by the wall
# clock until READY; a CLI request, like every other op, in the CPU seconds
# of its process, against the reference start's CPU seconds.
REFERENCE_START = ("import argparse, csv, dataclasses, enum, functools, io, itertools, "
                   "json, math, random, threading; print('READY', flush=True)")
REFERENCE_START_S = 0.06
REFERENCE_START_CPU_S = 0.08
TAIL_BEYOND = 10
WORKER_TIMEOUT = 170
REQUEST_TIMEOUT = 60

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "items_per_s": "item/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}

# (metric, unit, workloads on which the traced run must see it non-zero).
# A failure counter may fall to zero once the bug behind it is fixed, so the
# self-check looks at the calls of the same function instead.
PER_LAYER = [
    ("perm.Permutation.calls", "count", "library"),
    ("perm.Permutation.self_s", "s", "library"),
    ("perm.Cycle.calls", "count", "library"),
    ("perm.CycleType.calls", "count", "library"),
    ("perm.cycle_type.self_s", "s", "library"),
    ("perm.compose.self_s", "s", "library"),
    ("perm.inverse.self_s", "s", "library"),
    ("perm.format_cycles.self_s", "s", "library"),
    ("perm.parse_permutation.self_s", "s", "library"),
    ("caput.enumerate_caput.items", "count", "library"),
    ("caput.enumerate_caput.self_s", "s", "library"),
    ("caput.count_caput.self_s", "s", "cli"),
    ("caput.count_caput.failed", "count", "cli"),
    ("partitions.enumerate_partitions.items", "count", "library"),
    ("partitions.enumerate_partitions.self_s", "s", "library"),
    ("partitions.Partition.calls", "count", "library"),
    ("partitions.cycle_types_of.self_s", "s", "library"),
    ("partitions.class_order.self_s", "s", "library"),
    ("partitions.count_partitions.self_s", "s", "cli"),
    ("genealogy.coordinates.items", "count", "library verify"),
    ("genealogy.coordinates.self_s", "s", "library verify"),
    ("genealogy.TreeCoordinate.calls", "count", "library verify"),
    ("problems.solve.self_s", "s", "cli"),
    ("problems.solve.peak_kb", "KB", "cli"),
    ("problems.vicinity_classes.self_s", "s", "library"),
    ("oracle.count_caput_by_filter.calls", "count", "verify"),
    ("oracle.count_caput_by_filter.self_s", "s", "verify"),
    ("oracle.count_caput_by_filter.distinct_ratio", "1", "verify"),
    ("oracle.cycle_type_census.self_s", "s", "verify"),
    ("oracle.rotation_class_census.self_s", "s", "verify"),
    ("oracle.count_partitions_by_enumeration.self_s", "s", "verify"),
    ("oracle.count_derangements_by_filter.self_s", "s", "verify"),
    ("oracle.verify_all.self_s", "s", "verify"),
    ("cli.build_parser.self_s", "s", "cli"),
    ("cli.main.self_s", "s", "cli"),
    ("cli.render_json.self_s", "s", "cli"),
    ("cli.render_csv.self_s", "s", "cli"),
    ("cli.render_human.self_s", "s", "cli"),
    ("cli.main.failed_traceback", "count", "cli"),
    ("cli.main.failed_exit2", "count", "cli"),
    ("setup.import_s", "s", "library verify cli"),
    *[(f"setup.import_s.{m}", "s", "library verify cli") for m in LAYERS],
    ("trace.overhead_s", "s", ""),
    ("trace.overhead_ratio", "1", ""),
]
FAILURE_FIELDS = ("failed", "failed_traceback", "failed_exit2")


# -- processes ------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("COMBINATORIA_FORMAT", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args: list[str]) -> tuple[subprocess.Popen, tuple]:
    """Start a worker and wait for READY; returns it with its set-up span."""
    begun = clock()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    span = (begun, clock())
    if line.strip() != "READY":
        _, err = proc.communicate(timeout=WORKER_TIMEOUT)
        raise RuntimeError(f"worker {args[0]} did not start: {line!r} {err[-2000:]}")
    return proc, span


def finish_worker(proc: subprocess.Popen) -> dict | None:
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err[-2000:]}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def children_cpu() -> float:
    """CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def reference_start() -> tuple[float, float]:
    """Seconds until a fresh interpreter running REFERENCE_START is ready,
    and the CPU seconds it takes in all."""
    cpu = children_cpu()
    begun = clock()
    proc = subprocess.Popen([sys.executable, "-c", REFERENCE_START], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    proc.stdout.readline()
    took = clock() - begun
    proc.communicate(timeout=WORKER_TIMEOUT)
    return took, children_cpu() - cpu


def setup_times(args: list[str], count: int) -> list[tuple]:
    """(seconds at reference speed, raw seconds) of ``count`` worker starts."""
    sampler = Sampler(lambda: reference_start()[0], REFERENCE_START_S)
    spans = []
    for _ in range(count):
        sampler.sample()
        proc, span = start_worker(args)
        finish_worker(proc)
        spans.append(span)
    sampler.sample()
    return [((end - start) / sampler.slowdown(start, end), end - start) for start, end in spans]


# -- workloads ------------------------------------------------------------------
# Each returns a dict with "records" ([sweep, op, kind, CPU seconds at
# reference speed, items, status, raw CPU seconds] per op run), "setup"
# ((seconds at reference speed, raw seconds) per worker start), "failures",
# "inputs_sha256", "maxrss_kb", and in a traced run "traced_records" and
# "traces" (one export per traced process).

def run_library(seed, seconds, trace, small, mutate) -> dict:
    params = {"seed": seed, "seconds": seconds, "trace": trace, "small": small, "mutate": mutate}
    setup = setup_times(["library", json.dumps({**params, "setup_only": True})], 0 if trace else SETUP_SPAWNS)
    proc, _ = start_worker(["library", json.dumps(params)])
    result = finish_worker(proc)
    result["setup"] = setup
    result["traces"] = [result.pop("trace")] if trace else []
    return result


def run_verify(seed, seconds, trace, small, mutate) -> dict:
    params = {"max_n": 6 if small else VERIFY_MAX_N, "mutate": mutate}
    setup = setup_times(["verify", json.dumps({**params, "setup_only": True})], 0 if trace else SETUP_SPAWNS)
    run = {"records": [], "setup": setup, "failures": [], "maxrss_kb": 0,
           "traced_records": [], "traces": [],
           "inputs_sha256": hashlib.sha256(json.dumps(["verify_all", params["max_n"]]).encode()).hexdigest()}

    def sweep(rep: int, traced: bool = False) -> None:
        proc, _ = start_worker(["verify", json.dumps({**params, "trace": traced, "op": rep})])
        result = finish_worker(proc)
        records = [[rep] + result["records"][0][1:]]
        if traced:
            run["traced_records"] += records
            run["traces"].append(result["trace"])
            return
        run["maxrss_kb"] = max(run["maxrss_kb"], result["maxrss_kb"])
        run["records"] += records
        run["failures"] += result["failures"]

    reps = repeat(seconds / 2, sweep, 1) if trace else repeat(seconds, sweep, 2)
    for rep in range(reps if trace else 0):
        sweep(rep, traced=True)
    return run


def run_cli(seed, seconds, trace, small, mutate) -> dict:
    deck = cliops.Deck(seed, small=small)
    requests = deck.sweep()
    checker = cliops.Checker(deck.ref)
    setup = setup_times(["ready"], 0 if trace else SETUP_SPAWNS)
    sampler = Sampler(lambda: reference_start()[1], REFERENCE_START_CPU_S)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    run = {"records": [], "setup": setup, "failures": [], "maxrss_kb": 0,
           "traced_records": [], "traces": [],
           "inputs_sha256": hashlib.sha256(json.dumps([r["argv"] for r in requests]).encode()).hexdigest()}

    def request(req: dict, op: str, trace_out: str | None) -> tuple[tuple, float, int, str, str]:
        if trace_out or mutate:
            cmd = [sys.executable, str(WORKER), "cli", trace_out or "-", op, mutate or "-", *req["argv"]]
        else:
            cmd = [sys.executable, "-m", "combinatoria.cli", *req["argv"]]
        sampler.sample()
        cpu = children_cpu()
        begun = clock()
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=REQUEST_TIMEOUT)
        except subprocess.TimeoutExpired:
            return (begun, clock()), children_cpu() - cpu, -1, "", "timed out"
        return (begun, clock()), children_cpu() - cpu, done.returncode, done.stdout, done.stderr

    def sweep(rep: int, traced: bool = False) -> None:
        for i, req in enumerate(requests):
            trace_out = tmp / f"trace-{os.getpid()}-{rep}-{i}.json"
            span, cpu, code, out, err = request(req, f"{rep}.{i}", str(trace_out) if traced else None)
            status, message = checker.check(req, code, out, err)
            record = [rep, i, req["argv"][0], span, int(status == cliops.OK), status, cpu]
            if traced:
                run["traced_records"].append(record)
                if trace_out.exists():
                    run["traces"].append(json.loads(trace_out.read_text(encoding="utf-8")))
                    trace_out.unlink()
                continue
            run["records"].append(record)
            if status != cliops.OK:
                run["failures"].append(f"{' '.join(req['argv'])[:120]}: {message}")

    reps = repeat(seconds / 2, sweep, 1) if trace else repeat(seconds, sweep, 2)
    for rep in range(reps if trace else 0):
        sweep(rep, traced=True)
    sampler.sample()
    normalize(run["records"], sampler)
    normalize(run["traced_records"], sampler)
    return run


RUNNERS = {"library": run_library, "verify": run_verify, "cli": run_cli}


# -- metrics --------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its label."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} ops (fewer than {TAIL_BEYOND + 1})"
    return ordered[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) / n:.1f} of {n} ops, {TAIL_BEYOND} beyond"


def per_op(records: list) -> tuple[list[float], list[float], list[int], int]:
    """Each op's median CPU seconds over the sweeps (at reference speed, and raw),
    its items, and the number of sweeps."""
    seconds: dict[int, list] = {}
    raw: dict[int, list] = {}
    items: dict[int, int] = {}
    for _, op, _, norm, count, _, cpu in records:
        seconds.setdefault(op, []).append(norm)
        raw.setdefault(op, []).append(cpu)
        items[op] = max(items.get(op, 0), count)
    return ([statistics.median(v) for v in seconds.values()],
            [statistics.median(v) for v in raw.values()],
            list(items.values()), len({r[0] for r in records}))


def end_to_end(run: dict) -> tuple[dict, dict]:
    records = run["records"]
    op_s, op_raw, items, sweeps = per_op(records)
    sweep_s = sum(op_s)
    tail_s, tail_label = tail(op_s)
    ok = sum(r[5] == "ok" for r in records)
    peak_kb = max(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, run["maxrss_kb"])
    values = {
        "setup_s": statistics.median(norm for norm, _ in run["setup"]),
        "ops_per_s": len(op_s) / sweep_s,
        "items_per_s": sum(items) / sweep_s,
        "call_p50_ms": statistics.median(op_s) * 1e3,
        "call_tail_ms": tail_s * 1e3,
        "sweep_s": sweep_s,
        "peak_rss_mb": peak_kb / 1024,
        "ok_ratio": ok / len(records),
    }
    notes = {
        "setup_s": f"median of {len(run['setup'])} worker starts; raw "
                   f"{statistics.median(raw for _, raw in run['setup']):.4g} s",
        "sweep_s": f"{len(op_s)} ops, each its median of {sweeps} sweeps; raw {sum(op_raw):.4g} CPU s",
        "call_tail_ms": tail_label,
        "ok_ratio": f"failed_ratio = {1 - values['ok_ratio']:.4f} ({len(records) - ok} of {len(records)} op runs)",
    }
    return values, notes


def merge_traces(traces: list[dict]) -> dict:
    merged: dict[str, dict] = {}
    for trace in traces:
        for name, stat in trace["stats"].items():
            into = merged.setdefault(name, dict.fromkeys(stat, 0))
            for field, value in stat.items():
                into[field] = max(into[field], value) if field == "peak_kb" else into[field] + value
    return merged


def import_times(count: int = IMPORT_SPAWNS) -> dict[str, float]:
    """Median import seconds per module in a fresh interpreter (-X importtime)."""
    runs = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import combinatoria.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
        selfs, cumulative = {}, {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("combinatoria"):
                name = parts[2].strip()
                selfs[name] = int(parts[0].split(":")[1]) / 1e6
                cumulative[name] = int(parts[1]) / 1e6
        row = {"setup.import_s": cumulative["combinatoria"] + cumulative["combinatoria.cli"]}
        for module in LAYERS:
            row[f"setup.import_s.{module}"] = selfs[f"combinatoria.{module}"]
        runs.append(row)
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def layer_value(stats: dict, metric: str) -> float:
    key, field = metric.rsplit(".", 1)
    stat = stats.get(key, {})
    if field == "distinct_ratio":
        return stat["distinct"] / stat["calls"] if stat.get("calls") else 0.0
    if field == "failed_traceback":
        field = "failed"
    elif field == "failed_exit2":
        field = "exit2"
    return stat.get(field, 0)


def layer_values(stats: dict, sweeps: int = 1) -> dict[str, float]:
    """Layer metrics per sweep; ratios and peaks are not divided."""
    return {
        m: layer_value(stats, m) / (1 if m.endswith(("_ratio", "peak_kb")) else sweeps)
        for m, _, _ in PER_LAYER if not m.startswith(("setup.", "trace."))
    }


def self_check(workload: str, stats: dict, values: dict) -> list[str]:
    """Metrics that read zero on a workload that exercises them."""
    missing = []
    for metric, _, exercised in PER_LAYER:
        if workload not in exercised.split():
            continue
        key, field = metric.rsplit(".", 1)
        if field in FAILURE_FIELDS:
            seen = layer_value(stats, f"{key}.calls")
        else:
            seen = values.get(metric, 0)
        if not seen:
            missing.append(metric)
    return missing


def sweep_totals(records: list) -> list[float]:
    totals: dict[int, float] = {}
    for rep, _, _, seconds, _, _, _ in records:
        totals[rep] = totals.get(rep, 0.0) + seconds
    return list(totals.values())


def per_layer(workload: str, run: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced sweep, and those the self-check misses."""
    stats = merge_traces(run["traces"])
    sweeps = len(sweep_totals(run["traced_records"]))
    values = {**import_times(), **layer_values(stats, sweeps)}
    untraced = statistics.median(sweep_totals(run["records"]))
    traced = statistics.median(sweep_totals(run["traced_records"]))
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_ratio"] = traced / untraced - 1
    return values, self_check(workload, stats, values)


# -- provenance -------------------------------------------------------------------

def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "combinatoria").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, args, run: dict) -> dict:
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs_sha256": run["inputs_sha256"], "python": platform.python_version(),
        "implementation": platform.python_implementation(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "commit": commit(), "source_sha256": source_digest(),
    }


# -- main ---------------------------------------------------------------------------

def measure(workload: str, args, small: bool = False, mutate: str | None = None) -> dict:
    run = RUNNERS[workload](args.seed, args.seconds, bool(args.trace), small, mutate)
    records = run["records"] + run.get("traced_records", [])
    failed = sum(r[5] != "ok" for r in records)
    correct = not any(r[5] == "wrong" for r in records)
    if args.trace:
        metrics, missing = per_layer(workload, run)
        units = {m: u for m, u, _ in PER_LAYER}
        notes = {m: "self-check: zero on the workload that exercises it" for m in missing}
        correct = correct and not missing
    else:
        metrics, notes = end_to_end(run)
        units = END_TO_END
    return {
        "summary": {"correct": correct, "attempted": len(records), "failed": failed,
                    "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units}},
        "notes": notes, "failures": run["failures"], "provenance": provenance(workload, args, run),
        "spans": [s for t in run["traces"] for s in t["spans"]],
        "spans_dropped": sum(t["spans_dropped"] for t in run["traces"]),
    }


def report(workload: str, result: dict) -> None:
    summary = result["summary"]
    print(f"== {workload}: correct={summary['correct']} attempted={summary['attempted']} "
          f"failed={summary['failed']}")
    for name, metric in summary["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"{workload:8} {name:46} {metric['value']:>16.6g} {metric['unit']:7} {note}")
    if result["spans"] or result["spans_dropped"]:
        print(f"{workload:8} spans recorded {len(result['spans'])}, beyond the per-op cap {result['spans_dropped']}")
    for line in result["failures"][:5]:
        print(f"{workload:8} failed: {line}")
    print(f"{workload:8} provenance {json.dumps(result['provenance'], sort_keys=True)}")


def save(workload: str, args, result: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if spans:
        with open(OUT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            fh.write("# op, span, parent, name, start_s, end_s\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "combinatoria" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'combinatoria'}; run inside a checkout", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)
    compileall.compile_dir(str(SRC), quiet=1)

    if args.workload != "all":
        result = measure(args.workload, args)
        report(args.workload, result)
        save(args.workload, args, result)
        print(json.dumps(result["summary"]))
        return 0
    # One process per workload, so peak RSS of one is not read into another.
    summaries = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT * 3,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        summaries[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {f"{w}.{m}": v for w, s in summaries.items() for m, v in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
