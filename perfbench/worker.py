"""Worker processes of the benchmark; run.py starts them, one per job.

    worker.py ready                  import combinatoria.cli, say READY, exit
    worker.py library PARAMS_JSON    the library workload, in-process
    worker.py verify PARAMS_JSON     one timed verify_all sweep
    worker.py cli TRACE_OUT OP MUTATE ARGV...
                                     run combinatoria.cli.main(ARGV) as
                                     ``python -m combinatoria.cli`` would, with
                                     the tracer (TRACE_OUT != "-") and a
                                     mutation (MUTATE != "-") installed first

A worker prints READY once its imports and warm-up are done, so the parent
can time set-up, and ends with one JSON line on stdout (except ``cli``,
whose stdout is the CLI's own).  The probe is imported after READY, so
that it stays out of set-up time.
"""
from __future__ import annotations

import sys
import time

clock = time.perf_counter
cpu_clock = time.process_time


def repeat(budget: float, sweep, minimum: int) -> int:
    """Call sweep(0), sweep(1), ... at least ``minimum`` times, then while one
    more, as long as the last, fits the budget in seconds; returns the count."""
    begun = clock()
    reps = 0
    while True:
        started = clock()
        sweep(reps)
        reps += 1
        if reps >= minimum and clock() - begun + (clock() - started) > budget:
            return reps


def normalize(records: list, sampler) -> list:
    """Swap each record's wall-clock (start, end) for its CPU seconds at
    reference speed."""
    for record in records:
        start, end = record[3]
        record[3] = record[6] / sampler.slowdown(start, end)
    return records


def ready() -> None:
    print("READY", flush=True)


def mutate(name: str) -> None:
    """Break one closed form on purpose, in every namespace that binds it."""
    import dataclasses

    from combinatoria import caput, partitions
    from tracer import rebind

    if name == "count_caput":
        orig = caput.count_caput
        rebind(orig, lambda spec: orig(spec) + 1)
    elif name == "class_order":
        orig = partitions.class_order
        rebind(orig, lambda t: dataclasses.replace(orig(t), order=orig(t).order + 1))
    else:
        raise SystemExit(f"unknown mutation {name!r}")


def _tracer():
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    return tracer


def library(params: dict) -> dict | None:
    import hashlib
    import json

    from libops import ERROR, Deck, Library

    lib = Library()
    if params.get("mutate"):
        mutate(params["mutate"])
    for op in Deck.warmup():
        lib.call(op)
    ready()
    if params.get("setup_only"):
        return None
    from probe import Sampler

    deck = Deck(params["seed"], small=params.get("small", False)).sweep()
    budget, minimum = (params["seconds"] / 2, 1) if params.get("trace") else (params["seconds"], 2)
    sampler = Sampler()

    def run_sweep(rep: int, records: list, failures: list, tracer=None) -> None:
        for i, op in enumerate(deck):
            if tracer is not None:
                tracer.begin_op(f"{rep}.{i}")
            spent = sampler.spent
            start, cpu = clock(), cpu_clock()
            try:
                out = lib.call(op)
            except Exception as exc:  # a failed op is counted, never fatal
                end, cpu = clock(), cpu_clock() - cpu
                out, problem = None, (ERROR, f"{op['kind']} n={op['n']}: {exc!r}")
            else:
                end, cpu = clock(), cpu_clock() - cpu
                problem = lib.check(op, out)
            status = "ok"
            if problem is not None:
                status, message = problem if isinstance(problem, tuple) else ("wrong", problem)
                failures.append(message)
            raw = cpu - (sampler.spent - spent)
            records.append([rep, i, op["kind"], (start, end), 0 if out is None else len(out), status, raw])
            del out

    records: list = []
    failures: list = []
    traced: list = []
    with sampler:
        reps = repeat(budget, lambda rep: run_sweep(rep, records, failures), minimum)
        if params.get("trace"):
            tracer = _tracer()
            for rep in range(reps):
                run_sweep(rep, traced, [], tracer)
    inputs = json.dumps(deck, sort_keys=True)
    result = {"records": normalize(records, sampler), "failures": failures[:20],
              "inputs_sha256": hashlib.sha256(inputs.encode()).hexdigest()}
    if params.get("trace"):
        result["traced_records"] = normalize(traced, sampler)
        result["trace"] = tracer.export()
    return result


def verify(params: dict) -> dict | None:
    from combinatoria import oracle

    if params.get("mutate"):
        mutate(params["mutate"])
    ready()
    if params.get("setup_only"):
        return None
    from probe import Sampler
    tracer = _tracer() if params.get("trace") else None
    if tracer is not None:
        tracer.begin_op(params.get("op", 0))
    sampler = Sampler()
    with sampler:
        spent = sampler.spent
        start, cpu = clock(), cpu_clock()
        try:
            reports = oracle.verify_all(params["max_n"])
        except Exception as exc:  # a failed sweep is counted, never fatal
            reports, failures = None, [repr(exc)]
        end, cpu = clock(), cpu_clock() - cpu
        raw = cpu - (sampler.spent - spent)
    if reports is None:
        status, items = "error", 0
    else:
        failures = [f"{r.claim}: {r.counterexample}" for r in reports if not r.passed]
        if len(reports) < 9:
            failures.append(f"{len(reports)} reports, expected all nine")
        status, items = ("wrong" if failures else "ok"), len(reports)
    records = normalize([[0, 0, "verify_all", (start, end), items, status, raw]], sampler)
    result = {"records": records, "failures": failures}
    if tracer is not None:
        result["trace"] = tracer.export()
    return result


def cli(trace_out: str, op: str, mutation: str, argv: list[str]) -> int:
    import json
    import traceback

    import combinatoria.cli as cli_mod

    if mutation != "-":
        mutate(mutation)
    tracer = _tracer() if trace_out != "-" else None
    if tracer is not None:
        tracer.begin_op(op)
    try:
        code = cli_mod.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except BaseException:  # as the interpreter does: print the traceback, exit 1
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    if tracer is not None:
        if code == 2:
            tracer.stat("cli.main").exit2 += 1
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "ready":
        import combinatoria.cli  # noqa: F401

        ready()
        return 0
    if mode == "cli":
        return cli(argv[1], argv[2], argv[3], argv[4:])
    import json

    params = json.loads(argv[1])
    result = {"library": library, "verify": verify}[mode](params)
    if result is not None:
        import resource

        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
