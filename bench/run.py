"""Benchmark for the actualcause package.

    python3 bench/run.py --workload golden --seed 1 --seconds 18 --trace 0

Runs one workload in this process with one client in a closed loop: each
operation starts when the previous one has returned.  ``--trace 0`` times the
workload untraced and prints the end-to-end metrics; ``--trace 1`` runs it
untraced and then traced over the same passes, and prints per-layer metrics
read from call spans around the package's public functions, with the
tracing overhead.  Every operation's output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
# After each pass the set-up is repeated until it has taken this share of the
# pass's time (at least once), so set-ups sample the whole run.
SETUP_SHARE = 0.02
# The machine's speed drifts by up to 1.6x between runs.  A fixed reference
# computation, independent of the package, is timed between operations for
# this share of their time; end-to-end times are scaled to the speed at which
# it takes REFERENCE_NOMINAL_S (about its median when run alone on a 2-core
# Python 3.11.7 machine).
CALIBRATION_SHARE = 0.05
REFERENCE_NOMINAL_S = 0.0044


def _step(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def reference_work() -> int:
    """Four kinds of plain Python, each about a quarter of the time: a dict
    of tuple keys built and read back, a loop of function calls, short-lived
    tuples, strings and frozensets, and sorted keys looked up in a growing
    cache.  Their mix follows the machine's speed more closely than any one
    of them.  The collector is paused so that it does not scan the run's own
    objects."""
    gc.disable()
    try:
        table = {}
        for i in range(1700):
            table[(("a", i & 1), ("b", i & 3), ("c", i))] = i
        total = sum(table[key] for key in table)
        for i in range(8000):
            total = _step(total, i)
        made = [(i, str(i & 255), frozenset((i & 7, i & 3)))
                for i in range(1000)]
        env = {f"V{i}": i & 1 for i in range(8)}
        cache: dict = {}
        for i in range(360):
            key = tuple(sorted((k, (v + i) & 1) for k, v in env.items()))
            cache.setdefault(key, any(v for _, v in key))
        return total + len(made) + len(cache)
    finally:
        gc.enable()


END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "queries_per_s": "1/s",
    "query_ms.p50": "ms",
    "query_ms.tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "model.solve.calls": "count",
    "model.solve.us_per_call": "us",
    "cause.solves_per_setting": "ratio",
    "cause.settings_examined": "count",
    "cause.partitions_examined": "count",
    "cause.settings_growth": "ratio",
    "cause.is_actual_cause.ms": "ms",
    "cause.ac3.ms": "ms",
    "cause.enumerate_causes.ms": "ms",
    "cause.enumerate_witnesses.ms": "ms",
    "cause.active_processes.ms": "ms",
    "cause.contrastive_cause.ms": "ms",
    "formula.eval_event.calls": "count",
    "formula.eval_event.ms": "ms",
    "formula.eval_formula.ms": "ms",
    "dsl.parse_model.ms": "ms",
    "dsl.build_document.self_ms": "ms",
    "model.build_model.ms": "ms",
    "corpus.load_example.ms": "ms",
    "dsl.parse_query.ms": "ms",
    "queries.run_query.self_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.ms": "ms",
    "oracle.ms": "ms",
    "oracle.solve.calls": "count",
    "trace.overhead_pct": "%",
}

# (span label, defining module, attribute, recursive through its own name)
TARGETS = (
    ("model.solve", "actualcause.model", "solve", False),
    ("model.build_model", "actualcause.model", "build_model", False),
    ("formula.eval_event", "actualcause.formula", "eval_event", True),
    ("formula.eval_formula", "actualcause.formula", "eval_formula", True),
    ("dsl.parse_model", "actualcause.dsl", "parse_model", False),
    ("dsl.build_document", "actualcause.dsl", "build_document", False),
    ("dsl.parse_query", "actualcause.dsl", "parse_query", False),
    ("cause.is_actual_cause", "actualcause.cause", "is_actual_cause", False),
    ("cause.enumerate_causes", "actualcause.cause", "enumerate_causes", False),
    ("cause.enumerate_witnesses", "actualcause.cause", "enumerate_witnesses",
     False),
    ("cause.active_processes", "actualcause.cause", "active_processes", False),
    ("cause.contrastive_cause", "actualcause.cause", "contrastive_cause", False),
    ("queries.run_query", "actualcause.queries", "run_query", False),
    ("corpus.load_example", "actualcause.corpus", "load_example", False),
    ("cli.main", "actualcause.cli", "main", False),
    ("oracle", "actualcause.oracle", "actual_cause_bruteforce", False),
)
VERDICT_SPANS = {"cause.is_actual_cause", "cause.contrastive_cause"}
AC3_QUERY_CAP = 5000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced input sizes (the benchmark's own tests)")
    parser.add_argument("--print-reference", action="store_true",
                        help="print the reference digests and exit")
    return parser.parse_args(argv)


class Loop:
    """Closed-loop timing: one latency per operation, one time per pass.
    With ``calibrate``, the reference computation runs between operations
    for CALIBRATION_SHARE of their time, so its samples follow the machine's
    speed through the run; its time is left out of latencies and passes."""

    def __init__(self, calibrate: bool = False):
        self.keys: list = []
        self.latencies: list[float] = []
        self.pass_s: list[float] = []
        self.records: list[list] = []
        self.calibrate = calibrate
        self.references: list[float] = []
        self.owed = 0.0

    def timed(self, key, fn, *args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        self.latencies.append(time.perf_counter() - started)
        self.keys.append(key)
        if self.calibrate:
            self.owed += CALIBRATION_SHARE * self.latencies[-1]
            while self.owed > 0:
                t0 = time.perf_counter()
                reference_work()
                self.references.append(time.perf_counter() - t0)
                self.owed -= self.references[-1]
        return result


def run_passes(wl, seconds: float, max_passes: int | None = None,
               between=None, calibrate: bool = False) -> Loop:
    """Whole passes until they have taken ``seconds`` (at least one pass).
    ``between(pass_time)`` runs after each pass, outside the timed passes."""
    loop = Loop(calibrate)
    while not loop.pass_s or (sum(loop.pass_s) < seconds and (
            max_passes is None or len(loop.pass_s) < max_passes)):
        t0, calibrated = time.perf_counter(), sum(loop.references)
        loop.records.append(wl.run_pass(len(loop.pass_s), loop.timed))
        loop.pass_s.append(time.perf_counter() - t0
                           - (sum(loop.references) - calibrated))
        if between is not None:
            between(loop.pass_s[-1])
    return loop


def reference_check(wm, name: str) -> tuple[int, int, str]:
    """Replay the reduced inputs of the reference seed; their digest must
    equal the pinned one.  Returns (attempted, failed, digest)."""
    pinned = json.loads(REFERENCE.read_text())
    wl = wm.WORKLOADS[name](pinned["seed"], small=True, src=str(SRC))
    wl.setup()
    loop = run_passes(wl, 0.0)
    got = wm.digest(loop.records[0])
    failed = wl.check(loop.records)
    if got != pinned["digests"].get(name):
        failed += len(loop.latencies)
    return len(loop.latencies), failed, got


def beyond(values, pct: int) -> list[float]:
    """The samples beyond the pct-th percentile (at least one)."""
    count = max(1, round(len(values) * (100 - pct) / 100))
    return sorted(values)[-count:]


def repeat_for(fn, budget: float, samples: list[float]) -> None:
    """Run ``fn`` until it has taken ``budget`` seconds (at least once)."""
    spent = 0.0
    while not spent or spent < budget:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
        spent += samples[-1]


def end_to_end(wm, wl, seconds: float) -> tuple[int, int, dict]:
    setups = []

    def between(pass_time: float) -> None:
        repeat_for(wl.setup, SETUP_SHARE * pass_time, setups)

    wl.setup()
    loop = run_passes(wl, seconds, between=between, calibrate=True)
    # Read before the checks, whose oracle calls are not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0 = time.perf_counter()
    failed = wl.check(loop.records)
    check_s = time.perf_counter() - t0
    slowdown = statistics.mean(loop.references) / REFERENCE_NOMINAL_S
    ms = [x * 1000.0 / slowdown for x in loop.latencies]
    tail = beyond(ms, wl.tail_pct)
    per_op: dict = {}
    for key, x in zip(loop.keys, ms):
        per_op.setdefault(key, []).append(x)
    passes = statistics.mean(loop.pass_s)
    metrics = {
        "setup_s": statistics.mean(setups) / slowdown,
        "pass_s": passes / slowdown,
        "queries_per_s": len(ms) / sum(loop.pass_s) * slowdown,
        "query_ms.p50": statistics.median(statistics.mean(v)
                                          for v in per_op.values()),
        "query_ms.tail": statistics.mean(tail),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"passes {len(loop.pass_s)}  operations {len(ms)}  tail: mean of the "
          f"{len(tail)} beyond p{wl.tail_pct}  set-ups {len(setups)}  "
          f"slowdown {slowdown:.3f}  unscaled pass_s {passes:.4f}  timed "
          f"{sum(loop.pass_s):.2f}s  checked {check_s:.2f}s  first-pass digest "
          f"{wm.digest(loop.records[0])}")
    return len(ms), failed, metrics


def _install(tracer, spans, wm, hooks):
    targets = [(label, importlib.import_module(mod), attr, rec, hooks.get(label))
               for label, mod, attr, rec in TARGETS]
    tracer.install(targets, spans.package_modules([wm]))


def _verdict_hook(record_queries: bool):
    def hook(tracer, idx, args, kwargs, verdict):
        phase = tracer.phases[tracer.phase]
        stats = tracer.extra.setdefault(("stats", phase), [0, 0])
        stats[0] += verdict.stats.partitions_examined
        stats[1] += verdict.stats.settings_examined
        query = args[0] if args else kwargs["query"]
        model = getattr(query.model, "base", query.model)
        by_n = tracer.extra.setdefault(("by_n", phase), {})
        size = by_n.setdefault(len(model.endogenous), [0, 0])
        size[0] += verdict.stats.settings_examined
        size[1] += 1
        queries = tracer.extra.setdefault("queries", [])
        if record_queries and phase == "passes" and len(queries) < AC3_QUERY_CAP:
            queries.append(query)
    return hook


def ac3_replay(queries, budget: float) -> float | None:
    """Mean of is_actual_cause minus is_weak_cause time (ms) on the same
    queries, untraced, alternating which of the two runs first."""
    from actualcause import is_actual_cause, is_weak_cause
    diffs = []
    started = time.perf_counter()
    for i, query in enumerate(queries):
        pair = (is_actual_cause, is_weak_cause)
        times = {}
        for fn in (pair if i % 2 == 0 else pair[::-1]):
            t0 = time.perf_counter()
            fn(query)
            times[fn] = time.perf_counter() - t0
        diffs.append(times[is_actual_cause] - times[is_weak_cause])
        if time.perf_counter() - started > budget:
            break
    return statistics.mean(diffs) * 1000.0 if diffs else None


def layer_metrics(tracer, n_passes: int, ac3_ms, import_ms, overhead) -> dict:
    """Per-layer readings from the workload's own phases; a layer the
    workload never calls is read from the layer probe instead."""
    agg = {ph: {} for ph in ("setup", "passes", "check", "probe")}
    agg.update(tracer.aggregate())

    def reading(phase, fn):
        value = fn(phase, n_passes)
        if value is None:
            value = fn("probe", 1)
        return 0.0 if value is None else value

    def per_call(label, phase, attr="ms"):
        return reading(phase, lambda ph, n: getattr(agg[ph][label], attr)()
                       if label in agg[ph] else None)

    def per_pass(label, phase):
        return reading(phase, lambda ph, n: agg[ph][label].calls / n
                       if label in agg[ph] else None)

    def stats(i):
        def fn(ph, n):
            s = tracer.extra.get(("stats", ph))
            return s[i] / n if s and s[1] else None
        return reading("passes", fn)

    def solves_per_setting(ph, _n):
        s = tracer.extra.get(("stats", ph))
        if not s or not s[1]:
            return None
        return tracer.count_children("model.solve", VERDICT_SPANS, ph) / s[1]

    def growth(ph, _n):
        by_n = tracer.extra.get(("by_n", ph), {})
        if len(by_n) < 2:
            return None
        big, next_big = sorted(by_n)[-1], sorted(by_n)[-2]
        mean = {n: by_n[n][0] / by_n[n][1] for n in (big, next_big)}
        return mean[big] / mean[next_big] if mean[next_big] else None

    def oracle_solves(ph, _n):
        if "oracle" not in agg[ph]:
            return None
        return (tracer.count_children("model.solve", {"oracle"}, ph)
                / agg[ph]["oracle"].calls)

    return {
        "model.solve.calls": per_pass("model.solve", "passes"),
        "model.solve.us_per_call": per_call("model.solve", "passes") * 1000.0,
        "cause.solves_per_setting": reading("passes", solves_per_setting),
        "cause.settings_examined": stats(1),
        "cause.partitions_examined": stats(0),
        "cause.settings_growth": reading("passes", growth),
        "cause.is_actual_cause.ms": per_call("cause.is_actual_cause", "passes"),
        "cause.ac3.ms": ac3_ms if ac3_ms is not None else 0.0,
        "cause.enumerate_causes.ms": per_call("cause.enumerate_causes", "passes"),
        "cause.enumerate_witnesses.ms": per_call("cause.enumerate_witnesses",
                                                 "passes"),
        "cause.active_processes.ms": per_call("cause.active_processes", "passes"),
        "cause.contrastive_cause.ms": per_call("cause.contrastive_cause",
                                               "passes"),
        "formula.eval_event.calls": per_pass("formula.eval_event", "passes"),
        "formula.eval_event.ms": per_call("formula.eval_event", "passes"),
        "formula.eval_formula.ms": per_call("formula.eval_formula", "passes"),
        "dsl.parse_model.ms": per_call("dsl.parse_model", "setup"),
        "dsl.build_document.self_ms": per_call("dsl.build_document", "setup",
                                               "self_ms"),
        "model.build_model.ms": per_call("model.build_model", "setup"),
        "corpus.load_example.ms": per_call("corpus.load_example", "setup"),
        "dsl.parse_query.ms": per_call("dsl.parse_query", "passes"),
        "queries.run_query.self_ms": per_call("queries.run_query", "passes",
                                              "self_ms"),
        "cli.import_ms": import_ms,
        "cli.main.ms": per_call("cli.main", "passes"),
        "oracle.ms": per_call("oracle", "check"),
        "oracle.solve.calls": reading("check", oracle_solves),
        "trace.overhead_pct": overhead,
    }


def traced(wm, wl, seconds: float, name: str, seed: int) -> tuple[int, int, dict]:
    spans = importlib.import_module("spans")
    wl.setup()
    if hasattr(wl, "in_process"):
        wl.in_process = True
    plain = run_passes(wl, seconds / 2, wl.trace_passes)
    tracer = spans.Tracer()
    hooks = {"cause.is_actual_cause": _verdict_hook(True),
             "cause.contrastive_cause": _verdict_hook(False)}
    _install(tracer, spans, wm, hooks)
    try:
        tracer.set_phase("setup")
        wl.setup()
        tracer.set_phase("passes")
        loop = run_passes(wl, float("inf"), len(plain.records))
        tracer.set_phase("check")
        failed = wl.check(plain.records + loop.records)
    finally:
        tracer.uninstall()
    ac3_ms = ac3_replay(tracer.extra.get("queries", []), seconds / 4)
    _install(tracer, spans, wm, hooks)
    try:
        tracer.set_phase("probe")
        wm.layer_probe(str(SRC))
    finally:
        tracer.uninstall()
    overhead = 100.0 * (sum(loop.pass_s) / sum(plain.pass_s) - 1.0)
    metrics = layer_metrics(tracer, len(loop.records), ac3_ms,
                            wm.import_probe(str(SRC)), overhead)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{name}-{seed}.csv.gz")
    print(f"traced passes {len(loop.records)}  spans {len(tracer)}  "
          f"written to {out.name}/spans-{name}-{seed}.csv.gz")
    attempted = len(plain.latencies) + len(loop.latencies)
    return attempted, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "actualcause" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    wm = importlib.import_module("workloads")
    if args.print_reference:
        seed = json.loads(REFERENCE.read_text())["seed"]
        print(json.dumps({"seed": seed, "digests": {
            name: reference_check(wm, name)[2] for name in wm.WORKLOADS}},
            indent=2))
        return 0
    if args.workload not in wm.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wm.WORKLOADS)}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  python {platform.python_version()}  "
          f"nproc {os.cpu_count()}")
    wl = wm.WORKLOADS[args.workload](args.seed, small=args.small, src=str(SRC))
    if args.trace:
        attempted, failed, metrics = traced(wm, wl, args.seconds,
                                            args.workload, args.seed)
        units = PER_LAYER
    else:
        attempted, failed, metrics = end_to_end(wm, wl, args.seconds)
        units = END_TO_END
    for line in wl.notes():
        print(line)
    ref_attempted, ref_failed, ref_digest = reference_check(wm, args.workload)
    print(f"reference digest {ref_digest}  failed {ref_failed}")
    attempted += ref_attempted
    failed += ref_failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
