"""One fresh benchmark process: set up, run the closed loop, check.

    PYTHONPATH=src python benchmarks/worker.py --workload W --seed N \
        --seconds S --mode setup|run|trace

``setup`` times set-up only. ``run`` then runs the closed loop for S
seconds of op time. ``trace`` runs the loop untraced for S/2 seconds and
traced for S/2, writes the spans to .bench_work/spans-W.jsonl and adds the
per-layer metrics. Set-up and op times are reported as measured and also
scaled to the reference speed by the probe timed next to them (see
probe.py). Run from the root of a checkout; the last line of
standard output is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import probe
import spans
import workloads

WORK_DIR = ".bench_work"


def closed_loop(workload, items, seconds, tracer=None):
    """One client, ops back to back, until ``seconds`` of op time. Each
    op's check runs after its timer stops; a raised error or a failed
    check counts the op as failed. The probe runs before the first op and
    after every op, so op i lies between probes i and i + 1; ``scale``
    turns the two lists into op times at the reference speed."""
    durations, probes, failures, busy = [], [probe.median_of(1)], [], 0.0
    while busy < seconds:
        index = len(durations)
        item = items[index % len(items)]
        if tracer is not None:
            tracer.op = index
            root = tracer.begin(spans.OP)
        start = time.perf_counter()
        try:
            output, error = workload.op(item), None
        except Exception as exc:  # counted as a failed op; the loop goes on
            output, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.finish(root)
        probes.append(probe.timed())
        durations.append(elapsed)
        busy += elapsed
        if error is None:
            try:
                workload.check(item, output)
            except Exception as exc:
                error = exc
        if error is not None:
            failures.append(f"op {index}: {type(error).__name__}: {error}")
    return durations, probes, failures, busy


def scale(durations, probes, reach=2):
    """Each op time at the reference speed: scaled by the median of the
    ``2 * reach`` probes nearest to it, which follows the machine's speed
    over a few ops while one slow probe does not move it."""
    return [probe.to_reference(elapsed, statistics.median(
                probes[max(0, i + 1 - reach):i + 1 + reach]))
            for i, elapsed in enumerate(durations)]


def interpreter_ms(samples=5):
    """Median wall time of a bare ``python -c pass``: the start-up floor."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def traced_loop(workload, items, seconds):
    """The closed loop with spans. In-process workloads are traced here;
    the cli workload runs each command through cli_child.py and its spans
    are merged, one op per command."""
    counters, extra = {}, {}
    if isinstance(workload, workloads.Cli):
        os.makedirs(WORK_DIR, exist_ok=True)
        workload.child = (os.path.join(os.path.dirname(__file__),
                                       "cli_child.py"),
                          os.path.join(WORK_DIR, f"cli-{os.getpid()}.json"))
        durations, probes, failures, _ = closed_loop(workload, items, seconds)
        durations = scale(durations, probes)
        span_list = []
        counters = {"parse.bytes": 0, "bn.factor_product.entries": 0,
                    "bn.max_factor_scope": 0}
        for op, record in enumerate(workload.child_records):
            offset = len(span_list)
            span_list += [(name, start, end,
                           parent + offset if parent >= 0 else -1, op)
                          for name, start, end, parent, _ in record["spans"]]
            for key, value in record["counters"].items():
                counters[key] = (max(counters[key], value)
                                 if key == "bn.max_factor_scope"
                                 else counters[key] + value)
        n = max(len(workload.child_records), 1)
        extra = {
            "cli.import_ms": sum(r["import_ms"]
                                 for r in workload.child_records) / n,
            "cli.main_ms": sum(r["main_ms"]
                               for r in workload.child_records) / n,
            "cli.interpreter_ms": interpreter_ms()}
    else:
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            durations, probes, failures, _ = closed_loop(workload, items,
                                                         seconds, tracer)
            durations = scale(durations, probes)
        finally:
            restore()
        span_list, counters = tracer.spans(), tracer.counters
    return durations, failures, span_list, counters, extra


def layer_metrics(span_list, n_ops, counters, extra):
    """Every per-layer metric, as {name: (value, unit)}, plus the
    per-function table it came from."""
    table = spans.per_function(span_list, n_ops)
    metrics = {}
    for _, _, name in spans.TRACED:
        calls, self_ms, _ = table.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_ms, "ms")
    parse_s = table.get("formats.parse_architecture_document", (0, 0, 0.0))[2]
    metrics["formats.parse.kb_per_s"] = (
        counters["parse.bytes"] / 1e3 / parse_s if parse_s else 0.0, "kB/s")
    metrics["bn.factor_product.entries"] = (
        counters["bn.factor_product.entries"] / n_ops, "count")
    metrics["bn.max_factor_scope"] = (counters["bn.max_factor_scope"], "count")
    layers = dict.fromkeys(spans.LAYERS, 0.0)
    for name, (_, self_ms, _) in table.items():
        layer = name.split(".")[0]
        if layer in layers:
            layers[layer] += self_ms
    for layer, value in layers.items():
        metrics[f"layer.{layer}.self_ms"] = (value, "ms")
    for name in ("cli.interpreter_ms", "cli.import_ms", "cli.main_ms"):
        metrics[name] = (extra.get(name, 0.0), "ms")
    return metrics, table


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    items = workload.inputs()

    probes = [probe.median_of(3)]
    start = time.perf_counter()
    workload.load()
    for item in workload.warmup(items):
        workload.op(item)
    setup_s = time.perf_counter() - start
    probes.append(probe.median_of(3))
    result = {"setup_s": setup_s,
              "setup_scaled_s": probe.to_reference(setup_s,
                                                   statistics.mean(probes))}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    seconds = args.seconds if args.mode == "run" else args.seconds / 2
    durations, probes, failures, busy = closed_loop(workload, items, seconds)
    scaled = scale(durations, probes)
    rusage = (resource.RUSAGE_CHILDREN if isinstance(workload, workloads.Cli)
              else resource.RUSAGE_SELF)
    result.update(durations=durations, scaled=scaled, failures=failures,
                  busy_s=busy,
                  peak_rss_mb=resource.getrusage(rusage).ru_maxrss / 1024.0)

    if args.mode == "trace":
        t_durations, t_failures, span_list, counters, extra = traced_loop(
            workload, items, seconds)
        os.makedirs(WORK_DIR, exist_ok=True)
        spans.write(os.path.join(WORK_DIR, f"spans-{args.workload}.jsonl"),
                    span_list)
        metrics, table = layer_metrics(span_list, len(t_durations), counters,
                                       extra)
        metrics["trace.overhead_ratio"] = (
            statistics.median(t_durations) / statistics.median(scaled),
            "ratio")
        result.update(traced_durations=t_durations, traced_failures=t_failures,
                      layer_metrics=metrics,
                      functions={k: v[:2] for k, v in table.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
