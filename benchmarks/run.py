"""archuncert benchmark: one workload, one seed, one line of JSON.

    python3 benchmarks/run.py --workload compare-small --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout (the program is imported from ./src).
Workloads: compare-small, eval-large, ingest, cli; see benchmarks/README.md
for what each measures and why. Every workload is a closed loop with one
client. With --trace 0 the result holds the end-to-end metrics: set-up is
timed in several fresh workers and reported as their median, and the
loop runs in one of them. Times are scaled to the reference speed by a
probe timed next to each op and each set-up (see probe.py); the times as
measured are printed above the result. With --trace 1 one worker runs the loop
untraced and traced for half the time each, and the result holds the
per-layer metrics. The last line of standard output is the JSON result;
the lines above it are for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

# Set-up is timed in fresh workers, half before the loop's worker and half
# after it, until about SETUP_SECONDS of set-up has been measured, within
# these counts: short set-ups are noisier, so they get more samples.
SETUP_SECONDS = 2.0
SETUP_SAMPLES = (3, 5)
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


def worker(args, mode, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, WORKER, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--mode", mode],
        env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        raise SystemExit(f"benchmark worker ({mode}) exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(durations):
    """The highest percentile with at least ten ops beyond it, as
    (value, percentile, ops); the slowest op when there are ten or fewer."""
    ordered = sorted(durations)
    index = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def end_to_end(setups, run):
    durations = run["scaled"]
    attempted, failed = len(durations), len(run["failures"])
    tail_s, percentile, n = tail(durations)
    print(f"op_tail_ms is p{percentile:.1f} of {n} ops "
          f"({n - round(percentile * n / 100)} ops beyond it)")
    print(f"fail_rate {failed / attempted!r} ({failed}/{attempted} ops)")
    wall = run["durations"]
    print(f"as measured: op_p50_ms {statistics.median(wall) * 1e3:.3f}, "
          f"op_tail_ms {tail(wall)[0] * 1e3:.3f}, "
          f"ops_per_s {attempted / run['busy_s']:.4f}, setup_s "
          f"{statistics.median(s['setup_s'] for s in setups):.4f}")
    return attempted, failed, {
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ops_per_s": (attempted / math.fsum(durations), "1/s"),
        "setup_s": (statistics.median(s["setup_scaled_s"] for s in setups),
                    "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(run):
    functions = sorted(run["functions"].items(), key=lambda kv: -kv[1][1])
    for name, (calls, self_ms) in functions[:8]:
        print(f"self time {self_ms:10.3f} ms/op {calls:10.1f} calls/op  {name}")
    metrics = run["layer_metrics"]
    layers = {k: v for k, (v, _) in metrics.items() if k.startswith("layer.")}
    # a cli command also pays for starting the interpreter and importing
    layers["cli start-up (interpreter + import)"] = (
        metrics["cli.interpreter_ms"][0] + metrics["cli.import_ms"][0])
    top = max(layers, key=layers.get)
    print(f"largest layer self time: {top} = {layers[top]:.3f} ms/op")
    attempted = len(run["durations"]) + len(run["traced_durations"])
    failed = len(run["failures"]) + len(run["traced_failures"])
    return attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compare-small", "eval-large", "ingest", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "archuncert", "__init__.py")):
        sys.exit("run from the root of an archuncert checkout: "
                 "src/archuncert is missing")

    loop_timeout = 3 * args.seconds + 60
    if args.trace:
        run = worker(args, "trace", loop_timeout)
        attempted, failed, metrics = per_layer(run)
    else:
        setups = [worker(args, "setup", 60)]
        low, high = SETUP_SAMPLES
        extra = min(max(math.ceil(SETUP_SECONDS / setups[0]["setup_s"]),
                        low), high)
        setups += [worker(args, "setup", 60) for _ in range(extra // 2 - 1)]
        run = worker(args, "run", loop_timeout)
        setups += [run] + [worker(args, "setup", 60)
                           for _ in range(extra - extra // 2)]
        attempted, failed, metrics = end_to_end(setups, run)
    for failure in (run["failures"] + run.get("traced_failures", []))[:5]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
