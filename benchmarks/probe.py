"""A fixed pure-Python computation that measures how fast the machine runs
Python right now, so op times can be reported at a reference speed.

The machine the benchmark runs on is a share of a host: the speed at which
it runs the same Python code changes by up to 2x within seconds and drifts
over minutes. Timing this probe next to each op and scaling the op by
``(REFERENCE_S / probe time) ** EXPONENT`` takes most of that out;
benchmarks/README.md gives how much, per workload.

The probe is the kind of work archuncert does (small dict-based factors
with tuple keys, products and marginals, float arithmetic, string joins,
many small records allocated and dropped) and runs no archuncert code, so
no change to the program changes it. It runs with the cyclic garbage
collector off, so that neither the size of the program's heap nor its
collector settings change its time.
"""

from __future__ import annotations

import gc
import statistics
import time

# The probe's time at the reference speed. Scaled times are in ms or s "at
# the reference speed": the time the op would take on a machine on which
# ``timed()`` returns this. Fixed, so that any two runs can be compared.
REFERENCE_S = 0.0135
# How strongly op times follow probe times. The host slows the probe more
# than it slows archuncert's ops: across runs of the same code, op time
# went as probe time to a power of 0.7-0.8 on every workload, in a calm and
# in a busy stretch alike, so scaling by the full ratio over-corrects.
EXPONENT = 0.75


def to_reference(seconds, probe_s):
    """A time measured while the probe took ``probe_s``, at the reference
    speed."""
    return seconds * (REFERENCE_S / probe_s) ** EXPONENT


def _product(f, g):
    out = {}
    for ka, va in f.items():
        for kb, vb in g.items():
            if ka[-1] == kb[0]:
                out[ka + kb[1:]] = va * vb
    return out


def _marginal(f):
    out = {}
    for key, value in f.items():
        ends = (key[0], key[-1])
        out[ends] = out.get(ends, 0.0) + value
    return out


def _records(n):
    out = []
    for i in range(n):
        out.append({"id": f"c{i}", "kind": ("ml", "classical")[i & 1],
                    "rows": [i * 0.5, (i, "L")]})
    return len(out) + sum(len(d["id"]) for d in out)


def work():
    """Factor products and marginals on a 16-entry table, then five rounds
    of 2,000 small records built and dropped: interpretive work on a small
    working set, and allocation. A round holds under 1 MB, which the
    program's own freed memory absorbs, so the probe does not raise the
    worker's peak RSS."""
    base = {(a, b): 0.1 + 0.2 * a + 0.3 * b for a in range(4) for b in range(4)}
    acc = 0.0
    for _ in range(30):
        f = base
        for _ in range(6):
            f = _marginal(_product(f, base))
        acc += sum(f.values()) + len(",".join(str(k) for k in f))
    return acc + sum(_records(2_000) for _ in range(5))


def timed():
    """Seconds one run of ``work`` takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def median_of(n):
    """The median of ``n`` probe times, after one untimed run that lets the
    interpreter specialise the probe's code."""
    work()
    return statistics.median(timed() for _ in range(n))
