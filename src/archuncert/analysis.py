"""Sensitivity sweeps, architecture comparison, crossing detection.

A sweep writes the same grid value t into one or more selected CPT rows of
a copy of the network's CPT map and reads off the high-state marginal of a
query variable. Grid values are computed as from + i*step with integer i
(never accumulated addition) and clamped to the range's end, so a [0,1]
sweep at step 0.01 hits exactly 101 points ending at 1.0. The query is
planned once per network (``bn.plan_ve``), with the swept variables as the
plan's varied ones, and run at every grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bn import BayesianNetwork, Cpt, HIGH, marginal_ve, plan_ve, row_keys
from .errors import ImpossibleEvidenceError, UsageError

ALL_ROWS = "all"  # row selector wildcard
MAX_INTERVALS = 100_000  # largest grid a sweep may ask for, less one point


@dataclass(frozen=True)
class SweepSpec:
    targets: tuple[tuple[str, str], ...]  # (variable id, row key or ALL_ROWS)
    query: str
    evidence: dict[str, str] = field(default_factory=dict)
    start: float = 0.0
    stop: float = 1.0
    step: float = 0.01

    def __post_init__(self):
        if not self.targets:
            raise UsageError("sweep needs at least one (variable, row) target")
        if not (0.0 <= self.start < self.stop <= 1.0):
            raise UsageError(
                f"sweep range must satisfy 0 <= from < to <= 1, "
                f"got [{self.start}, {self.stop}]")
        if not (math.isfinite(self.step) and self.step > 0):
            raise UsageError(
                f"step must be positive and finite, got {self.step!r}")
        intervals = (self.stop - self.start) / self.step
        if intervals > MAX_INTERVALS + 0.5:  # would round above the cap
            raise UsageError(
                f"step {self.step} makes {intervals:.3g} intervals over "
                f"[{self.start}, {self.stop}]; at most {MAX_INTERVALS} "
                f"are allowed")
        if round(intervals) < 1:
            raise UsageError(
                f"step {self.step} is wider than the range "
                f"[{self.start}, {self.stop}]")
        if abs(intervals - round(intervals)) > 1e-9:
            raise UsageError(
                f"step {self.step} does not divide the range "
                f"[{self.start}, {self.stop}] into whole intervals")

    @property
    def grid(self):
        n = round((self.stop - self.start) / self.step)
        return [min(self.start + i * self.step, self.stop)
                for i in range(n + 1)]


@dataclass(frozen=True)
class SweepResult:
    points: tuple[tuple[float, float], ...]  # (t, p_high), ascending t
    spec: SweepSpec
    network_name: str = ""


@dataclass(frozen=True)
class Crossing:
    t_low: float
    t_high: float
    estimate: float  # linear-interpolated crossing location
    direction: str   # "a_falls_below_b" | "a_rises_above_b"


@dataclass(frozen=True)
class ComparisonResult:
    sweep_a: SweepResult
    sweep_b: SweepResult
    crossings: tuple[Crossing, ...]

    @property
    def deltas(self):
        """p_a - p_b at each grid point."""
        return [pa - pb for (_, pa), (_, pb) in
                zip(self.sweep_a.points, self.sweep_b.points)]


def evaluate(net: BayesianNetwork, target: str,
             evidence: dict[str, str] | None = None) -> float:
    """P(target = H | evidence)."""
    return marginal_ve(net, target, evidence)[HIGH]


def _resolve_rows(net: BayesianNetwork, spec: SweepSpec):
    """Expand selectors to the row keys they select, grouped by variable."""
    resolved = {}
    for var, selector in spec.targets:
        cpt = net.cpts.get(var)
        if cpt is None:
            raise UsageError(f"sweep selector names unknown variable {var!r}")
        if selector == ALL_ROWS:
            keys = row_keys(cpt.parents)
        else:
            if selector not in cpt.rows:
                raise UsageError(
                    f"sweep selector {var}@{selector!r}: no such CPT row "
                    f"(rows: {row_keys(cpt.parents)})")
            keys = [selector]
        resolved.setdefault(var, []).extend(keys)
    return resolved


def _with_rows(cpts, rows, t: float):
    """The CPT map ``cpts`` with p_high = t in the ``rows`` selected."""
    cpts = dict(cpts)
    for var, keys in rows.items():
        old = cpts[var]
        cpts[var] = Cpt(old.variable, old.parents,
                        {**old.rows, **dict.fromkeys(keys, t)})
    return cpts


def sweep(net: BayesianNetwork, spec: SweepSpec,
          network_name: str = "") -> SweepResult:
    """Evaluate the query marginal along the grid; the input network is
    never mutated."""
    return _sweep_rows(net, _resolve_rows(net, spec), spec, network_name)


def _sweep_rows(net, rows, spec, network_name):
    # the grid lies in [0, 1], so each point's CPTs stay valid
    marginal = plan_ve(net, spec.query, spec.evidence, frozenset(rows))
    points = []
    for t in spec.grid:
        try:
            points.append((t, marginal(_with_rows(net.cpts, rows, t))[HIGH]))
        except ImpossibleEvidenceError as exc:
            raise ImpossibleEvidenceError(exc.evidence, t) from exc
    return SweepResult(tuple(points), spec, network_name)


def find_crossings(curve_a, curve_b) -> list[Crossing]:
    """Sign changes of (p_a - p_b) over a shared grid.

    A strict sign flip between consecutive points yields an interpolated
    crossing; an exact zero at a grid point counts only if the signs on
    either side differ (a tangential touch is not a crossing).
    """
    grid_a = [t for t, _ in curve_a]
    grid_b = [t for t, _ in curve_b]
    if grid_a != grid_b:
        raise UsageError("find_crossings: curves are on different grids")
    if any(b <= a for a, b in zip(grid_a, grid_a[1:])):
        raise UsageError("find_crossings: grid must be strictly increasing")

    deltas = [pa - pb for (_, pa), (_, pb) in zip(curve_a, curve_b)]
    nonzero = [i for i, d in enumerate(deltas) if d != 0.0]
    crossings = []
    for j, i in zip(nonzero, nonzero[1:]):
        dj, di = deltas[j], deltas[i]
        if (dj > 0) == (di > 0):
            continue
        t_low, t_high = grid_a[j], grid_a[i]
        if i == j + 1:
            estimate = t_low + (t_high - t_low) * dj / (dj - di)
        else:
            # the curve sits exactly on zero between j and i
            zero_run = grid_a[j + 1:i]
            estimate = sum(zero_run) / len(zero_run)
        direction = "a_falls_below_b" if dj > 0 else "a_rises_above_b"
        crossings.append(Crossing(t_low, t_high, estimate, direction))
    return crossings


def compare(net_a: BayesianNetwork, net_b: BayesianNetwork, spec: SweepSpec,
            name_a: str = "A", name_b: str = "B") -> ComparisonResult:
    """Sweep both networks on the same grid and locate where one overtakes
    the other."""
    named = ((net_a, name_a), (net_b, name_b))
    rows = []
    for net, name in named:
        try:
            rows.append(_resolve_rows(net, spec))
        except UsageError as exc:
            raise UsageError(f"network {name!r}: {exc}") from exc
    sweeps = []
    for (net, name), net_rows in zip(named, rows):
        try:
            sweeps.append(_sweep_rows(net, net_rows, spec, name))
        except ImpossibleEvidenceError as exc:
            raise ImpossibleEvidenceError(exc.evidence, exc.t, name) from exc
    sweep_a, sweep_b = sweeps
    crossings = find_crossings(sweep_a.points, sweep_b.points)
    return ComparisonResult(sweep_a, sweep_b, tuple(crossings))
