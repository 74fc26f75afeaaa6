"""Architectural pattern transforms.

Currently one pattern: redundant-implementation voting (n-version
programming) around a single ML component, backed by a monitor sensor.
The voter's CPT is the unique two-parent table whose marginal is exactly
the weighted average w * P(monitor=H) + (1 - w) * P(target=H) for any
upstream network.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arch import AnnotatedArchitecture, Component, validate_architecture
from .bn import Cpt, HIGH, LOW, row_key
from .errors import InvalidArchitectureError, UsageError


@dataclass(frozen=True)
class NVersionSpec:
    target: str
    monitor_id: str
    monitor_p_high: float
    weight: float  # monitor's vote share
    monitor_label: str = ""
    voter_id: str | None = None  # default: "voter_<target>"

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise UsageError(f"weight must be in [0,1], got {self.weight!r}")
        if not 0.0 <= self.monitor_p_high <= 1.0:
            raise UsageError(
                f"monitor p_high must be in [0,1], got {self.monitor_p_high!r}")


def voter_cpt_rows(weight: float) -> dict[str, float]:
    """P(voter=H | target=t, monitor=m) = w*[m=H] + (1-w)*[t=H]."""
    rows = {}
    for t in (LOW, HIGH):
        for m in (LOW, HIGH):
            value = weight * (m == HIGH) + (1.0 - weight) * (t == HIGH)
            rows[row_key((t, m))] = value
    return rows


def apply_n_version(arch: AnnotatedArchitecture,
                    spec: NVersionSpec) -> AnnotatedArchitecture:
    """Insert a monitor and a voter around the target component.

    The voter intercepts every outgoing edge of the target; the input
    architecture is left unmodified.
    """
    validate_architecture(arch).raise_unless_ok(InvalidArchitectureError)

    target = arch.component(spec.target)  # UsageError on unknown id
    if target.kind != "ml":
        raise UsageError(
            f"n-version target {spec.target!r} has kind {target.kind!r}, "
            "expected an ml component")

    voters = {c.id for c in arch.components if c.kind == "voter"}
    for src, dst in arch.edges:
        if src == spec.target and dst in voters:
            raise UsageError(
                f"component {spec.target!r} already feeds voter {dst!r}: "
                "pattern applied twice")

    voter_id = spec.voter_id or f"voter_{spec.target}"
    if spec.monitor_id == voter_id:
        raise UsageError(f"monitor and voter need distinct ids, both are "
                         f"{voter_id!r}")
    existing = {c.id for c in arch.components} | {a.id for a in arch.annotations}
    for new_id in (spec.monitor_id, voter_id):
        if new_id in existing:
            raise UsageError(f"id {new_id!r} already exists in the architecture")

    monitor = Component(spec.monitor_id, "sensor", spec.monitor_label)
    voter = Component(voter_id, "voter", f"vote: {spec.target} vs {spec.monitor_id}")

    # rewire target->X to voter->X in place, then hook up the vote inputs
    edges = []
    rewired = []
    for src, dst in arch.edges:
        if src == spec.target:
            edges.append((voter_id, dst))
            rewired.append(dst)
        else:
            edges.append((src, dst))
    edges.append((spec.target, voter_id))
    edges.append((spec.monitor_id, voter_id))

    cpts = dict(arch.cpts)
    cpts[spec.monitor_id] = Cpt(spec.monitor_id, (),
                                {"": spec.monitor_p_high})
    cpts[voter_id] = Cpt(voter_id, (spec.target, spec.monitor_id),
                         voter_cpt_rows(spec.weight))
    # downstream CPTs keep their rows; only the parent id changes position-wise
    for dst in rewired:
        old = cpts[dst]
        parents = tuple(voter_id if p == spec.target else p for p in old.parents)
        cpts[dst] = Cpt(old.variable, parents, dict(old.rows))

    return AnnotatedArchitecture(
        name=arch.name,
        components=arch.components + (monitor, voter),
        edges=tuple(edges),
        annotations=arch.annotations,
        cpts=cpts,
    )
