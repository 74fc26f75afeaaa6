"""Architecture model: components, data-flow edges, uncertainty annotations.

An annotated architecture is the user-facing artifact. It compiles into a
Bayesian network (``to_network``) for quantitative queries, and supports
qualitative change-impact analysis over the data-flow graph.

Parent-order convention (CPT row keys depend on it, so it is fixed):
a component variable's parents are its uncertainty annotations in
declaration order, followed by its data-flow predecessors in edge
declaration order. Sensor components without a CPT (e.g. a camera feed)
are pure inputs and are excluded from the compiled network; a sensor
*with* a CPT is a monitor and becomes a root variable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .bn import (BayesianNetwork, Cpt, Finding, ValidationReport, Variable,
                 _duplicate_ids, _find_cycle, check_cpts)
from .errors import InvalidArchitectureError, UsageError

COMPONENT_KINDS = ("ml", "classical", "sensor", "voter")
ANNOTATION_KINDS = ("epistemic", "stochastic")


@dataclass(frozen=True)
class Component:
    id: str
    kind: str
    label: str = ""


@dataclass(frozen=True)
class UncertaintyAnnotation:
    id: str
    kind: str  # epistemic | stochastic
    attaches_to: tuple[str, ...]


@dataclass(frozen=True)
class AnnotatedArchitecture:
    name: str
    components: tuple[Component, ...]
    edges: tuple[tuple[str, str], ...]
    annotations: tuple[UncertaintyAnnotation, ...]
    cpts: dict[str, Cpt]

    def component(self, comp_id):
        for c in self.components:
            if c.id == comp_id:
                return c
        raise UsageError(f"unknown component: {comp_id!r}")


def _is_input_sensor(arch, component):
    return component.kind == "sensor" and component.id not in arch.cpts


def _parent_lists(arch):
    """Expected parent lists in one pass over the annotations and one over
    the edges, keyed by every id they point at, component or not."""
    input_ids = {c.id for c in arch.components if _is_input_sensor(arch, c)}
    parents = {}
    for a in arch.annotations:
        for comp_id in dict.fromkeys(a.attaches_to):
            parents.setdefault(comp_id, []).append(a.id)
    for src, dst in arch.edges:
        if src not in input_ids:
            parents.setdefault(dst, []).append(src)
    return parents


def validate_architecture(arch: AnnotatedArchitecture) -> ValidationReport:
    report = ValidationReport()
    if not arch.components:
        report.findings.append(
            Finding("no components", detail="architecture has no components"))

    report.findings.extend(_duplicate_ids(
        item.id for item in [*arch.components, *arch.annotations]))

    by_id = {}
    for c in arch.components:
        by_id.setdefault(c.id, c)  # the first of duplicates, as declared
    for c in arch.components:
        if c.kind not in COMPONENT_KINDS:
            report.findings.append(
                Finding("bad component kind", c.id, f"kind {c.kind!r}"))

    for src, dst in arch.edges:
        for end in (src, dst):
            if end not in by_id:
                report.findings.append(
                    Finding("dangling edge", end,
                            f"edge {src!r}->{dst!r} references a missing component"))

    cycle = _find_cycle(_successors(arch))
    if cycle is not None:
        report.findings.append(cycle)

    for a in arch.annotations:
        if a.kind not in ANNOTATION_KINDS:
            report.findings.append(
                Finding("bad annotation kind", a.id, f"kind {a.kind!r}"))
        if not a.attaches_to:
            report.findings.append(
                Finding("unattached annotation", a.id,
                        "annotation attaches to no component"))
        if a.kind == "stochastic" and len(a.attaches_to) != 1:
            report.findings.append(
                Finding("bad attachment", a.id,
                        "stochastic annotations attach to exactly one component"))
        for cid in a.attaches_to:
            comp = by_id.get(cid)
            if comp is None:
                report.findings.append(
                    Finding("dangling attachment", a.id,
                            f"attached component {cid!r} does not exist"))
            elif comp.kind != "ml":
                report.findings.append(
                    Finding("bad attachment", a.id,
                            f"attached component {cid!r} has kind {comp.kind!r}, "
                            "annotations attach to ml components"))

    if cycle is not None:
        return report  # parent lists are ill-defined on a cyclic graph

    report.findings.extend(check_cpts(_network_variables(arch), arch.cpts))
    return report


def _variable_kind(component):
    if component.kind == "sensor":
        return "monitor"
    if component.kind == "voter":
        return "voter"
    return "component"


def _network_variables(arch):
    """The compiled network's variables: one per annotation (roots), then
    one per non-input component, both in declaration order."""
    variables = [Variable(a.id, a.kind, ()) for a in arch.annotations]
    parent_lists = _parent_lists(arch)
    for c in arch.components:
        if _is_input_sensor(arch, c):
            continue
        parents = (() if c.kind == "sensor"
                   else tuple(parent_lists.get(c.id, ())))
        variables.append(Variable(c.id, _variable_kind(c), parents))
    return variables


def to_network(arch: AnnotatedArchitecture) -> BayesianNetwork:
    """Compile an architecture into a Bayesian network.

    One variable per annotation (roots) and per non-input component;
    deterministic: variable order is annotations then components, both in
    declaration order. Architecture validation covers every check
    ``validate_network`` makes, so the network is not validated again.
    """
    validate_architecture(arch).raise_unless_ok(InvalidArchitectureError)
    variables = _network_variables(arch)
    return BayesianNetwork(tuple(variables),
                           {v.id: arch.cpts[v.id] for v in variables})


def _successors(arch):
    """Each component's successors in edge order; dangling edges dropped."""
    succ = {c.id: [] for c in arch.components}
    for src, dst in arch.edges:
        if src in succ and dst in succ:
            succ[src].append(dst)
    return succ


def change_impact(arch: AnnotatedArchitecture, component: str) -> list[str]:
    """All components downstream of the given one via data-flow edges,
    in topological order. Empty list: the change is isolated. A cyclic
    graph has no such order and raises InvalidArchitectureError."""
    arch.component(component)  # raises UsageError on unknown id
    succ = _successors(arch)
    order = _topological_order(arch, succ)
    if len(order) < len(succ):  # Kahn's algorithm never emits a cycle
        raise InvalidArchitectureError([_find_cycle(succ)])
    # the order puts predecessors first, so one pass marks every descendant
    reached = {component}
    for node in order:
        if node in reached:
            reached.update(succ[node])
    return [c for c in order if c in reached and c != component]


def _topological_order(arch, succ):
    """Kahn's algorithm; the earliest declared ready component goes first."""
    indeg = dict.fromkeys(succ, 0)
    for dsts in succ.values():
        for dst in dsts:
            indeg[dst] += 1
    position = {c.id: i for i, c in enumerate(arch.components)}
    ready = [(position[i], i) for i, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, node = heapq.heappop(ready)
        order.append(node)
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, (position[nxt], nxt))
    return order
