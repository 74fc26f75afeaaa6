"""Discrete Bayesian networks: representation, validation, exact inference.

Every variable is binary (low/high uncertainty): a CPT stores only
P(H | parents). Factor tables are therefore flat tuples of 2^k numbers
indexed by a bitmask over the scope (Darwiche, *Modeling and Reasoning with
Bayesian Networks*, 2009, ch. 6).

Two inference routes are provided on purpose: ``marginal_brute_force``
sums the ``joint_probability`` product over all assignments and serves as
the oracle, ``marginal_ve`` is the production path (variable elimination).
They must agree to 1e-12 and share one query contract. ``plan_ve`` checks
a query and fixes its min-degree elimination order once, from the graph
and the evidence variables; the plan then runs on any CPTs with the same
variables, parents and rows, e.g. at every point of a sweep. A run is
bucket elimination along that order, and rescales a product by an exact
power of two whenever its largest entry drops below 2^-500, so that long
evidence chains cannot underflow.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import (MAX_LISTED, ImpossibleEvidenceError, InvalidNetworkError,
                     UsageError, WidthLimitError)

LOW = "L"
HIGH = "H"
BINARY_STATES = (LOW, HIGH)

ROOT_ONLY_KINDS = ("epistemic", "stochastic", "monitor")
# the largest induced width a plan accepts, so no table passes 2^(MAX_WIDTH
# + 1) entries: one query at width 19 took 3.5 s and 224 MB (Python 3.11,
# 2 cores), and each step up doubles both
MAX_WIDTH = 19


def row_key(states):
    """Key a CPT row by its parent assignment: 'L'/'H' symbols joined by
    commas in declared parent order; the empty string for roots."""
    return ",".join(states)


def row_keys(parents):
    """Row keys of all assignments of ``parents``, in table order."""
    return list(_row_keys(len(parents)))


def _row_keys(n_parents, states=BINARY_STATES):
    return (row_key(c) for c in itertools.product(states, repeat=n_parents))


@dataclass(frozen=True)
class Variable:
    id: str
    kind: str
    parents: tuple[str, ...] = ()


@dataclass(frozen=True)
class Cpt:
    """P(variable = H | parent assignment), one row per assignment.

    Only the high-state probability is stored; P(L | ...) is 1 - p_high by
    construction, so rows cannot be unnormalized.
    """

    variable: str
    parents: tuple[str, ...]
    rows: dict[str, float]  # row_key -> p_high


@dataclass(frozen=True)
class BayesianNetwork:
    variables: tuple[Variable, ...]
    cpts: dict[str, Cpt]

    def variable(self, var_id):
        for v in self.variables:
            if v.id == var_id:
                return v
        raise UsageError(f"unknown variable: {var_id!r}")


@dataclass(frozen=True)
class Finding:
    kind: str
    variable: str | None = None
    detail: str = ""
    path: tuple[str, ...] = ()

    def __str__(self):
        parts = [self.kind]
        if self.variable is not None:
            parts.append(f"variable={self.variable}")
        if self.path:
            parts.append("path=" + "->".join(self.path))
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self):
        return not self.findings

    def __str__(self):
        if self.ok:
            return "OK"
        return "\n".join(str(f) for f in self.findings)

    def raise_unless_ok(self, error):
        """The one validation gate: raise ``error(findings)`` if any."""
        if self.findings:
            raise error(self.findings)


def _duplicate_ids(ids):
    """A ``duplicate id`` finding for each repeat of an id, in order."""
    seen = set()
    for i in ids:
        if i in seen:
            yield Finding("duplicate id", i)
        seen.add(i)


def _find_cycle(graph):
    """The ``cycle`` finding, path [a, ..., a], of one cycle in ``graph``
    (vertex -> neighbours, roots tried in sorted order), or None. Depth-first
    search with an explicit stack, so graph depth is not bounded by the
    interpreter's recursion limit."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    for root in sorted(graph):
        if color[root] != WHITE:
            continue
        color[root] = GREY
        path = [root]
        # per node on the path, its neighbours not yet examined
        pending = [iter(graph[root])]
        while pending:
            for node in pending[-1]:
                if color.get(node) == GREY:
                    cycle = path[path.index(node):] + [node]
                    return Finding("cycle", node, path=tuple(cycle))
                if color.get(node) == WHITE:
                    color[node] = GREY
                    path.append(node)
                    pending.append(iter(graph[node]))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return None


def check_cpts(variables, cpts) -> list[Finding]:
    """The CPT findings for ``variables``: each names a parent once and
    needs a CPT keyed by its parents, with one in-range p_high per parent
    assignment; a CPT for any other id is unknown. Only the rows present
    are read: of the missing rows, MAX_LISTED are named and the rest
    counted, so the work is linear in the document."""
    findings = []
    for v in variables:
        # a factor gives each scope variable one bit: name each parent once
        for p, n in Counter(v.parents).items():
            if n > 1:
                times = "twice" if n == 2 else f"{n} times"
                findings.append(Finding("repeated parent", v.id,
                                        f"parent {p!r} listed {times}"))
        cpt = cpts.get(v.id)
        k = len(v.parents)
        if cpt is None:
            shown = list(itertools.islice(_row_keys(k), MAX_LISTED))
            rest = 2 ** k - len(shown)
            findings.append(Finding(
                "missing CPT", v.id, f"expected rows {shown}"
                + (f" and {rest} more" if rest else "")))
            continue
        if cpt.variable != v.id:
            findings.append(Finding("CPT variable mismatch", v.id,
                                    f"CPT is for {cpt.variable!r}"))
            continue
        if tuple(cpt.parents) != tuple(v.parents):
            findings.append(
                Finding("CPT parent mismatch", v.id,
                        f"expected parents {list(v.parents)}, "
                        f"got {list(cpt.parents)}"))
            continue
        # a row is expected when its key is k 'L'/'H' symbols joined by commas
        form = re.compile(",".join([f"[{LOW}{HIGH}]"] * k))
        expected = {key for key in cpt.rows if form.fullmatch(key)}
        # 'H' sorts before 'L', so these are the missing keys in sorted order
        missing = (key for key in _row_keys(k, (HIGH, LOW))
                   if key not in expected)
        shown = list(itertools.islice(missing, MAX_LISTED))
        for key in shown:
            findings.append(Finding("missing CPT row", v.id, f"row {key!r}"))
        rest = 2 ** k - len(expected) - len(shown)
        if rest:
            findings.append(Finding("missing CPT row", v.id, f"and {rest} more"))
        for key in sorted(set(cpt.rows) - expected):
            findings.append(Finding("extra CPT row", v.id, f"row {key!r}"))
        for key in sorted(expected):
            p = cpt.rows[key]
            if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
                findings.append(
                    Finding("probability out of range", v.id,
                            f"row {key!r} has p_high {p!r}"))
    known = {v.id for v in variables}
    for extra in sorted(set(cpts) - known):
        findings.append(
            Finding("unknown CPT", extra, "CPT for an unknown variable"))
    return findings


def validate_network(net: BayesianNetwork) -> ValidationReport:
    """Check a network for structural defects. Defects are data, not
    exceptions; inference entry points refuse networks that do not pass."""
    report = ValidationReport(list(_duplicate_ids(v.id for v in net.variables)))
    parent_map = {v.id: v.parents for v in net.variables}

    for v in net.variables:
        for p in v.parents:
            if p not in parent_map:
                report.findings.append(
                    Finding("dangling parent", v.id, f"parent {p!r} not in network"))
        if v.kind in ROOT_ONLY_KINDS and v.parents:
            report.findings.append(
                Finding("root kind with parents", v.id,
                        f"kind {v.kind!r} variables must be roots"))

    cycle = _find_cycle(parent_map)
    if cycle is not None:
        report.findings.append(cycle)

    report.findings.extend(check_cpts(net.variables, net.cpts))
    return report


def _joint(variables, cpts, assignment):
    prob = 1.0
    for v in variables:
        p_high = cpts[v.id].rows[row_key(assignment[p] for p in v.parents)]
        prob *= p_high if assignment[v.id] == HIGH else 1.0 - p_high
    return prob


def joint_probability(net: BayesianNetwork, assignment: dict[str, str]) -> float:
    """Probability of one full assignment: the product over variables of
    the CPT entry for the variable's state given its parents' states."""
    validate_network(net).raise_unless_ok(InvalidNetworkError)
    ids = [v.id for v in net.variables]
    missing = [i for i in ids if i not in assignment]
    extra = [k for k in assignment if k not in ids]
    if missing or extra:
        raise UsageError(
            f"assignment must cover every variable exactly once "
            f"(missing: {missing}, extra: {extra})")
    return _joint(net.variables, net.cpts, assignment)


def _plan_query(net, target, evidence, plan_joint):
    """The query contract of both routes: check the network and the query
    once, then map CPTs to P(target | evidence) by normalizing the
    (P(target=L, e), P(target=H, e)) that ``plan_joint`` plans, returned as
    a pair and an int exponent e that scales it by 2^e."""
    validate_network(net).raise_unless_ok(InvalidNetworkError)
    evidence = dict(evidence or {})
    ids = {v.id for v in net.variables}
    if target not in ids:
        raise UsageError(f"unknown target variable: {target!r}")
    unknown = sorted(set(evidence) - ids)
    if unknown:
        raise UsageError(f"evidence names unknown variables: {unknown}")
    for var, state in evidence.items():
        if state not in BINARY_STATES:
            raise UsageError(f"evidence {var}={state!r}: state must be 'L' or 'H'")
    joint = plan_joint(net, target, evidence)

    def marginal(cpts):
        (low, high), _ = joint(cpts)
        normalizer = low + high
        if normalizer <= 0.0:
            raise ImpossibleEvidenceError(evidence)
        return {LOW: low / normalizer, HIGH: high / normalizer}
    return marginal


def _enumeration(net, target, evidence):
    def joint(cpts):
        ids = [v.id for v in net.variables]
        totals = {s: 0.0 for s in BINARY_STATES}
        for combo in itertools.product(BINARY_STATES, repeat=len(ids)):
            assignment = dict(zip(ids, combo))
            if all(assignment[v] == s for v, s in evidence.items()):
                totals[assignment[target]] += _joint(
                    net.variables, cpts, assignment)
        return (totals[LOW], totals[HIGH]), 0
    return joint


def marginal_brute_force(net: BayesianNetwork, target: str,
                         evidence: dict[str, str] | None = None) -> dict[str, float]:
    """P(target | evidence) as a sum of joint probabilities: the oracle
    route, exponential and trusted by construction."""
    return _plan_query(net, target, evidence, _enumeration)(net.cpts)


# ---------------------------------------------------------------------------
# Factor algebra


@dataclass(frozen=True)
class Factor:
    """A nonnegative table over an ordered scope of binary variables.

    ``table[m]`` is the value at the assignment whose bits, first scope
    variable most significant, are ``m`` (bit set = H); the entries run in
    the order of ``itertools.product(BINARY_STATES, repeat=len(scope))``.
    """

    scope: tuple[str, ...]
    table: tuple[float, ...]  # 2 ** len(scope) entries


def _bit(scope, var):
    return 1 << (len(scope) - 1 - scope.index(var))


def factor_from_cpt(cpt: Cpt) -> Factor:
    table = []
    for key in row_keys(cpt.parents):  # parent assignments in mask order
        p_high = cpt.rows[key]
        table += (1.0 - p_high, p_high)
    return Factor(tuple(cpt.parents) + (cpt.variable,), tuple(table))


def factor_product(f1: Factor, f2: Factor) -> Factor:
    """Pointwise product over the ordered union of the two scopes."""
    extra = tuple(v for v in f2.scope if v not in f1.scope)
    scope = f1.scope + extra
    # f1's scope leads, so mask m reads f1 at m >> len(extra); f2 at index[m]
    index = [0]
    for var in scope:
        bit = _bit(f2.scope, var) if var in f2.scope else 0
        index = [i + b for i in index for b in (0, bit)]
    t1, t2, shift = f1.table, f2.table, len(extra)
    return Factor(scope, tuple(t1[m >> shift] * t2[j]
                               for m, j in enumerate(index)))


def sum_out(f: Factor, var: str) -> Factor:
    """Marginalize one variable out of a factor (L term plus H term)."""
    if var not in f.scope:
        raise UsageError(f"sum_out: {var!r} not in factor scope {list(f.scope)}")
    bit = _bit(f.scope, var)
    scope = tuple(v for v in f.scope if v != var)
    # the masks with var's bit clear, ascending, are the reduced masks in order
    return Factor(scope, tuple(f.table[i] + f.table[i | bit]
                               for i in range(len(f.table)) if not i & bit))


def restrict(f: Factor, var: str, state: str) -> Factor:
    """Condition a factor on var = state, dropping var from the scope."""
    if var not in f.scope:
        return f
    bit = _bit(f.scope, var)
    offset = bit * BINARY_STATES.index(state)
    scope = tuple(v for v in f.scope if v != var)
    return Factor(scope, tuple(f.table[i + offset]
                               for i in range(len(f.table)) if not i & bit))


def _product(factors, exponent):
    """Multiply ``factors`` left to right. A product whose largest entry is
    positive but below 2^-500 is scaled up by 2^-e, exactly, and e added to
    ``exponent``, so that long products of small numbers cannot underflow."""
    result = factors[0]
    for f in factors[1:]:
        result = factor_product(result, f)
        top = max(result.table)
        if 0.0 < top < 2.0 ** -500:
            e = math.frexp(top)[1]
            exponent += e
            result = Factor(result.scope,
                            tuple(math.ldexp(x, -e) for x in result.table))
    return result, exponent


def _elimination_order(net, target, evidence):
    """Min-degree order (Koller & Friedman, *Probabilistic Graphical Models*,
    2009, §9.4.3), lowest id on ties, on the interaction graph of the CPT
    families with the evidence restricted away; no table is built. A
    variable's neighbours when it is eliminated are the scope of its
    bucket's sum, so the largest of them is the induced width, which must
    not pass MAX_WIDTH."""
    # each set holds its own variable: its size is the resulting scope's + 1
    graph = {v.id: {v.id} for v in net.variables if v.id not in evidence}
    for v in net.variables:
        family = {u for u in v.parents + (v.id,) if u not in evidence}
        for u in family:
            graph[u] |= family
    remaining = set(graph) - {target}
    order = []
    width, widest = 0, None
    while remaining:
        var = min(remaining, key=lambda u: (len(graph[u]), u))
        order.append(var)
        remaining.discard(var)
        neighbours = graph.pop(var)
        neighbours.discard(var)
        if len(neighbours) > width:
            width, widest = len(neighbours), var
        for u in neighbours:
            graph[u] |= neighbours
            graph[u].discard(var)
    if width > MAX_WIDTH:
        raise WidthLimitError(
            f"induced width {width} exceeds the limit of {MAX_WIDTH}: "
            f"eliminating {widest!r} needs a table of 2^{width + 1} entries")
    return order


def _elimination(net, target, evidence):
    order = _elimination_order(net, target, evidence)
    # bucket elimination (Dechter, Artif. Intell. 1999): each factor waits in
    # the bucket of its first variable; scalars join the target's, the last
    bucket_of = {var: i for i, var in enumerate(order + [target])}

    def first(scope):
        return min(map(bucket_of.get, scope), default=-1)
    # each CPT factor's observed variables and bucket depend on the graph only
    cpt_plan = [(v.id, [u for u in evidence if u in family],
                 first(u for u in family if u not in evidence))
                for v in net.variables for family in [v.parents + (v.id,)]]

    def joint(cpts):
        buckets = [[] for _ in bucket_of]
        for var_id, observed, i in cpt_plan:
            f = factor_from_cpt(cpts[var_id])
            for var in observed:
                f = restrict(f, var, evidence[var])
            buckets[i].append(f)
        exponent = 0
        for var, bucket in zip(order, buckets):
            product, exponent = _product(bucket, exponent)
            f = sum_out(product, var)
            buckets[first(f.scope)].append(f)
        result, exponent = _product(buckets[-1], exponent)
        if target in evidence:  # restricted away: the table is (P(e),)
            return tuple(result.table[0] if s == evidence[target] else 0.0
                         for s in BINARY_STATES), exponent
        return result.table, exponent
    return joint


def plan_ve(net: BayesianNetwork, target: str,
            evidence: dict[str, str] | None = None):
    """Plan P(target | evidence) by variable elimination once, as a
    function of the CPTs. Deterministic: the order is min-degree with a
    lexicographic tie-break, each run builds and restricts the CPT factors
    in variable order, and each bucket is multiplied in the order its
    factors arrived, so repeated runs are bit-identical."""
    return _plan_query(net, target, evidence, _elimination)


def marginal_ve(net: BayesianNetwork, target: str,
                evidence: dict[str, str] | None = None) -> dict[str, float]:
    """P(target | evidence) by variable elimination: ``plan_ve`` run once."""
    return plan_ve(net, target, evidence)(net.cpts)
