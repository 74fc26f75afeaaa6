"""Discrete Bayesian networks: representation, validation, exact inference.

Every variable is binary (low/high uncertainty): a CPT stores only
P(H | parents). Factor tables are therefore flat tuples of 2^k numbers
indexed by a bitmask over the scope (Darwiche, *Modeling and Reasoning with
Bayesian Networks*, 2009, ch. 6).

Two inference routes are provided on purpose: ``marginal_brute_force``
sums the ``joint_probability`` product over all assignments and serves as
the oracle, ``marginal_ve`` is the production path (variable elimination).
They must agree to 1e-12 and share one query contract. ``plan_ve`` checks
a query and compiles it once: the min-degree elimination order, each
factor's bucket, each message's scope and destination, and each product's
and sum's index list depend only on the graph and the evidence variables.
The plan names the ``varied`` variables whose CPTs its runs receive, e.g.
the swept ones of a sweep. A factor built from another CPT is constant, and
so is every product and sum whose inputs are all constant: the plan
computes these once. A run builds the varied factors and replays the
remaining products and sums of bucket elimination in their original order,
so that its result is bit-identical to a plan with nothing varied. A
product whose largest entry drops below 2^-500 is rescaled by an exact
power of two, so that long evidence chains cannot underflow.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from collections import Counter, namedtuple
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


def _product_index(scope1, scope2):
    """The scope of a product of tables over ``scope1`` and ``scope2``, in
    that order, and the (shift, index) that ``_multiply`` reads them by."""
    extra = tuple(v for v in scope2 if v not in scope1)
    scope = scope1 + extra
    # scope1 leads, so mask m reads the first table at m >> len(extra)
    index = [0]
    for var in scope:
        bit = _bit(scope2, var) if var in scope2 else 0
        index = [i + b for i in index for b in (0, bit)]
    return scope, len(extra), index


def _multiply(t1, t2, shift, index):
    return tuple(t1[m >> shift] * t2[j] for m, j in enumerate(index))


def factor_product(f1: Factor, f2: Factor) -> Factor:
    """Pointwise product over the ordered union of the two scopes."""
    scope, shift, index = _product_index(f1.scope, f2.scope)
    return Factor(scope, _multiply(f1.table, f2.table, shift, index))


def _sum_index(scope, var):
    """The scope left when ``var`` is summed out of a table over ``scope``,
    and the (bit, kept masks) that ``_add`` sums it by."""
    bit = _bit(scope, var)
    # the masks with var's bit clear, ascending, are the reduced masks in order
    return (tuple(v for v in scope if v != var), bit,
            [i for i in range(1 << len(scope)) if not i & bit])


def _add(table, bit, kept):
    return tuple(table[i] + table[i | bit] for i in kept)


def sum_out(f: Factor, var: str) -> Factor:
    """Marginalize one variable out of a factor (L term plus H term)."""
    if var not in f.scope:
        raise UsageError(f"sum_out: {var!r} not in factor scope {list(f.scope)}")
    scope, bit, kept = _sum_index(f.scope, var)
    return Factor(scope, _add(f.table, bit, kept))


def restrict(f: Factor, var: str, state: str) -> Factor:
    """Condition a factor on var = state, dropping var from the scope."""
    if var not in f.scope:
        return f
    bit = _bit(f.scope, var)
    offset = bit * BINARY_STATES.index(state)
    scope = tuple(v for v in f.scope if v != var)
    return Factor(scope, tuple(f.table[i + offset]
                               for i in range(len(f.table)) if not i & bit))


def _rescaled(table, exponent):
    """A product's table and the exponent e of 2^e that scales it: a table
    whose largest entry is positive but below 2^-500 is scaled up by 2^-e,
    exactly, and e added to ``exponent``, so that long products of small
    numbers cannot underflow."""
    top = max(table)
    if 0.0 < top < 2.0 ** -500:
        e = math.frexp(top)[1]
        return tuple(math.ldexp(x, -e) for x in table), exponent + e
    return table, exponent


def _product(factors, exponent):
    """Multiply ``factors`` left to right, each product ``_rescaled``."""
    result = factors[0]
    for f in factors[1:]:
        result = factor_product(result, f)
        table, exponent = _rescaled(result.table, exponent)
        result = Factor(result.scope, table)
    return result, exponent


def _elimination_order(net, target, evidence):
    """Min-degree order (Koller & Friedman, *Probabilistic Graphical Models*,
    2009, §9.4.3), lowest id on ties, on the interaction graph of the CPT
    families with the evidence restricted away; no table is built. A
    variable's neighbours when it is eliminated are the scope of its
    bucket's sum, so the order stops at the first variable whose neighbours
    pass MAX_WIDTH."""
    # each set holds its own variable: its size is the resulting scope's + 1
    graph = {v.id: {v.id} for v in net.variables if v.id not in evidence}
    for v in net.variables:
        family = {u for u in v.parents + (v.id,) if u not in evidence}
        for u in family:
            graph[u] |= family
    # (size, variable) entries, pushed again whenever a size changes: an
    # entry whose size is no longer its variable's is stale
    heap = [(len(family), u) for u, family in graph.items() if u != target]
    heapq.heapify(heap)
    order = []
    while heap:
        size, var = heapq.heappop(heap)
        if len(graph.get(var, ())) != size:
            continue
        order.append(var)
        neighbours = graph.pop(var)
        neighbours.discard(var)
        width = len(neighbours)
        if width > MAX_WIDTH:
            raise WidthLimitError(
                f"induced width at least {width} exceeds the limit of "
                f"{MAX_WIDTH}: eliminating {var!r} needs a table of at least "
                f"2^{width + 1} entries")
        for u in neighbours:
            graph[u] |= neighbours
            graph[u].discard(var)
            if u != target:
                heapq.heappush(heap, (len(graph[u]), u))
    return order


# a factor that a run computes: its scope, and the slot that holds its table
_Slot = namedtuple("_Slot", "scope index")


def _elimination(net, target, evidence, varied=frozenset()):
    unknown = sorted(varied - {v.id for v in net.variables})
    if unknown:  # a run would ignore their CPTs
        raise UsageError(f"varied names unknown variables: {unknown}")
    order = _elimination_order(net, target, evidence)
    # bucket elimination (Dechter, Artif. Intell. 1999): each factor waits in
    # the bucket of its first variable; scalars join the target's, the last
    bucket_of = {var: i for i, var in enumerate(order + [target])}

    def first(scope):
        return min(map(bucket_of.get, scope), default=-1)
    # a run's tables: the constants, and None in each slot that a run fills
    tables = []

    def slot(f):
        if isinstance(f, _Slot):
            return f.index
        tables.append(f.table)
        return len(tables) - 1

    def live(scope):
        tables.append(None)
        return _Slot(scope, len(tables) - 1)
    buckets = [[] for _ in bucket_of]
    loads = []  # (variable, its observed family, slot) per varied CPT
    for v in net.variables:
        family = v.parents + (v.id,)
        observed = [(u, evidence[u]) for u in evidence if u in family]
        if v.id in varied:
            f = live(tuple(u for u in family if u not in evidence))
            loads.append((v.id, observed, f.index))
        else:
            f = factor_from_cpt(net.cpts[v.id])
            for u, state in observed:
                f = restrict(f, u, state)
        buckets[first(f.scope)].append(f)
    # fold each bucket's constant prefix; the rest is a step of the run:
    # (first slot, (slot, shift, index) per product, (bit, kept) or None,
    # slot of the result)
    exponent, steps = 0, []
    for var, bucket in zip(order + [None], buckets):
        prefix = next((k for k, f in enumerate(bucket)
                       if isinstance(f, _Slot)), len(bucket))
        constant = prefix == len(bucket)
        if prefix:
            f, exponent = _product(bucket[:prefix], exponent)
            bucket = [f] + bucket[prefix:]
        if constant:
            result = f if var is None else sum_out(f, var)
        else:
            scope, products = bucket[0].scope, []
            for g in bucket[1:]:
                scope, shift, index = _product_index(scope, g.scope)
                products.append((slot(g), shift, index))
            summed = None
            if var is not None:
                scope, bit, kept = _sum_index(scope, var)
                summed = bit, kept
            result = live(scope)
            steps.append((slot(bucket[0]), products, summed, result.index))
        if var is not None:
            buckets[first(result.scope)].append(result)
    answer = slot(result)

    def joint(cpts):
        values = list(tables)
        for var_id, observed, k in loads:
            f = factor_from_cpt(cpts[var_id])
            for u, state in observed:
                f = restrict(f, u, state)
            values[k] = f.table
        scale = exponent
        for head, products, summed, out in steps:
            table = values[head]
            for k, shift, index in products:
                table, scale = _rescaled(
                    _multiply(table, values[k], shift, index), scale)
            values[out] = table if summed is None else _add(table, *summed)
        table = values[answer]
        if target in evidence:  # restricted away: the table is (P(e),)
            return tuple(table[0] if s == evidence[target] else 0.0
                         for s in BINARY_STATES), scale
        return table, scale
    return joint


def plan_ve(net: BayesianNetwork, target: str,
            evidence: dict[str, str] | None = None, varied=()):
    """Plan P(target | evidence) by variable elimination once, as a
    function of the CPTs of the ``varied`` variables, which must be the
    network's: a run reads ``cpts[v]`` only for ``v`` in ``varied``, and
    every other CPT is the network's. The plan builds and restricts the
    other CPTs' factors, multiplies each bucket's factors up to the first
    one that a run computes, and sums out every bucket that has none; a run
    builds the varied factors and replays the remaining products and sums
    over index lists fixed at plan time. Deterministic: the order is
    min-degree with a lexicographic tie-break, the CPT factors are built in
    variable order, and each bucket is multiplied in the order its factors
    arrived, so every run does the same float operations in the same order
    as a plan with nothing varied, and is bit-identical to it."""
    return _plan_query(net, target, evidence,
                       lambda *query: _elimination(*query, frozenset(varied)))


def marginal_ve(net: BayesianNetwork, target: str,
                evidence: dict[str, str] | None = None) -> dict[str, float]:
    """P(target | evidence) by variable elimination: ``plan_ve`` run once."""
    return plan_ve(net, target, evidence)(net.cpts)
