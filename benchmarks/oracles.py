"""Independent references the benchmark checks the program's outputs with.

None of these use archuncert's variable elimination. The sweep oracle
enumerates the joint itself; ``marginal_brute_force`` (the program's own
trusted oracle) is called only to pin it, and is imported lazily so that
importing this module does not import archuncert.
"""

from __future__ import annotations

import csv
import io
import itertools


def _topological(variables):
    ids = [v.id for v in variables]
    parents = {v.id: tuple(v.parents) for v in variables}
    done, order = set(), []
    while len(order) < len(ids):
        for i in ids:
            if i not in done and all(p in done for p in parents[i]):
                done.add(i)
                order.append(i)
    return order, parents


def affine_sweep_coefficients(net, query, evidence, vary):
    """Joint mass of (query state, vary state) with the vary variable's own
    CPT entry left out, by depth-first enumeration in topological order.

    Setting every row of ``vary`` to t makes its entry t or 1 - t whatever
    its parents are, so P(query=H, e) = t*m[H][H] + (1-t)*m[H][L] and
    P(e) is the same sum over both query states.
    """
    order, parents = _topological(net.variables)
    cpts = net.cpts
    mass = {"L": {"L": 0.0, "H": 0.0}, "H": {"L": 0.0, "H": 0.0}}
    state = {}

    def visit(depth, weight):
        if depth == len(order):
            mass[state[query]][state[vary]] += weight
            return
        var = order[depth]
        choices = (evidence[var],) if var in evidence else ("L", "H")
        if var == vary:
            for s in choices:
                state[var] = s
                visit(depth + 1, weight)
            return
        p_high = cpts[var].rows[",".join(state[p] for p in parents[var])]
        for s in choices:
            state[var] = s
            visit(depth + 1, weight * (p_high if s == "H" else 1.0 - p_high))

    visit(0, 1.0)
    return mass


def sweep_curve(mass, grid):
    curve = []
    for t in grid:
        high = t * mass["H"]["H"] + (1.0 - t) * mass["H"]["L"]
        low = t * mass["L"]["H"] + (1.0 - t) * mass["L"]["L"]
        curve.append(high / (high + low))
    return curve


def with_rows(net, var, t):
    """Copy of ``net`` with every row of ``var`` set to t."""
    from archuncert.bn import BayesianNetwork, Cpt

    cpts = dict(net.cpts)
    old = cpts[var]
    cpts[var] = Cpt(old.variable, old.parents, {k: t for k in old.rows})
    return BayesianNetwork(net.variables, cpts)


def crossings(grid, curve_a, curve_b):
    """Sign changes of a - b, as (t_low, t_high, estimate, direction).

    A strict flip between neighbouring points is interpolated linearly; a
    run of exact zeros between opposite signs crosses at the run's mean;
    a touch that keeps its sign is no crossing.
    """
    deltas = [a - b for a, b in zip(curve_a, curve_b)]
    nonzero = [i for i, d in enumerate(deltas) if d != 0.0]
    found = []
    for j, i in zip(nonzero, nonzero[1:]):
        if (deltas[j] > 0) == (deltas[i] > 0):
            continue
        if i == j + 1:
            estimate = grid[j] + (grid[i] - grid[j]) * deltas[j] / (
                deltas[j] - deltas[i])
        else:
            estimate = sum(grid[j + 1:i]) / (i - j - 1)
        found.append((grid[j], grid[i], estimate,
                      "a_falls_below_b" if deltas[j] > 0 else "a_rises_above_b"))
    return found


# ---------------------------------------------------------------------------
# eval-large: exact propagation along a data-flow tree


def tree_marginal(spec, path, evidence, epistemic="EU"):
    """P(path[-1] = H | evidence) on a data-flow tree whose only shared
    ancestor is the epistemic root.

    Given the epistemic state, each component on the root-to-target path
    depends only on its own stochastic source and its path predecessor, so
    one pass down the path gives P(component = H | EU); the evidence node,
    which must lie on the path, is clamped after its likelihood is taken.
    """
    (node, observed), = evidence.items()
    prior_high = spec.cpts[epistemic][1][""]
    joint = {"L": 0.0, "H": 0.0}
    for eu, p_eu in (("L", 1.0 - prior_high), ("H", prior_high)):
        p_high = {epistemic: 1.0 if eu == "H" else 0.0}
        likelihood = None
        for comp in path:
            parents, rows = spec.cpts[comp]
            probs = [p_high[p] if p in p_high else spec.cpts[p][1][""]
                     for p in parents]
            total = 0.0
            for states in itertools.product("LH", repeat=len(parents)):
                weight = rows[",".join(states)]
                for s, p in zip(states, probs):
                    weight *= p if s == "H" else 1.0 - p
                total += weight
            if comp == node:
                likelihood = total if observed == "H" else 1.0 - total
                total = 1.0 if observed == "H" else 0.0
            p_high[comp] = total
        mass = p_eu * likelihood
        joint["H"] += mass * p_high[path[-1]]
        joint["L"] += mass * (1.0 - p_high[path[-1]])
    return joint["H"] / (joint["H"] + joint["L"])


# ---------------------------------------------------------------------------
# ingest and cli: graph and counting references


def reachable(edges, start):
    """Components downstream of ``start``, by breadth-first search."""
    succ = {}
    for s, d in edges:
        succ.setdefault(s, []).append(d)
    seen, frontier = set(), [start]
    while frontier:
        nxt = []
        for node in frontier:
            for d in succ.get(node, ()):
                if d not in seen:
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    seen.discard(start)
    return seen


def respects_edges(order, edges):
    position = {c: i for i, c in enumerate(order)}
    return all(position[s] < position[d] for s, d in edges
               if s in position and d in position)


def csv_records(text):
    """(id, uncertainty, correct, parent states) tuples and the parent
    column names of a calibration CSV, read with the csv module."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    records = [(r[0], float(r[1]), r[2].strip() == "true",
                tuple(s.strip() for s in r[3:])) for r in rows[1:]]
    return records, [h.strip() for h in rows[0][3:]]


def calibration_counts(records, parents):
    """Threshold, (n_high, n_total) overall and per parent-state row key,
    counted directly from ``csv_records`` tuples."""
    incorrect = [u for _, u, ok, _ in records if not ok]
    threshold = min(incorrect) if incorrect else float("inf")
    overall = (sum(1 for _, u, _, _ in records if u >= threshold), len(records))
    rows = {}
    for combo in itertools.product("LH", repeat=len(parents)):
        group = [u for _, u, _, states in records if states == combo]
        rows[",".join(combo)] = (sum(1 for u in group if u >= threshold),
                                 len(group))
    return threshold, overall, rows
