"""Shared generators for randomized tests: networks, DAGs, architectures."""

from __future__ import annotations

import itertools
import random
from functools import reduce

from archuncert.arch import (AnnotatedArchitecture, Component,
                             UncertaintyAnnotation)
from archuncert.bn import (BINARY_STATES, BayesianNetwork, Cpt, Factor,
                           Variable, factor_from_cpt, row_key)


def two_node_network():
    """A -> B with P(A=H)=0.3, P(B=H|A=H)=0.9, P(B=H|A=L)=0.2."""
    return BayesianNetwork(
        variables=(Variable("A", "component", ()),
                   Variable("B", "component", ("A",))),
        cpts={"A": Cpt("A", (), {"": 0.3}),
              "B": Cpt("B", ("A",), {"H": 0.9, "L": 0.2})})


def random_cpt(rng, var_id, parents):
    rows = {}
    if not parents:
        rows[""] = rng.random()
    else:
        for combo in itertools.product("LH", repeat=len(parents)):
            rows[row_key(combo)] = rng.random()
    return Cpt(var_id, tuple(parents), rows)


def random_network(rng, n_min=3, n_max=12, max_parents=3):
    """Random binary DAG network: parents drawn from earlier variables."""
    n = rng.randint(n_min, n_max)
    ids = [f"v{i:02d}" for i in range(n)]
    variables = []
    cpts = {}
    for i, var_id in enumerate(ids):
        k = rng.randint(0, min(i, max_parents))
        parents = tuple(sorted(rng.sample(ids[:i], k)))
        variables.append(Variable(var_id, "component", parents))
        cpts[var_id] = random_cpt(rng, var_id, parents)
    return BayesianNetwork(tuple(variables), cpts)


def random_query(rng, net):
    ids = [v.id for v in net.variables]
    target = rng.choice(ids)
    n_evidence = rng.randint(0, min(2, len(ids) - 1))
    evidence_vars = rng.sample([i for i in ids if i != target], n_evidence)
    return target, {v: rng.choice("LH") for v in evidence_vars}


def random_edge_dag(rng, n_max=15):
    """Random component DAG as (ids, edges) with edges respecting order."""
    n = rng.randint(2, n_max)
    ids = [f"c{i:02d}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                edges.append((ids[i], ids[j]))
    return ids, edges


def dag_architecture(ids, edges, name="random"):
    """Wrap a bare component DAG as an architecture (classical components,
    uniform CPTs) so change_impact and compilation can run on it."""
    components = tuple(Component(i, "classical") for i in ids)
    cpts = {}
    for i in ids:
        parents = tuple(src for src, dst in edges if dst == i)
        rows = ({"": 0.5} if not parents else
                {row_key(c): 0.5 for c in
                 itertools.product("LH", repeat=len(parents))})
        cpts[i] = Cpt(i, parents, rows)
    return AnnotatedArchitecture(name, components, tuple(edges), (), cpts)


def random_architecture(rng, n_ml_max=4):
    """Random valid annotated architecture with ml components, shared or
    per-component epistemic sources, and random CPTs."""
    n_ml = rng.randint(1, n_ml_max)
    ml_ids = [f"m{i}" for i in range(n_ml)]
    components = [Component(i, "ml", f"component {i}") for i in ml_ids]
    edges = []
    for i in range(n_ml):
        for j in range(i + 1, n_ml):
            if rng.random() < 0.4:
                edges.append((ml_ids[i], ml_ids[j]))

    annotations = []
    shared_eu = rng.random() < 0.5
    if shared_eu:
        annotations.append(UncertaintyAnnotation("EU", "epistemic",
                                                 tuple(ml_ids)))
    else:
        annotations.extend(
            UncertaintyAnnotation(f"EU_{i}", "epistemic", (i,))
            for i in ml_ids)
    annotations.extend(
        UncertaintyAnnotation(f"SU_{i}", "stochastic", (i,)) for i in ml_ids)

    arch = AnnotatedArchitecture(f"random-{rng.randint(0, 10**6)}",
                                 tuple(components), tuple(edges),
                                 tuple(annotations), {})
    from archuncert.arch import _parent_lists

    cpts = {}
    for a in annotations:
        cpts[a.id] = random_cpt(rng, a.id, ())
    for c in components:
        cpts[c.id] = random_cpt(rng, c.id, _parent_lists(arch).get(c.id, ()))
    return AnnotatedArchitecture(arch.name, arch.components, arch.edges,
                                 arch.annotations, cpts)


def wide_architecture(n=200, max_parents=3, seed=3):
    """A valid document too wide for exact inference: ``n`` classical
    components, component i with min(max_parents, i) parents drawn without
    replacement from the earlier ones, full CPTs with p_high in
    [0.05, 0.95]. At 200 x 3 the min-degree order has induced width 72."""
    rng = random.Random(seed)
    ids = [f"c{i:03d}" for i in range(n)]
    edges, cpts = [], {}
    for i, comp in enumerate(ids):
        parents = tuple(rng.sample(ids[:i], min(max_parents, i)))
        edges += [(parent, comp) for parent in parents]
        cpts[comp] = Cpt(comp, parents, {
            row_key(c): rng.uniform(0.05, 0.95)
            for c in itertools.product(BINARY_STATES, repeat=len(parents))})
    components = tuple(Component(i, "classical") for i in ids)
    return AnnotatedArchitecture(f"wide-{n}x{max_parents}", components,
                                 tuple(edges), (), cpts)


def brute_force_reachable(edges, start):
    """Reference transitive closure by repeated relaxation."""
    reach = {start}
    changed = True
    while changed:
        changed = False
        for src, dst in edges:
            if src in reach and dst not in reach:
                reach.add(dst)
                changed = True
    reach.discard(start)
    return reach


def fuzz_corpus():
    """The 10,000 inputs test_format_round_trip feeds the parser (same seed,
    same draws): random strings over a YAML-heavy alphabet, and serialized
    random architectures with one character replaced or cut short."""
    from archuncert.formats import serialize_architecture

    rng = random.Random(0x30B2)
    documents = [serialize_architecture(random_architecture(rng))
                 for _ in range(100)]
    alphabet = "abc:{}[]\"'-_,\n 0123456789.#\té€"
    corpus = []
    for i in range(10_000):
        mode = i % 3
        if mode == 0:
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(0, 120)))
        elif mode == 1:
            text = rng.choice(documents)
            pos = rng.randrange(max(1, len(text)))
            text = (text[:pos] + rng.choice(alphabet)
                    + text[pos + rng.randint(0, 2):])
        else:
            text = rng.choice(documents)[:rng.randrange(400)]
        corpus.append(text)
    return corpus


def reference_elimination_order(net, target, evidence):
    """The greedy order as first written: for every candidate at every step,
    union the scopes that contain it and take the smallest result, lowest id
    on ties. Cubic, kept as the reference for ``bn._elimination_order``."""
    order = []
    scopes = [set(v.parents + (v.id,)) - set(evidence) for v in net.variables]
    remaining = {v.id for v in net.variables} - {target} - set(evidence)
    while remaining:
        best = None
        for var in sorted(remaining):
            scope = set()
            for s in scopes:
                if var in s:
                    scope.update(s)
            scope.discard(var)
            key = (len(scope), var)
            if best is None or key < best[0]:
                best = (key, var, scope)
        _, var, scope = best
        order.append(var)
        remaining.discard(var)
        scopes = [s for s in scopes if var not in s]
        if scope:
            scopes.append(scope)
    return order


def reference_change_impact(arch, component):
    """``change_impact`` as first written: successors, reachability, and
    Kahn's algorithm re-sorting the ready list by declaration position on
    every pop. The reference for the heap-ordered version."""
    succ = {c.id: [] for c in arch.components}
    for src, dst in arch.edges:
        if src in succ and dst in succ:
            succ[src].append(dst)
    reachable = brute_force_reachable(
        [(s, d) for s, ds in succ.items() for d in ds], component)

    indeg = {c.id: 0 for c in arch.components}
    for dsts in succ.values():
        for dst in dsts:
            indeg[dst] += 1
    position = {c.id: i for i, c in enumerate(arch.components)}
    ready = sorted((i for i, d in indeg.items() if d == 0), key=position.get)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
        ready.sort(key=position.get)
    return [c for c in order if c in reachable]


def reference_index_map(scope, other):
    """For each mask over ``scope``, in order, the index into a table over
    ``other`` that agrees with it: variables of ``other`` missing from
    ``scope`` are L, variables of ``scope`` missing from ``other`` are
    ignored. The table layout as ``bn`` first stated it."""
    index = [0]
    for var in scope:
        bit = 1 << (len(other) - 1 - other.index(var)) if var in other else 0
        index = [i + b for i in index for b in (0, bit)]
    return index


def reference_factor_product(f1, f2):
    """``bn.factor_product`` as first written, on two index maps."""
    scope = f1.scope + tuple(v for v in f2.scope if v not in f1.scope)
    return Factor(scope, tuple(
        f1.table[i] * f2.table[j]
        for i, j in zip(reference_index_map(scope, f1.scope),
                        reference_index_map(scope, f2.scope))))


def reference_sum_out(f, var):
    """``bn.sum_out`` as first written, on an index map."""
    bit = 1 << (len(f.scope) - 1 - f.scope.index(var))
    scope = tuple(v for v in f.scope if v != var)
    return Factor(scope, tuple(f.table[i] + f.table[i | bit]
                               for i in reference_index_map(scope, f.scope)))


def reference_restrict(f, var, state):
    """``bn.restrict`` as first written, on an index map."""
    if var not in f.scope:
        return f
    bit = 1 << (len(f.scope) - 1 - f.scope.index(var))
    offset = bit * BINARY_STATES.index(state)
    scope = tuple(v for v in f.scope if v != var)
    return Factor(scope, tuple(f.table[i + offset]
                               for i in reference_index_map(scope, f.scope)))


def reference_elimination_joint(net, target, evidence, order, cpts):
    """The run of ``bn._elimination`` as first written: restrict every
    factor on every evidence variable, then at each step of ``order``
    collect the factors that hold the variable by scanning the whole list.
    Quadratic, kept as the reference for the bucket run; it multiplies,
    sums and restricts with the reference formulas above."""
    factors = [factor_from_cpt(cpts[v.id]) for v in net.variables]
    for var, state in evidence.items():
        factors = [reference_restrict(f, var, state) for f in factors]
    for var in order:
        relevant = [f for f in factors if var in f.scope]
        factors = [f for f in factors if var not in f.scope]
        factors.append(reference_sum_out(
            reduce(reference_factor_product, relevant), var))
    result = reduce(reference_factor_product, factors, Factor((), (1.0,)))
    if target in evidence:
        return tuple(result.table[0] if s == evidence[target] else 0.0
                     for s in BINARY_STATES)
    return result.table
