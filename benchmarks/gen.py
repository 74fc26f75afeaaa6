"""Seeded input generators for the benchmark workloads.

Everything here is plain Python with no dependency on archuncert: the
generators write `.arch` documents and calibration CSVs as text, following
the documented format (CPT parents are a component's uncertainty
annotations in declaration order, then its data-flow predecessors in edge
order, skipping input sensors). Each generator also returns the structure
it wrote, so the checks can compare the program's parse with it.

The same seed always gives the same bytes: every random draw comes from a
``random.Random`` seeded with a string, which Python hashes with SHA-512,
not with the per-process string hash.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

HEADER = (
    "# Annotated architecture document.\n"
    "# CPT row keys are parent states \"L\"/\"H\" joined by commas in the\n"
    "# declared parent order; the empty key \"\" is the single row of a root.\n"
)


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


def row_keys(n_parents):
    if n_parents == 0:
        return [""]
    return [",".join(c) for c in itertools.product("LH", repeat=n_parents)]


def probability(rng):
    return round(rng.uniform(0.02, 0.98), 3)


@dataclass
class ArchSpec:
    """An architecture as the generator wrote it, in declaration order."""

    name: str
    components: list = field(default_factory=list)   # (id, kind, label)
    edges: list = field(default_factory=list)        # (src, dst)
    annotations: list = field(default_factory=list)  # (id, kind, [attached])
    cpts: dict = field(default_factory=dict)         # id -> (parents, rows)

    def input_sensors(self):
        return {c for c, kind, _ in self.components
                if kind == "sensor" and c not in self.cpts}

    def parents(self, comp_id):
        inputs = self.input_sensors()
        annotations = [a for a, _, attached in self.annotations
                       if comp_id in attached]
        flow = [s for s, d in self.edges if d == comp_id and s not in inputs]
        return annotations + flow

    def fill_cpts(self, rng):
        """Random rows for every annotation and non-input component."""
        for a, _, _ in self.annotations:
            self.cpts[a] = ([], {"": probability(rng)})
        for c, kind, _ in self.components:
            if kind == "sensor":
                continue
            parents = self.parents(c)
            self.cpts[c] = (parents, {k: probability(rng)
                                      for k in row_keys(len(parents))})

    def text(self):
        q = json.dumps
        out = [HEADER, f"name: {q(self.name)}\n", "components:\n"]
        for c, kind, label in self.components:
            out.append(f'- {{"id": {q(c)}, "kind": {q(kind)}, '
                       f'"label": {q(label)}}}\n')
        out.append("edges:\n" if self.edges else "edges: []\n")
        for s, d in self.edges:
            out.append(f'- {{"from": {q(s)}, "to": {q(d)}}}\n')
        out.append("uncertainties:\n" if self.annotations
                   else "uncertainties: []\n")
        for a, kind, attached in self.annotations:
            out.append(f'- {{"id": {q(a)}, "kind": {q(kind)}, "attaches_to": '
                       f'[{", ".join(q(x) for x in attached)}]}}\n')
        out.append("cpts:\n")
        for var, (parents, rows) in self.cpts.items():
            out.append(f"  {q(var)}:\n")
            out.append(f"    parents: [{', '.join(q(p) for p in parents)}]\n")
            out.append("    rows:\n")
            for key, p in rows.items():
                out.append(f"      {q(key)}: {p!r}\n")
        return "".join(out)


# ---------------------------------------------------------------------------
# compare-small: design pairs with the same component ids

def _pair_shapes():
    """(tasks, ml tasks, ml tasks with a stochastic source) for every pair
    whose designs both compile to 3-12 variables, by size, every other one.
    Design A compiles to tasks + 2 + stochastic variables, design B to
    tasks + 1 + ml + stochastic."""
    shapes = [(k, m, s) for k in range(1, 7) for m in range(1, k + 1)
              for s in range(m + 1) if k + 2 + s <= 12 and k + 1 + m + s <= 12]
    shapes.sort(key=lambda x: (2 * x[0] + x[1] + 2 * x[2], x))
    return tuple(shapes[::2])


# Fixed, so every seed has the same size profile; the seed picks the
# wiring details and the numbers.
PAIR_SHAPES = _pair_shapes()
GOLDEN = 0.6180339887498949


def spread_order(items, sizes, rng):
    """Items reordered so that every prefix of the order, repeated or not,
    holds small and large items in about the same proportion: rank by
    size, then sort the ranks by a golden-ratio sequence with a seeded
    offset. A closed loop stops after a varying number of ops, so this keeps
    the mix it measured the same from run to run."""
    ranked = sorted(range(len(items)), key=lambda i: (sizes[i], i))
    offset = rng.random()
    keyed = sorted(((rank * GOLDEN + offset) % 1.0, i)
                   for rank, i in enumerate(ranked))
    return [items[i] for _, i in keyed]


@dataclass
class PairInput:
    name: str
    text_a: str
    text_b: str
    target: str
    vary: str
    evidence: dict
    monitor_p_high: float
    weight: float


def design_pair(rng, index, tasks, n_ml, n_stoch):
    """An end-to-end chain with one shared epistemic source (A) and a
    component-based fan-in with per-task epistemic sources (B)."""
    ids = [f"t{i}" for i in range(1, tasks + 1)]
    ml = sorted(rng.sample(ids, n_ml), key=ids.index)
    stoch = sorted(rng.sample(ml, n_stoch), key=ids.index)
    components = ([("in", "sensor", "input")]
                  + [(t, "ml" if t in ml else "classical", f"task {t}")
                     for t in ids]
                  + [("out", "classical", "decision")])
    chain = ["in"] + ids + ["out"]
    a = ArchSpec(f"pair{index}-a", components, list(zip(chain, chain[1:])),
                 [("E", "epistemic", list(ml))]
                 + [(f"S_{t}", "stochastic", [t]) for t in stoch])
    b = ArchSpec(f"pair{index}-b", components,
                 [("in", t) for t in ids] + [(t, "out") for t in ids],
                 [(f"E_{t}", "epistemic", [t]) for t in ml]
                 + [(f"S_{t}", "stochastic", [t]) for t in stoch])
    a.fill_cpts(rng)
    b.fill_cpts(rng)
    vary = rng.choice(ml)
    evidence = {}
    if stoch:
        source = f"S_{vary}" if vary in stoch else f"S_{rng.choice(stoch)}"
        evidence[source] = rng.choice("LH")
    return PairInput(f"pair{index}", a.text(), b.text(), "out", vary,
                     evidence, probability(rng), round(rng.uniform(0.5, 0.95), 3))


def compare_small_inputs(seed, bundled_a, bundled_b):
    """The bundled case-study pair and one seeded pair per shape, in
    spread order by total variable count."""
    rng = rng_for("compare-small", seed)
    pairs = [PairInput("bundled", bundled_a, bundled_b, "Planning", "DE",
                       {"SU_DE": "H"}, 0.1, 0.9)]
    pairs += [design_pair(rng, i, *shape)
              for i, shape in enumerate(PAIR_SHAPES)]
    sizes = [18] + [2 * k + 3 + m + 2 * x for k, m, x in PAIR_SHAPES]
    return spread_order(pairs, sizes, rng)


# ---------------------------------------------------------------------------
# eval-large: 300-component chains and trees


@dataclass
class LargeInput:
    spec: ArchSpec
    text: str
    shape: str
    target: str
    evidence: dict
    path: list  # component ids from the tree root down to the target


def large_architecture(rng, name, shape, n=300, ml_every=10):
    """A data-flow chain or tree fed by one input sensor. Every
    ``ml_every``-th component is ml, with the shared epistemic source EU and
    a stochastic source of its own."""
    ids = [f"c{i:03d}" for i in range(n)]
    parent = {}
    for i in range(1, n):
        if shape == "chain":
            parent[ids[i]] = ids[i - 1]
        else:  # random recursive tree over a sliding window: deep, branching
            parent[ids[i]] = ids[rng.randrange(max(0, i - 8), i)]
    ml = [c for i, c in enumerate(ids) if i % ml_every == 0]
    spec = ArchSpec(
        name,
        [("cam", "sensor", "camera")]
        + [(c, "ml" if c in ml else "classical", "") for c in ids],
        [("cam", ids[0])] + [(parent[c], c) for c in ids[1:]],
        [("EU", "epistemic", list(ml))]
        + [(f"SU_{c}", "stochastic", [c]) for c in ml])
    spec.fill_cpts(rng)

    depth = {ids[0]: 0}
    for c in ids[1:]:
        depth[c] = depth[parent[c]] + 1
    target = max(ids, key=lambda c: (depth[c], c))
    path = [target]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    path.reverse()
    upstream = path[max(1, len(path) // 10)]
    evidence = {upstream: rng.choice("LH")}
    return LargeInput(spec, spec.text(), shape, target, evidence, path)


def eval_large_inputs(seed, count, n=300):
    """Two trees for every chain, in a fixed pattern."""
    rng = rng_for("eval-large", seed)
    return [large_architecture(rng, f"large{i}",
                               "chain" if i % 3 == 0 else "tree", n)
            for i in range(count)]


# ---------------------------------------------------------------------------
# ingest: documents of 20-150 components, and calibration CSVs


@dataclass
class DocInput:
    spec: ArchSpec
    text: str
    nversion_target: str
    impact_queries: list


@dataclass
class CsvInput:
    text: str
    parents: list


def ingest_document(rng, name, n):
    ids = [f"k{i:03d}" for i in range(n)]
    components = [("src", "sensor", "input")]
    edges = [("src", ids[0])]
    ml = []
    for i, c in enumerate(ids):
        is_ml = i == 0 or rng.random() < 0.3
        components.append((c, "ml" if is_ml else "classical", f"component {i}"))
        if is_ml:
            ml.append(c)
        if i == 0:
            continue
        window = ids[max(0, i - 10):i]
        fan_in = 2 if len(window) > 1 and rng.random() < 0.25 else 1
        for p in sorted(rng.sample(window, fan_in), key=ids.index):
            edges.append((p, c))
    n_eu = (len(ml) + 7) // 8
    groups = [[] for _ in range(n_eu)]
    for c in ml:
        groups[rng.randrange(n_eu)].append(c)
    annotations = [(f"EU{j}", "epistemic", g) for j, g in enumerate(groups) if g]
    annotations += [(f"SU_{c}", "stochastic", [c]) for c in ml
                    if rng.random() < 0.7]
    spec = ArchSpec(name, components, edges, annotations)
    spec.fill_cpts(rng)
    return DocInput(spec, spec.text(), rng.choice(ml),
                    [rng.choice(ids) for _ in range(3)])


def calibration_csv(rng, n_records=20000, parents=("EU", "SU")):
    lines = ["sample_id,uncertainty,correct," + ",".join(parents)]
    for i in range(n_records):
        u = round(rng.random(), 6)
        correct = rng.random() > u * 0.6
        lines.append(f"s{i:05d},{u!r},{'true' if correct else 'false'},"
                     + ",".join(rng.choice("LH") for _ in parents))
    return CsvInput("\n".join(lines) + "\n", list(parents))


def ingest_inputs(seed, n_docs=16, n_csvs=2):
    """Documents with sizes evenly spread over 20-150 components, in spread
    order, with a calibration CSV before every eighth document."""
    rng = rng_for("ingest", seed)
    sizes = [20 + round(i * 130 / (n_docs - 1)) for i in range(n_docs)]
    docs = [ingest_document(rng, f"doc{i}", n) for i, n in enumerate(sizes)]
    csvs = [calibration_csv(rng) for _ in range(n_csvs)]
    sequence = []
    for i, doc in enumerate(spread_order(docs, sizes, rng)):
        if i % 8 == 0:
            sequence.append(csvs[(i // 8) % n_csvs])
        sequence.append(doc)
    return sequence


# ---------------------------------------------------------------------------
# cli: a seeded mix of commands on the bundled files

CLI_KINDS = ("validate", "eval", "sweep", "compare", "apply-pattern",
             "calibrate", "impact")


def cli_command(rng, kind, round_, e2e, cb, samples):
    """One command. Which file and component the costly kinds (sweep and
    compare) use is fixed by ``round_``; the seed picks states and numbers."""
    arch = (e2e, cb, e2e)[round_]
    ml = ("OD", "DE", "SS")[round_]
    if kind == "validate":
        return ["validate", arch]
    if kind == "eval":
        evidence = rng.choice(([], ["--evidence", f"SU_{ml}=H"],
                               ["--evidence", f"{ml}={rng.choice('LH')}"]))
        return ["eval", arch, "--target", "Planning"] + evidence
    if kind == "sweep":
        return ["sweep", arch, "--target", "Planning", "--vary", f"{ml}@all",
                "--evidence", f"SU_{ml}={rng.choice('LH')}"]
    if kind == "compare":
        return ["compare", e2e, cb, "--target", "Planning", "--vary",
                f"{ml}@all", "--evidence", f"SU_{ml}={rng.choice('LH')}"]
    if kind == "apply-pattern":
        return ["apply-pattern", "n-version", arch, "--component", ml,
                "--monitor", "lidar", "--monitor-p-high",
                repr(probability(rng)), "--weight",
                repr(round(rng.uniform(0.5, 0.95), 3))]
    if kind == "calibrate":
        return ["calibrate", samples] + rng.choice(([], ["--parents", "EU"]))
    return ["impact", arch, "--change", rng.choice(("camera", ml))]


def cli_inputs(seed, e2e, cb, samples, rounds=3):
    """``rounds`` rounds of one command of each kind, each round in a
    seeded order, so every seed and every prefix of a round runs the same
    share of each kind."""
    rng = rng_for("cli", seed)
    commands = []
    for round_ in range(rounds):
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        commands += [cli_command(rng, kind, round_, e2e, cb, samples)
                     for kind in kinds]
    return commands
