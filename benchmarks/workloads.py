"""The four workloads: their inputs, one op each, and each op's check.

A workload object is made before archuncert is imported (``inputs`` needs
only the generators); ``load`` imports the program. ``warmup`` picks the
untimed set-up ops from the inputs. ``op`` is the only timed call.
``check`` runs outside the timed region and raises ``CheckFailed`` on any
mismatch with the independent references in ``oracles``; references are
built once per distinct input and kept.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import gen
import oracles

TOLERANCE = 1e-12
# A crossing estimate divides by the delta step between two grid points,
# so 1e-12 errors in the curves can move it by more than 1e-12.
CROSSING_TOLERANCE = 1e-9
GRID = [0.0 + i * 0.01 for i in range(101)]
DATA = os.path.join("src", "archuncert", "data")


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def close(a, b, tol=TOLERANCE):
    return abs(a - b) <= tol


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Workload:
    def __init__(self, seed):
        self.seed = seed
        self._refs = {}

    def reference(self, key, build):
        if key not in self._refs:
            self._refs[key] = build()
        return self._refs[key]

    def load(self):
        import archuncert
        self.au = archuncert

    def warmup(self, items):
        return items[:1]


# ---------------------------------------------------------------------------


class CompareSmall(Workload):
    """The case study's design-comparison session."""

    def inputs(self):
        return gen.compare_small_inputs(
            self.seed, read(os.path.join(DATA, "end-to-end.arch")),
            read(os.path.join(DATA, "component-based.arch")))

    def warmup(self, items):
        return [p for p in items if p.name == "bundled"]

    def op(self, pair):
        au = self.au
        arch_a = au.parse_architecture(pair.text_a)
        arch_b = au.parse_architecture(pair.text_b)
        net_a, net_b = au.to_network(arch_a), au.to_network(arch_b)
        p_a = au.evaluate(net_a, pair.target, pair.evidence)
        p_b = au.evaluate(net_b, pair.target, pair.evidence)
        spec = au.SweepSpec(((pair.vary, au.ALL_ROWS),), pair.target,
                            dict(pair.evidence))
        before = au.compare(net_a, net_b, spec, arch_a.name, arch_b.name)
        csv_before = au.write_sweep_csv(before)
        pattern = au.NVersionSpec(pair.vary, "mon", pair.monitor_p_high,
                                  pair.weight)
        after = au.compare(au.to_network(au.apply_n_version(arch_a, pattern)),
                           au.to_network(au.apply_n_version(arch_b, pattern)),
                           spec, arch_a.name, arch_b.name)
        return p_a, p_b, before, csv_before, after, au.write_sweep_csv(after)

    def _reference(self, pair):
        au = self.au
        arch_a = au.parse_architecture(pair.text_a)
        arch_b = au.parse_architecture(pair.text_b)
        pattern = au.NVersionSpec(pair.vary, "mon", pair.monitor_p_high,
                                  pair.weight)
        nets = [au.to_network(a) for a in
                (arch_a, arch_b, au.apply_n_version(arch_a, pattern),
                 au.apply_n_version(arch_b, pattern))]
        evals = [au.marginal_brute_force(n, pair.target, pair.evidence)["H"]
                 for n in nets[:2]]
        curves = [oracles.sweep_curve(oracles.affine_sweep_coefficients(
            net, pair.target, pair.evidence, pair.vary), GRID) for net in nets]
        # pin the enumeration to the program's brute-force oracle on the
        # designs before the pattern (after it, brute force costs 4x more)
        for index, pin in ((0, 37), (1, 63)):
            pinned = au.marginal_brute_force(
                oracles.with_rows(nets[index], pair.vary, GRID[pin]),
                pair.target, pair.evidence)["H"]
            expect(close(pinned, curves[index][pin]),
                   f"{pair.name}: enumeration oracle disagrees with "
                   f"marginal_brute_force at t={GRID[pin]}")
        comparisons = [(curves[0], curves[1]), (curves[2], curves[3])]
        return evals, [(a, b, oracles.crossings(GRID, a, b))
                       for a, b in comparisons]

    def check(self, pair, output):
        evals, comparisons = self.reference(pair.name,
                                            lambda: self._reference(pair))
        p_a, p_b, before, csv_before, after, csv_after = output
        expect(close(p_a, evals[0]) and close(p_b, evals[1]),
               f"{pair.name}: evaluate {p_a}, {p_b} vs oracle {evals}")
        for result, text, (curve_a, curve_b, crossings) in (
                (before, csv_before, comparisons[0]),
                (after, csv_after, comparisons[1])):
            for points, curve in ((result.sweep_a.points, curve_a),
                                  (result.sweep_b.points, curve_b)):
                expect(len(points) == len(GRID), f"{pair.name}: grid size")
                for (t, p), t_ref, p_ref in zip(points, GRID, curve):
                    expect(close(t, t_ref) and close(p, p_ref),
                           f"{pair.name}: sweep point ({t}, {p}) vs "
                           f"oracle ({t_ref}, {p_ref})")
            got = [(c.t_low, c.t_high, c.estimate, c.direction)
                   for c in result.crossings]
            self._check_crossings(pair.name, got, crossings)
            self._check_csv(pair.name, text, curve_a, curve_b, crossings)

    @staticmethod
    def _check_crossings(name, got, want):
        expect(len(got) == len(want),
               f"{name}: {len(got)} crossings, oracle has {len(want)}")
        for g, w in zip(got, want):
            expect(close(g[0], w[0]) and close(g[1], w[1])
                   and close(g[2], w[2], CROSSING_TOLERANCE) and g[3] == w[3],
                   f"{name}: crossing {g} vs oracle {w}")

    @staticmethod
    def _check_csv(name, text, curve_a, curve_b, crossings):
        lines = text.splitlines()
        expect(lines[0] == "t,p_high_a,p_high_b,delta", f"{name}: CSV header")
        rows = [[float(x) for x in line.split(",")]
                for line in lines[1:len(GRID) + 1]]
        for (t, pa, pb, delta), t_ref, a, b in zip(rows, GRID, curve_a,
                                                    curve_b):
            expect(close(t, t_ref) and close(pa, a) and close(pb, b)
                   and close(delta, a - b), f"{name}: CSV row {t}")
        comments = lines[len(GRID) + 1:]
        if not crossings:
            expect(comments == ["# no crossings"], f"{name}: CSV comments")
            return
        expect(len(comments) == len(crossings), f"{name}: CSV crossings")
        for line, (_, _, estimate, direction) in zip(comments, crossings):
            value = float(line.split("~", 1)[1].split(" ", 1)[0])
            expect(close(value, estimate, CROSSING_TOLERANCE)
                   and line.endswith(f"({direction})"),
                   f"{name}: CSV crossing line {line!r}")


# ---------------------------------------------------------------------------


class EvalLarge(Workload):
    """One exact query on a 300-component chain or tree per op."""

    def inputs(self):
        return gen.eval_large_inputs(self.seed, 16)

    def op(self, item):
        au = self.au
        net = au.to_network(au.parse_architecture(item.text))
        return au.evaluate(net, item.target, item.evidence)

    def check(self, item, output):
        want = self.reference(item.spec.name, lambda: oracles.tree_marginal(
            item.spec, item.path, item.evidence))
        expect(close(output, want),
               f"{item.spec.name}: evaluate {output} vs reference {want}")


# ---------------------------------------------------------------------------


class Ingest(Workload):
    """Document traffic: parse, validate, compile, transform, write back."""

    def __init__(self, seed):
        super().__init__(seed)
        self._verified = {}

    def inputs(self):
        return gen.ingest_inputs(self.seed)

    def warmup(self, items):
        """The median-size document and a CSV."""
        docs = sorted((i for i in items if isinstance(i, gen.DocInput)),
                      key=lambda d: len(d.spec.components))
        return [docs[len(docs) // 2],
                next(i for i in items if isinstance(i, gen.CsvInput))]

    def op(self, item):
        au = self.au
        if isinstance(item, gen.CsvInput):
            record_set = au.parse_calibration_csv(item.text)
            threshold = au.compute_threshold(record_set.records)
            return (record_set,
                    threshold,
                    au.estimate_prior(record_set.records, threshold.value),
                    au.estimate_conditional(record_set.records,
                                            threshold.value,
                                            record_set.parent_ids))
        arch = au.parse_architecture_document(item.text)
        report = au.validate_architecture(arch)
        net = au.to_network(arch)
        transformed = au.apply_n_version(arch, au.NVersionSpec(
            item.nversion_target, "mon", 0.1, 0.9))
        text = au.serialize_architecture(transformed)
        back = au.parse_architecture_document(text)
        impacts = [au.change_impact(arch, c) for c in item.impact_queries]
        return arch, report, net, transformed, text, back, impacts

    def check(self, item, output):
        if isinstance(item, gen.CsvInput):
            self._check_calibration(item, output)
        else:
            self._check_document(item, output)

    def _check_calibration(self, item, output):
        record_set, threshold, prior, rows = output
        def build():
            records, _ = oracles.csv_records(item.text)
            return len(records), oracles.calibration_counts(records,
                                                            item.parents)
        n_records, (want_threshold, overall, want_rows) = self.reference(
            id(item), build)
        expect(len(record_set.records) == n_records
               and list(record_set.parent_ids) == item.parents,
               "calibration: record count or parents")
        expect(threshold.value == want_threshold, "calibration: threshold")
        expect((prior.n_high, prior.n_total) == overall
               and prior.p_high == overall[0] / overall[1],
               "calibration: prior counts")
        expect(set(rows) == set(want_rows), "calibration: row keys")
        for key, (n_high, n_total) in want_rows.items():
            row = rows[key]
            expect((row.n_high, row.n_total) == (n_high, n_total)
                   and row.p_high == n_high / n_total,
                   f"calibration: row {key!r}")

    def _check_document(self, item, output):
        # the program is deterministic: an output equal to one that passed
        # the full check for the same input passes too
        if self._verified.get(id(item)) == output:
            return
        arch, report, net, transformed, text, back, impacts = output
        spec = item.spec
        name = spec.name
        expect([(c.id, c.kind, c.label) for c in arch.components]
               == spec.components
               and [tuple(e) for e in arch.edges] == spec.edges
               and [(a.id, a.kind, list(a.attaches_to))
                    for a in arch.annotations] == spec.annotations
               and {k: (list(c.parents), dict(c.rows))
                    for k, c in arch.cpts.items()} == spec.cpts,
               f"{name}: parse differs from the generated structure")
        expect(report.ok, f"{name}: validation findings {report}")
        inputs = spec.input_sensors()
        expect([(v.id, list(v.parents)) for v in net.variables]
               == [(a, []) for a, _, _ in spec.annotations]
               + [(c, spec.parents(c)) for c, _, _ in spec.components
                  if c not in inputs],
               f"{name}: compiled variables or parents")
        self._check_nversion(item, transformed)
        expect(back == transformed, f"{name}: round trip changed the structure")
        expect(self.au.serialize_architecture(back) == text,
               f"{name}: serialization is not a fixed point")
        for comp, got in zip(item.impact_queries, impacts):
            expect(set(got) == oracles.reachable(spec.edges, comp)
                   and len(got) == len(set(got))
                   and oracles.respects_edges(got, spec.edges),
                   f"{name}: change_impact({comp})")
        self._verified[id(item)] = output

    @staticmethod
    def _check_nversion(item, transformed):
        target, voter = item.nversion_target, f"voter_{item.nversion_target}"
        spec = item.spec
        edges = [(voter if s == target else s, d) for s, d in spec.edges]
        edges += [(target, voter), ("mon", voter)]
        expect([c.id for c in transformed.components]
               == [c for c, _, _ in spec.components] + ["mon", voter]
               and [tuple(e) for e in transformed.edges] == edges,
               f"{spec.name}: n-version wiring")
        cpt = transformed.cpts[voter]
        expect(tuple(cpt.parents) == (target, "mon")
               and all(close(cpt.rows[f"{t},{m}"],
                             0.9 * (m == "H") + 0.1 * (t == "H"))
                       for t in "LH" for m in "LH"),
               f"{spec.name}: voter CPT")


# ---------------------------------------------------------------------------


class Cli(Workload):
    """``python -m archuncert.cli`` subprocesses, one at a time."""

    def __init__(self, seed):
        super().__init__(seed)
        self.child = None  # (cli_child.py, record path) when traced
        self.child_records = []

    def inputs(self):
        return gen.cli_inputs(
            self.seed, os.path.join(DATA, "end-to-end.arch"),
            os.path.join(DATA, "component-based.arch"),
            os.path.join(DATA, "depth-samples.csv"))

    def warmup(self, items):
        return items[:2]

    def op(self, argv):
        prefix = list(self.child or ("-m", "archuncert.cli"))
        done = subprocess.run([sys.executable, *prefix, *argv],
                              capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    def check(self, argv, output):
        code, stdout, stderr = output
        if self.child is not None:
            with open(self.child[1], encoding="utf-8") as fh:
                self.child_records.append(json.load(fh))
            os.remove(self.child[1])
        expect(code == 0, f"{argv}: exit {code}: {stderr.strip()}")
        check = getattr(self, "_check_" + argv[0].replace("-", "_"))
        check(argv, stdout)

    def _arch(self, path):
        return self.au.parse_architecture(read(path))

    @staticmethod
    def _flag(argv, name, default=None):
        return argv[argv.index(name) + 1] if name in argv else default

    def _evidence(self, argv):
        value = self._flag(argv, "--evidence")
        return {} if value is None else dict([value.split("=")])

    def _spec(self, argv):
        return self.au.SweepSpec(
            ((self._flag(argv, "--vary").split("@")[0], self.au.ALL_ROWS),),
            self._flag(argv, "--target"), self._evidence(argv))

    def _check_validate(self, argv, stdout):
        expect(stdout == "OK\n", f"{argv}: {stdout!r}")

    def _check_eval(self, argv, stdout):
        def build():
            net = self.au.to_network(self._arch(argv[1]))
            target, evidence = self._flag(argv, "--target"), self._evidence(argv)
            value = self.au.evaluate(net, target, evidence)
            oracle = self.au.marginal_brute_force(net, target, evidence)["H"]
            expect(close(value, oracle), f"{argv}: {value} vs oracle {oracle}")
            return value
        want = self.reference(tuple(argv), build)
        expect(float(stdout) == want, f"{argv}: {stdout!r} vs {want!r}")

    def _check_sweep(self, argv, stdout):
        def build():
            arch = self._arch(argv[1])
            return self.au.write_sweep_csv(self.au.sweep(
                self.au.to_network(arch), self._spec(argv), arch.name))
        expect(stdout == self.reference(tuple(argv), build), f"{argv}: CSV")

    def _check_compare(self, argv, stdout):
        def build():
            a, b = self._arch(argv[1]), self._arch(argv[2])
            return self.au.write_sweep_csv(self.au.compare(
                self.au.to_network(a), self.au.to_network(b),
                self._spec(argv), a.name, b.name))
        expect(stdout == self.reference(tuple(argv), build), f"{argv}: CSV")

    def _check_apply_pattern(self, argv, stdout):
        def build():
            spec = self.au.NVersionSpec(
                self._flag(argv, "--component"), self._flag(argv, "--monitor"),
                float(self._flag(argv, "--monitor-p-high")),
                float(self._flag(argv, "--weight")))
            return self.au.serialize_architecture(
                self.au.apply_n_version(self._arch(argv[2]), spec))
        expect(stdout == self.reference(tuple(argv), build),
               f"{argv}: document")

    def _check_impact(self, argv, stdout):
        def build():
            arch = self._arch(argv[1])
            got = self.au.change_impact(arch, self._flag(argv, "--change"))
            expect(set(got) == oracles.reachable(arch.edges, argv[3]),
                   f"{argv}: change_impact vs BFS")
            return "".join(c + "\n" for c in got)
        expect(stdout == self.reference(tuple(argv), build), f"{argv}")

    def _check_calibrate(self, argv, stdout):
        def build():
            records, columns = oracles.csv_records(read(argv[1]))
            parents = self._flag(argv, "--parents", ",".join(columns))
            threshold, overall, by_row = oracles.calibration_counts(
                records, parents.split(","))
            lines = [f"threshold: {threshold!r}",
                     f"p_high: {overall[0] / overall[1]!r} "
                     f"({overall[0]}/{overall[1]})"]
            lines += [f"p_high[{k}]: {h / n!r} ({h}/{n})"
                      for k, (h, n) in sorted(by_row.items(),
                                              key=lambda kv: kv[0].split(","))]
            return "".join(line + "\n" for line in lines)
        expect(stdout == self.reference(tuple(argv), build),
               f"{argv}: {stdout!r}")


WORKLOADS = {"compare-small": CompareSmall, "eval-large": EvalLarge,
             "ingest": Ingest, "cli": Cli}
