"""Tests of the benchmark itself: self time, generators, references."""

import random

import pytest

import gen
import oracles
import spans
from run import tail
from archuncert import (NVersionSpec, apply_n_version, marginal_brute_force,
                        parse_architecture, to_network)


def test_self_time_on_hand_built_tree():
    #  op 0..10: a 1..4 (b 2..3), c 5..9 (d 6..8, e 7..9.5 clipped at 9)
    tree = [("op", 0.0, 10.0, -1, 0),
            ("a", 1.0, 4.0, 0, 0),
            ("b", 2.0, 3.0, 1, 0),
            ("c", 5.0, 9.0, 0, 0),
            ("d", 6.0, 8.0, 3, 0),
            ("e", 7.0, 9.5, 3, 0)]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0,
                                                    2.5])
    table = spans.per_function(tree, n_ops=2)
    assert table["op"][:2] == pytest.approx((0.5, 1500.0))
    assert table["c"][:2] == pytest.approx((0.5, 500.0))


def test_tracer_records_nested_calls_once_per_binding():
    import archuncert
    from archuncert import analysis, bn

    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert analysis.marginal_ve is bn.marginal_ve
        net = to_network(parse_architecture(
            archuncert.example_path("end-to-end.arch").read_text()))
        archuncert.evaluate(net, "Planning", {"SU_DE": "H"})
    finally:
        restore()
    names = [s[0] for s in tracer.spans()]
    assert names.count("analysis.evaluate") == 1
    assert names.count("bn.marginal_ve") == 1
    assert names.count("formats.yaml_compose") == 1
    assert tracer.counters["bn.max_factor_scope"] >= 2
    parents = {s[0]: tracer.spans()[s[3]][0] for s in tracer.spans()
               if s[3] >= 0}
    assert parents["bn.marginal_ve"] == "analysis.evaluate"
    assert bn.marginal_ve.__module__ == "archuncert.bn"
    assert not hasattr(bn.marginal_ve, "__wrapped__")


def test_tail_is_highest_percentile_with_ten_beyond():
    durations = [float(i) for i in range(40)]
    assert tail(durations) == (29.0, 75.0, 40)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _all_bytes(seed):
    e2e = "bundled-a\n"
    cb = "bundled-b\n"
    parts = [p.text_a + p.text_b + repr((p.vary, p.evidence, p.weight))
             for p in gen.compare_small_inputs(seed, e2e, cb)]
    parts += [i.text + repr(i.evidence) for i in gen.eval_large_inputs(seed, 3)]
    parts += [getattr(i, "text") + repr(getattr(i, "impact_queries", None))
              for i in gen.ingest_inputs(seed, n_docs=8, n_csvs=1)]
    parts += [" ".join(c) for c in gen.cli_inputs(seed, "a", "b", "c")]
    return "\n".join(parts).encode()


def test_generators_are_deterministic():
    assert _all_bytes(7) == _all_bytes(7)
    assert _all_bytes(7) != _all_bytes(8)


def test_generated_documents_are_valid_and_sized():
    pairs = gen.compare_small_inputs(3, "", "")
    assert len(pairs) == len(gen.PAIR_SHAPES) + 1
    for pair in (p for p in pairs if p.name != "bundled"):
        for text in (pair.text_a, pair.text_b):
            n = len(to_network(parse_architecture(text)).variables)
            assert 3 <= n <= 12
    large = gen.eval_large_inputs(3, 2)
    assert [len(to_network(parse_architecture(i.text)).variables)
            for i in large] == [331, 331]
    sequence = gen.ingest_inputs(3)
    sizes = sorted(len(i.spec.components) - 1 for i in sequence
                   if isinstance(i, gen.DocInput))
    assert sizes[0] == 20 and sizes[-1] == 150 and len(sizes) == 16
    assert len(sequence) == 18


def test_spread_order_balances_every_prefix():
    rng = random.Random(1)
    order = gen.spread_order(list(range(20)), list(range(20)), rng)
    assert sorted(order) == list(range(20))
    for end in range(5, 21):
        prefix = order[:end]
        assert abs(sum(prefix) / end - 9.5) < 3.5


@pytest.mark.parametrize("shape", ["chain", "tree"])
@pytest.mark.parametrize("seed", range(4))
def test_eval_large_reference_matches_brute_force(shape, seed):
    rng = random.Random(seed)
    item = gen.large_architecture(rng, "small", shape, n=9, ml_every=3)
    net = to_network(parse_architecture(item.text))
    assert len(net.variables) == 13
    want = marginal_brute_force(net, item.target, item.evidence)["H"]
    got = oracles.tree_marginal(item.spec, item.path, item.evidence)
    assert got == pytest.approx(want, abs=1e-12)


def test_sweep_oracle_matches_brute_force_on_every_grid_point():
    pair = gen.compare_small_inputs(5, "", "")[4]
    arch = parse_architecture(pair.text_b)
    arch = apply_n_version(arch, NVersionSpec(pair.vary, "mon", 0.2, 0.7))
    net = to_network(arch)
    grid = [i * 0.1 for i in range(11)]
    mass = oracles.affine_sweep_coefficients(net, pair.target, pair.evidence,
                                             pair.vary)
    for t, p in zip(grid, oracles.sweep_curve(mass, grid)):
        want = marginal_brute_force(oracles.with_rows(net, pair.vary, t),
                                    pair.target, pair.evidence)["H"]
        assert p == pytest.approx(want, abs=1e-12)


def test_crossings_follow_the_documented_rule():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    a = [0.6, 0.5, 0.5, 0.2, 0.2]
    b = [0.5, 0.5, 0.5, 0.3, 0.2]
    assert oracles.crossings(grid, a, b) == [(0.0, 0.75, 0.375,
                                              "a_falls_below_b")]
    assert oracles.crossings(grid, [0.1, 0.3, 0.1, 0.1, 0.1],
                             [0.2] * 5) == [
        (0.0, 0.25, pytest.approx(0.125), "a_rises_above_b"),
        (0.25, 0.5, pytest.approx(0.375), "a_falls_below_b")]


def test_closed_loop_probes_before_and_after_every_op(monkeypatch):
    import probe
    import worker

    clock = iter([0.0, 0.1, 1.0, 1.3])  # two ops: 0.1 s and 0.3 s
    probes = iter([0.01, 0.03])          # after op 0, after op 1
    monkeypatch.setattr(worker.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(probe, "median_of", lambda n: 0.02)
    monkeypatch.setattr(probe, "timed", lambda: next(probes))

    class Echo:
        def op(self, item):
            return item

        def check(self, item, output):
            assert output == item

    durations, seen, failures, busy = worker.closed_loop(Echo(), [1, 2], 0.35)
    assert durations == pytest.approx([0.1, 0.3])
    assert seen == [0.02, 0.01, 0.03]
    assert busy == pytest.approx(0.4)
    assert failures == []


def test_scale_uses_the_median_of_the_nearest_probes():
    import probe
    import worker

    def at_reference(seconds, probe_s):
        return seconds * (probe.REFERENCE_S / probe_s) ** probe.EXPONENT

    probes = [1.0, 2.0, 4.0, 3.0, 5.0]  # op i lies between probes i and i+1
    got = worker.scale([1.0, 1.0, 1.0, 1.0], probes, reach=2)
    # windows: probes[0:3], [0:4], [1:5], [2:5]
    assert got == pytest.approx([at_reference(1.0, p)
                                 for p in (2.0, 2.5, 3.5, 4.0)])
    assert worker.scale([2.0], [1.0, 3.0], reach=1) == pytest.approx(
        [at_reference(2.0, 2.0)])
    assert probe.to_reference(0.5, probe.REFERENCE_S) == 0.5
