import random
from dataclasses import replace

import pytest

from archuncert import bn
from archuncert.analysis import (ALL_ROWS, SweepSpec, _resolve_rows,
                                 _with_rows, compare, evaluate,
                                 find_crossings, sweep)
from archuncert.bn import (HIGH, BayesianNetwork, Cpt, Variable,
                           marginal_brute_force, marginal_ve, row_keys)
from archuncert.errors import ImpossibleEvidenceError, UsageError
from helpers import random_network, random_query, two_node_network


def affine_net(low, high):
    """A -> B where sweeping A's prior gives P(B=H) = low + (high-low)*t."""
    return BayesianNetwork(
        variables=(Variable("A", "component", ()),
                   Variable("B", "component", ("A",))),
        cpts={"A": Cpt("A", (), {"": 0.5}),
              "B": Cpt("B", ("A",), {"L": low, "H": high})})


class TestEvaluate:
    def test_prior(self):
        assert abs(evaluate(two_node_network(), "B") - 0.41) <= 1e-12

    def test_cpt_row_readoff(self):
        assert abs(evaluate(two_node_network(), "B", {"A": "H"}) - 0.9) <= 1e-12

    def test_evidence_on_target(self):
        assert evaluate(two_node_network(), "A", {"A": "H"}) == 1.0


class TestSweepSpec:
    def test_no_targets_rejected(self):
        with pytest.raises(UsageError) as exc:
            SweepSpec((), "B")
        assert str(exc.value) == (
            "sweep needs at least one (variable, row) target")

    def test_degenerate_range_rejected(self):
        with pytest.raises(UsageError):
            SweepSpec((("A", ""),), "B", start=0.5, stop=0.5)

    def test_step_must_divide_range(self):
        with pytest.raises(UsageError):
            SweepSpec((("A", ""),), "B", step=0.3)

    def test_default_grid_has_101_exact_points(self):
        grid = SweepSpec((("A", ""),), "B").grid
        assert len(grid) == 101
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert grid[50] == 50 * 0.01

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -0.1])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(UsageError, match="positive and finite"):
            SweepSpec((("A", ""),), "B", step=step)

    def test_step_wider_than_range_rejected(self):
        with pytest.raises(UsageError, match="wider than the range"):
            SweepSpec((("A", ""),), "B", step=1e10)

    @pytest.mark.parametrize("step", [1e-9, 5e-324])
    def test_grid_size_is_capped(self, step):
        with pytest.raises(UsageError, match="at most 100000"):
            SweepSpec((("A", ""),), "B", step=step)

    def test_largest_grid_is_accepted(self):
        assert len(SweepSpec((("A", ""),), "B", step=1e-5).grid) == 100001

    def test_grid_stays_inside_range(self):
        # 0.1 + 7 * (0.9 / 7) overshoots 1.0 by one ulp
        spec = SweepSpec((("A", ""),), "B", start=0.1,
                         step=0.1285714285714286)
        grid = spec.grid
        assert len(grid) == 8
        assert grid[0] == 0.1 and grid[-1] == 1.0
        assert all(0.1 <= t <= 1.0 for t in grid)


class TestSweep:
    def test_hand_computed_line(self):
        spec = SweepSpec((("A", ""),), "B", step=0.5)
        result = sweep(two_node_network(), spec)
        expected = [(0.0, 0.2), (0.5, 0.55), (1.0, 0.9)]
        for (t, p), (et, ep) in zip(result.points, expected):
            assert t == et
            assert abs(p - ep) <= 1e-12

    def test_101_points(self):
        result = sweep(two_node_network(), SweepSpec((("A", ""),), "B"))
        assert len(result.points) == 101

    def test_irrelevant_parameter_gives_constant_curve(self):
        net = BayesianNetwork(
            variables=(Variable("A", "component", ()),
                       Variable("B", "component", ())),
            cpts={"A": Cpt("A", (), {"": 0.3}),
                  "B": Cpt("B", (), {"": 0.6})})
        result = sweep(net, SweepSpec((("A", ""),), "B", step=0.25))
        assert {p for _, p in result.points} == {0.6}

    def test_input_network_unmodified(self):
        net = two_node_network()
        before = evaluate(net, "B")
        sweep(net, SweepSpec((("A", ""), ("B", ALL_ROWS)), "B", step=0.5))
        assert evaluate(net, "B") == before

    def test_unknown_selector(self):
        with pytest.raises(UsageError):
            sweep(two_node_network(),
                  SweepSpec((("Z", ""),), "B", step=0.5))
        with pytest.raises(UsageError):
            sweep(two_node_network(),
                  SweepSpec((("A", "H,H"),), "B", step=0.5))

    def test_all_selector_covers_every_row(self):
        # writing t into both rows of B pins P(B=H) = t exactly
        result = sweep(two_node_network(),
                       SweepSpec((("B", ALL_ROWS),), "B", step=0.25))
        for t, p in result.points:
            assert abs(p - t) <= 1e-12

    def test_affine_law_single_cpt_sweeps(self):
        rng = random.Random(31)
        for _ in range(15):
            net = random_network(rng, n_min=3, n_max=7)
            var = rng.choice([v.id for v in net.variables])
            query = rng.choice([v.id for v in net.variables])
            spec = SweepSpec(((var, ALL_ROWS),), query, step=0.1)
            result = sweep(net, spec)
            (t0, p0), (t1, p1) = result.points[0], result.points[-1]
            for t, p in result.points:
                chord = p0 + (p1 - p0) * (t - t0) / (t1 - t0)
                assert abs(p - chord) <= 1e-9

    def test_multi_cpt_sweep_matches_brute_force(self):
        rng = random.Random(77)
        net = random_network(rng, n_min=4, n_max=6)
        ids = [v.id for v in net.variables]
        spec = SweepSpec(((ids[0], ALL_ROWS), (ids[1], ALL_ROWS)),
                         ids[-1], step=0.25)
        result = sweep(net, spec)
        rows = _resolve_rows(net, spec)
        for t, p in result.points:
            working = replace(net, cpts=_with_rows(net.cpts, rows, t))
            assert abs(p - marginal_brute_force(working, ids[-1])["H"]) <= 1e-12


    def test_points_equal_per_point_ve(self):
        # one plan per network must give exactly what a fresh marginal_ve
        # on each grid point's network gives
        rng = random.Random(2024)
        for _ in range(40):
            net = random_network(rng, n_min=3, n_max=8)
            query, evidence = random_query(rng, net)
            targets = []
            for var in rng.sample([v.id for v in net.variables],
                                  rng.randint(1, 3)):
                keys = row_keys(net.cpts[var].parents)
                targets.append((var, rng.choice(keys + [ALL_ROWS])))
            spec = SweepSpec(tuple(targets), query, evidence, step=0.125)
            rows = _resolve_rows(net, spec)
            expected = []
            for t in spec.grid:
                working = replace(net, cpts=_with_rows(net.cpts, rows, t))
                try:
                    p = marginal_ve(working, query, evidence)[HIGH]
                except ImpossibleEvidenceError:
                    with pytest.raises(ImpossibleEvidenceError):
                        sweep(net, spec)
                    break
                expected.append((t, p))
            else:
                assert sweep(net, spec).points == tuple(expected)

    def test_impossible_evidence_at_an_endpoint(self):
        # P(B=H) = t, so B=H is impossible only at t = 0 and B=L at t = 1
        net = two_node_network()
        for state, t in (("H", 0.0), ("L", 1.0)):
            spec = SweepSpec((("B", ALL_ROWS),), "A", {"B": state}, step=0.5)
            with pytest.raises(ImpossibleEvidenceError) as exc:
                sweep(net, spec)
            assert str(exc.value) == (
                f"impossible evidence: {{B={state}}} at t = {t}")
            assert exc.value.evidence == {"B": state}
            rows = _resolve_rows(net, spec)
            with pytest.raises(ImpossibleEvidenceError):
                marginal_ve(replace(net, cpts=_with_rows(net.cpts, rows, t)),
                            "A", {"B": state})

    def test_validates_each_network_once(self, monkeypatch):
        calls = []
        validate = bn.validate_network

        def counting(net):
            calls.append(net)
            return validate(net)

        monkeypatch.setattr(bn, "validate_network", counting)
        spec = SweepSpec((("A", ""),), "B")
        sweep(two_node_network(), spec)
        assert len(calls) == 1
        compare(affine_net(0.2, 0.9), affine_net(0.8, 0.3), spec)
        assert len(calls) == 3


class TestFindCrossings:
    def grid(self, deltas):
        n = len(deltas)
        ts = [i / (n - 1) for i in range(n)]
        curve_a = [(t, 0.5 + d / 2) for t, d in zip(ts, deltas)]
        curve_b = [(t, 0.5 - d / 2) for t, d in zip(ts, deltas)]
        return curve_a, curve_b

    def test_linear_interpolation(self):
        crossings = find_crossings(*self.grid([0.1, -0.1]))
        assert len(crossings) == 1
        assert abs(crossings[0].estimate - 0.5) <= 1e-12
        assert crossings[0].direction == "a_falls_below_b"

    def test_identical_curves(self):
        curve = [(0.0, 0.2), (1.0, 0.8)]
        assert find_crossings(curve, curve) == []

    def test_tangential_touch_is_not_a_crossing(self):
        assert find_crossings(*self.grid([0.1, 0.0, 0.1])) == []

    def test_zero_at_grid_point_with_sign_change(self):
        crossings = find_crossings(*self.grid([0.1, 0.0, -0.1]))
        assert len(crossings) == 1
        assert abs(crossings[0].estimate - 0.5) <= 1e-12

    def test_grid_mismatch(self):
        with pytest.raises(UsageError):
            find_crossings([(0.0, 0.1), (1.0, 0.2)],
                           [(0.0, 0.1), (0.5, 0.2)])

    def test_grid_must_increase(self):
        curve = [(0.5, 0.1), (0.5, 0.2)]
        with pytest.raises(UsageError) as exc:
            find_crossings(curve, curve)
        assert str(exc.value) == (
            "find_crossings: grid must be strictly increasing")


class TestCompare:
    def test_self_comparison(self):
        net = two_node_network()
        spec = SweepSpec((("A", ""),), "B", step=0.5)
        result = compare(net, net, spec)
        assert result.crossings == ()
        assert result.deltas == [0.0, 0.0, 0.0]

    def test_crossing_of_two_affine_responses(self):
        # netA: P = 0.2 + 0.7 t, netB: P = 0.8 - 0.5 t, crossing at t = 0.5
        net_a = affine_net(0.2, 0.9)
        net_b = affine_net(0.8, 0.3)
        spec = SweepSpec((("A", ""),), "B", step=0.01)
        result = compare(net_a, net_b, spec)
        assert len(result.crossings) == 1
        crossing = result.crossings[0]
        assert crossing.t_low <= 0.5 <= crossing.t_high
        assert abs(crossing.estimate - 0.5) <= 0.01
        assert result.deltas[0] == pytest.approx(-0.6, abs=1e-12)
        assert result.deltas[-1] == pytest.approx(0.6, abs=1e-12)

    def test_impossible_evidence_names_the_network_and_grid_point(self):
        # P(B=H) is 0.2 + 0.7 t in A-net and 0.3 t in B-net
        spec = SweepSpec((("A", ""),), "A", {"B": "H"}, step=0.5)
        with pytest.raises(ImpossibleEvidenceError) as exc:
            compare(affine_net(0.2, 0.9), affine_net(0.0, 0.3), spec,
                    name_a="A-net", name_b="B-net")
        assert str(exc.value) == (
            "network 'B-net': impossible evidence: {B=H} at t = 0.0")
        assert exc.value.evidence == {"B": "H"}

    def test_invalid_spec_names_the_network(self):
        net_a = affine_net(0.2, 0.9)
        net_b = BayesianNetwork(
            variables=(Variable("X", "component", ()),),
            cpts={"X": Cpt("X", (), {"": 0.5})})
        spec = SweepSpec((("A", ""),), "B", step=0.5)
        with pytest.raises(UsageError, match="B-net"):
            compare(net_a, net_b, spec, name_a="A-net", name_b="B-net")
