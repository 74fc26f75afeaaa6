import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archuncert import bn
from archuncert.bn import (BayesianNetwork, Cpt, Factor, Variable,
                           _elimination, _elimination_order, factor_product,
                           joint_probability,
                           marginal_brute_force, marginal_ve, plan_ve,
                           restrict,
                           row_keys, sum_out, validate_network)
from archuncert.errors import (ImpossibleEvidenceError, InvalidNetworkError,
                               UsageError, WidthLimitError)
from helpers import (random_network, random_query,
                     reference_elimination_joint, reference_elimination_order,
                     reference_factor_product, reference_restrict,
                     reference_sum_out, two_node_network)

# both inference routes answer through the same query contract
ROUTES = (marginal_ve, marginal_brute_force)


def chain_network():
    return BayesianNetwork(
        variables=(Variable("A", "component", ()),
                   Variable("B", "component", ("A",)),
                   Variable("C", "component", ("B",))),
        cpts={"A": Cpt("A", (), {"": 0.5}),
              "B": Cpt("B", ("A",), {"L": 0.5, "H": 0.5}),
              "C": Cpt("C", ("B",), {"L": 0.5, "H": 0.5})})


def _chain(rng, n):
    """v0 -> v1 -> ... -> v(n-1), every p_high drawn from [0.3, 0.7]."""
    ids = [f"v{i}" for i in range(n)]
    variables, cpts = [], {}
    for i, var in enumerate(ids):
        parents = (ids[i - 1],) if i else ()
        rows = {key: rng.uniform(0.3, 0.7) for key in row_keys(parents)}
        variables.append(Variable(var, "component", parents))
        cpts[var] = Cpt(var, parents, rows)
    return BayesianNetwork(tuple(variables), cpts)


class TestValidation:
    def test_well_formed_chain_is_ok(self):
        assert validate_network(chain_network()).ok

    def test_two_cycle_is_named(self):
        net = BayesianNetwork(
            variables=(Variable("A", "component", ("B",)),
                       Variable("B", "component", ("A",))),
            cpts={"A": Cpt("A", ("B",), {"L": 0.5, "H": 0.5}),
                  "B": Cpt("B", ("A",), {"L": 0.5, "H": 0.5})})
        report = validate_network(net)
        cycles = [f for f in report.findings if f.kind == "cycle"]
        assert len(cycles) == 1
        path = cycles[0].path
        assert path[0] == path[-1]
        assert set(path) == {"A", "B"}

    def test_cycle_path_follows_the_search(self):
        # the search starts at the first id in sorted order and follows
        # parents in declared order; D is a dead end on the way round
        net = BayesianNetwork(
            variables=(Variable("A", "component", ("B",)),
                       Variable("B", "component", ("C",)),
                       Variable("C", "component", ("D", "A")),
                       Variable("D", "component", ())),
            cpts={})
        cycle = next(f for f in validate_network(net).findings
                     if f.kind == "cycle")
        assert cycle.path == ("A", "B", "C", "A")

    def test_missing_cpt_row(self):
        net = BayesianNetwork(
            variables=(Variable("A", "component", ()),
                       Variable("B", "component", ("A",))),
            cpts={"A": Cpt("A", (), {"": 0.3}),
                  "B": Cpt("B", ("A",), {"H": 0.9})})
        report = validate_network(net)
        assert [ (f.kind, f.variable, f.detail) for f in report.findings ] == [
            ("missing CPT row", "B", "row 'L'")]

    def test_missing_rows_are_capped(self):
        # 16 rows expected, one present; 'X' and 'L,L,L' are not row keys
        parents = ("a", "b", "c", "d")
        net = BayesianNetwork(
            variables=(Variable("a", "component", ()),
                       Variable("b", "component", ()),
                       Variable("c", "component", ()),
                       Variable("d", "component", ()),
                       Variable("e", "component", parents),
                       Variable("f", "component", parents)),
            cpts={**{v: Cpt(v, (), {"": 0.5}) for v in "abcd"},
                  "e": Cpt("e", parents, {"H,H,L,H": 0.5, "X": 0.1,
                                          "L,L,L": 0.2})})
        keys = ["H,H,H,H", "H,H,H,L", "H,H,L,L", "H,L,H,H", "H,L,H,L",
                "H,L,L,H", "H,L,L,L", "L,H,H,H", "L,H,H,L", "L,H,L,H"]
        assert [str(f) for f in validate_network(net).findings] == [
            *(f"missing CPT row variable=e row {k!r}" for k in keys),
            "missing CPT row variable=e and 5 more",
            "extra CPT row variable=e row 'L,L,L'",
            "extra CPT row variable=e row 'X'",
            f"missing CPT variable=f expected rows {row_keys(parents)[:10]}"
            " and 6 more"]

    @pytest.mark.parametrize("seed", range(20))
    def test_findings_match_full_enumeration_up_to_ten_rows(self, seed):
        # every key the table could have, compared as sets: the findings
        # of the old full enumeration, to which the capped ones reduce
        rng = random.Random(seed)
        parents = tuple("abc"[:rng.randint(0, 3)])
        candidates = row_keys(parents) + ["", "L", "H,L", "x", "L,L,L,L"]
        rows = {key: rng.choice([0.5, 1.5])
                for key in rng.sample(candidates, rng.randint(0, 6))}
        net = BayesianNetwork(
            (*(Variable(p, "component", ()) for p in parents),
             Variable("v", "component", parents)),
            {**{p: Cpt(p, (), {"": 0.5}) for p in parents},
             "v": Cpt("v", parents, rows)})
        expected, present = set(row_keys(parents)), set(rows)
        assert [str(f) for f in validate_network(net).findings] == [
            *(f"missing CPT row variable=v row {k!r}"
              for k in sorted(expected - present)),
            *(f"extra CPT row variable=v row {k!r}"
              for k in sorted(present - expected)),
            *(f"probability out of range variable=v row {k!r} has p_high 1.5"
              for k in sorted(present & expected) if rows[k] == 1.5)]

    def test_cpt_for_another_variable(self):
        net = BayesianNetwork(
            variables=(Variable("A", "component", ()),),
            cpts={"A": Cpt("B", (), {"": 0.5})})
        assert [(f.kind, f.variable, f.detail)
                for f in validate_network(net).findings] == [
            ("CPT variable mismatch", "A", "CPT is for 'B'")]

    def test_extra_row_out_of_range_duplicate_dangling(self):
        net = BayesianNetwork(
            variables=(Variable("A", "component", ()),
                       Variable("A", "component", ()),
                       Variable("B", "component", ("Z",))),
            cpts={"A": Cpt("A", (), {"": 1.5, "H": 0.2}),
                  "B": Cpt("B", ("Z",), {"L": 0.5, "H": 0.5})})
        kinds = {f.kind for f in validate_network(net).findings}
        assert {"duplicate id", "dangling parent", "extra CPT row",
                "probability out of range"} <= kinds

    def test_root_kind_with_parents(self):
        net = BayesianNetwork(
            variables=(Variable("A", "component", ()),
                       Variable("E", "epistemic", ("A",))),
            cpts={"A": Cpt("A", (), {"": 0.5}),
                  "E": Cpt("E", ("A",), {"L": 0.5, "H": 0.5})})
        assert [str(f) for f in validate_network(net).findings] == [
            "root kind with parents variable=E "
            "kind 'epistemic' variables must be roots"]

    def test_repeated_parent_is_refused(self):
        # a table has one bit per variable, so a repeated parent has none
        net = BayesianNetwork(
            variables=(Variable("a", "component", ()),
                       Variable("b", "component", ("a", "a"))),
            cpts={"a": Cpt("a", (), {"": 0.3}),
                  "b": Cpt("b", ("a", "a"), {"L,L": 0.1, "L,H": 0.2,
                                             "H,L": 0.5, "H,H": 0.4})})
        assert [str(f) for f in validate_network(net).findings] == [
            "repeated parent variable=b parent 'a' listed twice"]
        for marginal in ROUTES:
            with pytest.raises(InvalidNetworkError) as exc:
                marginal(net, "b")
            assert str(exc.value) == (
                "invalid network: repeated parent variable=b "
                "parent 'a' listed twice")

    def test_invalid_network_error_text(self):
        net = BayesianNetwork(
            variables=(Variable("A", "component", ("B",)),
                       Variable("B", "component", ("A",)),
                       Variable("A", "component", ("B",))),
            cpts={"A": Cpt("A", ("B",), {"L": 0.5, "H": 0.5}),
                  "B": Cpt("B", ("A",), {"L": 0.5, "H": 0.5})})
        with pytest.raises(InvalidNetworkError) as exc:
            marginal_ve(net, "B")
        assert str(exc.value) == (
            "invalid network: duplicate id variable=A; "
            "cycle variable=A path=A->B->A")

    def test_inference_refuses_invalid_network(self):
        net = BayesianNetwork(
            variables=(Variable("A", "component", ("B",)),
                       Variable("B", "component", ("A",))),
            cpts={"A": Cpt("A", ("B",), {"L": 0.5, "H": 0.5}),
                  "B": Cpt("B", ("A",), {"L": 0.5, "H": 0.5})})
        with pytest.raises(InvalidNetworkError):
            marginal_ve(net, "A")
        with pytest.raises(InvalidNetworkError):
            marginal_brute_force(net, "A")
        with pytest.raises(InvalidNetworkError):
            joint_probability(net, {"A": "H", "B": "H"})


class TestJointProbability:
    def test_hand_product_high(self):
        assert joint_probability(two_node_network(),
                                 {"A": "H", "B": "H"}) == 0.3 * 0.9

    def test_hand_product_low(self):
        assert joint_probability(two_node_network(),
                                 {"A": "L", "B": "L"}) == 0.7 * 0.8

    def test_deterministic_network(self):
        net = BayesianNetwork(
            variables=(Variable("A", "component", ()),
                       Variable("B", "component", ("A",))),
            cpts={"A": Cpt("A", (), {"": 1.0}),
                  "B": Cpt("B", ("A",), {"L": 1.0, "H": 1.0})})
        assert joint_probability(net, {"A": "H", "B": "H"}) == 1.0

    def test_incomplete_assignment_names_variables(self):
        with pytest.raises(UsageError, match="B"):
            joint_probability(two_node_network(), {"A": "H"})
        with pytest.raises(UsageError, match="X"):
            joint_probability(two_node_network(),
                              {"A": "H", "B": "H", "X": "H"})

    def test_sums_to_one_over_all_assignments(self):
        rng = random.Random(7)
        for _ in range(20):
            net = random_network(rng, n_min=3, n_max=6)
            import itertools
            ids = [v.id for v in net.variables]
            total = sum(
                joint_probability(net, dict(zip(ids, combo)))
                for combo in itertools.product("LH", repeat=len(ids)))
            assert abs(total - 1.0) <= 1e-9


class TestBruteForce:
    def test_prior_marginal(self):
        dist = marginal_brute_force(two_node_network(), "B")
        assert abs(dist["H"] - 0.41) <= 1e-12
        assert abs(dist["L"] - 0.59) <= 1e-12

    def test_bayes_inversion(self):
        dist = marginal_brute_force(two_node_network(), "A", {"B": "H"})
        assert abs(dist["H"] - 0.27 / 0.41) <= 1e-12

    def test_evidence_on_target(self):
        for marginal in ROUTES:
            dist = marginal(two_node_network(), "A", {"A": "H"})
            assert dist == {"L": 0.0, "H": 1.0}

    def test_impossible_evidence(self):
        net = BayesianNetwork(
            variables=(Variable("A", "component", ()),
                       Variable("B", "component", ("A",))),
            cpts={"A": Cpt("A", (), {"": 0.0}),
                  "B": Cpt("B", ("A",), {"L": 0.5, "H": 0.5})})
        for marginal in ROUTES:
            with pytest.raises(ImpossibleEvidenceError, match="A=H"):
                marginal(net, "B", {"A": "H"})


class TestFactorAlgebra:
    # tables are indexed by a bitmask, first scope variable most
    # significant, bit set = H: (L, H) for one variable,
    # (LL, LH, HL, HH) for two
    def f_a(self):
        return Factor(("A",), (0.7, 0.3))

    def f_a2(self):
        return Factor(("A",), (0.2, 0.9))

    def f_b(self):
        return Factor(("B",), (0.4, 0.6))

    def test_pointwise_product(self):
        product = factor_product(self.f_a(), self.f_a2())
        assert product.table == (0.7 * 0.2, 0.3 * 0.9)

    def test_outer_product(self):
        product = factor_product(self.f_a(), self.f_b())
        assert product.scope == ("A", "B")
        assert product.table[0b10] == 0.3 * 0.4  # A=H, B=L
        assert product.table[0b01] == 0.7 * 0.6  # A=L, B=H
        assert len(product.table) == 4

    def test_sum_out_recovers_per_state_sums(self):
        product = factor_product(self.f_a(), self.f_b())
        reduced = sum_out(product, "A")
        assert reduced.scope == ("B",)
        assert abs(reduced.table[0] - 0.4) <= 1e-15
        assert abs(reduced.table[1] - 0.6) <= 1e-15

    def test_sum_out_everything_gives_table_total(self):
        scalar = sum_out(self.f_a(), "A")
        assert scalar.scope == ()
        assert abs(scalar.table[0] - 1.0) <= 1e-15

    def test_sum_out_commutes(self):
        product = factor_product(self.f_a(), self.f_b())
        one = sum_out(sum_out(product, "A"), "B")
        other = sum_out(sum_out(product, "B"), "A")
        assert abs(one.table[0] - other.table[0]) <= 1e-15

    def test_row_keys_in_table_order(self):
        assert row_keys(()) == [""]
        assert row_keys(("A", "B")) == ["L,L", "L,H", "H,L", "H,H"]

    def test_sum_out_unknown_var(self):
        with pytest.raises(UsageError):
            sum_out(self.f_a(), "Z")

    def test_equals_index_map_formulas_on_random_factors(self):
        rng = random.Random(3000)
        names = "abcdefgh"

        def random_factor():
            scope = tuple(rng.sample(names, rng.randint(0, 6)))
            # some exact zeros and ones, as deterministic CPT rows give
            return Factor(scope, tuple(
                rng.choice((0.0, 1.0)) if rng.random() < 0.2 else rng.random()
                for _ in range(2 ** len(scope))))
        for _ in range(3000):
            f1, f2 = random_factor(), random_factor()
            assert factor_product(f1, f2) == reference_factor_product(f1, f2)
            var, state = rng.choice(names), rng.choice("LH")
            assert restrict(f1, var, state) == reference_restrict(f1, var,
                                                                  state)
            if f1.scope:
                var = rng.choice(f1.scope)
                assert sum_out(f1, var) == reference_sum_out(f1, var)


class TestVariableElimination:
    def test_matches_oracle_on_example(self):
        dist = marginal_ve(two_node_network(), "B")
        assert abs(dist["H"] - 0.41) <= 1e-12

    def test_uniform_chain(self):
        dist = marginal_ve(chain_network(), "C", {"A": "H"})
        assert abs(dist["H"] - 0.5) <= 1e-12

    def test_evidence_on_target(self):
        for marginal in ROUTES:
            assert marginal(two_node_network(), "A", {"A": "L"}) == {
                "L": 1.0, "H": 0.0}

    def test_impossible_evidence(self):
        net = BayesianNetwork(
            variables=(Variable("A", "component", ()),),
            cpts={"A": Cpt("A", (), {"": 1.0})})
        for marginal in ROUTES:
            with pytest.raises(ImpossibleEvidenceError):
                marginal(net, "A", {"A": "L"})

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_equals_brute_force_on_random_networks(self, seed):
        rng = random.Random(seed)
        net = random_network(rng, n_min=3, n_max=9)
        target, evidence = random_query(rng, net)
        try:
            oracle = marginal_brute_force(net, target, evidence)
        except ImpossibleEvidenceError:
            with pytest.raises(ImpossibleEvidenceError):
                marginal_ve(net, target, evidence)
            return
        dist = marginal_ve(net, target, evidence)
        for state in ("L", "H"):
            assert abs(dist[state] - oracle[state]) <= 1e-12
        assert abs(sum(dist.values()) - 1.0) <= 1e-12

    def test_long_evidence_chain_does_not_underflow(self):
        # P(e) is about 2^-1200, below the smallest double
        net = _chain(random.Random(1200), 1200)
        cpts = net.cpts
        evidence = {v.id: "H" for v in net.variables if v.id != "v600"}
        # v600's Markov blanket is v599 and v601, both H
        a = cpts["v600"].rows["H"]
        b, c = cpts["v601"].rows["H"], cpts["v601"].rows["L"]
        expected = a * b / (a * b + (1.0 - a) * c)
        dist = marginal_ve(net, "v600", evidence)
        assert abs(dist["H"] - expected) <= 1e-12

    def test_impossible_evidence_message_counts_past_ten_pairs(self):
        rng = random.Random(1200)
        net = _chain(rng, 1200)
        net.cpts["v0"].rows[""] = 0.0
        evidence = {v.id: "H" for v in net.variables if v.id != "v600"}
        with pytest.raises(ImpossibleEvidenceError) as exc:
            marginal_ve(net, "v600", evidence)
        assert exc.value.evidence == evidence
        message = str(exc.value)
        assert len(message) < 300
        assert message == (
            "impossible evidence: {v0=H, v1=H, v10=H, v100=H, v1000=H, "
            "v1001=H, v1002=H, v1003=H, v1004=H, v1005=H, and 1189 more}")
        eleven = {f"v{i}": "LH"[i % 2] for i in range(11)}
        assert str(ImpossibleEvidenceError(eleven, 0.5, "x")) == (
            "network 'x': impossible evidence: {v0=L, v1=H, v10=L, v2=L, "
            "v3=H, v4=L, v5=H, v6=L, v7=H, v8=L, and 1 more} at t = 0.5")

    def test_impossible_evidence_message_lists_up_to_ten_pairs(self):
        ten = {f"v{i}": "LH"[i % 2] for i in range(10)}
        assert str(ImpossibleEvidenceError(ten)) == (
            "impossible evidence: {v0=L, v1=H, v2=L, v3=H, v4=L, v5=H, "
            "v6=L, v7=H, v8=L, v9=H}")

    def test_deterministic_repeat(self):
        rng = random.Random(123)
        net = random_network(rng, n_min=6, n_max=10)
        target, evidence = random_query(rng, net)
        first = marginal_ve(net, target, evidence)
        for _ in range(3):
            assert marginal_ve(net, target, evidence) == first

    def test_unknown_target_and_evidence(self):
        for marginal in ROUTES:
            with pytest.raises(UsageError, match="unknown target"):
                marginal(two_node_network(), "Z")
            with pytest.raises(UsageError, match="unknown variables"):
                marginal(two_node_network(), "A", {"Z": "H"})
            with pytest.raises(UsageError, match="state must be"):
                marginal(two_node_network(), "A", {"B": "X"})


def _structure(families):
    return BayesianNetwork(
        tuple(Variable(v, "component", parents) for v, parents in families),
        {})


class TestEliminationOrder:
    CHAIN = _structure([("A", ()), ("B", ("A",)), ("C", ("B",)),
                        ("D", ("C",)), ("E", ("D",))])
    # c joins p1, p2 and p3; d hangs off c
    STAR = _structure([("p1", ()), ("p2", ()), ("p3", ()),
                       ("c", ("p1", "p2", "p3")), ("d", ("c",))])

    @pytest.mark.parametrize("target, evidence, order", [
        ("E", {}, ["A", "B", "C", "D"]),
        ("A", {}, ["E", "D", "C", "B"]),
        ("C", {"A": "H"}, ["B", "E", "D"]),
        ("C", {"C": "L"}, ["A", "B", "D", "E"]),
    ])
    def test_chain(self, target, evidence, order):
        assert _elimination_order(self.CHAIN, target, evidence) == order

    @pytest.mark.parametrize("target, evidence, order", [
        ("p1", {}, ["d", "c", "p2", "p3"]),  # c and p2 tie on degree 3
        ("d", {}, ["p1", "p2", "p3", "c"]),
        ("p1", {"c": "H"}, ["d", "p2", "p3"]),
    ])
    def test_star(self, target, evidence, order):
        assert _elimination_order(self.STAR, target, evidence) == order

    @pytest.mark.width_limit
    def test_width_limit(self, monkeypatch):
        # eliminating c, after d, sums a table over c and p1-p3: width 3
        monkeypatch.setattr(bn, "MAX_WIDTH", 3)
        assert _elimination_order(self.STAR, "p1", {}) == [
            "d", "c", "p2", "p3"]
        monkeypatch.setattr(bn, "MAX_WIDTH", 2)
        with pytest.raises(WidthLimitError) as exc:
            _elimination_order(self.STAR, "p1", {})
        assert str(exc.value) == ("induced width at least 3 exceeds the "
                                  "limit of 2: eliminating 'c' needs a table "
                                  "of at least 2^4 entries")
        # evidence on c splits the star: width 2
        assert _elimination_order(self.STAR, "p1", {"c": "H"}) == [
            "d", "p2", "p3"]

    def test_matches_scope_rescan_on_random_networks(self):
        rng = random.Random(2024)
        for _ in range(1200):
            net = random_network(rng, n_min=1, n_max=16,
                                 max_parents=rng.randint(1, 4))
            variables = list(net.variables)
            rng.shuffle(variables)  # declaration order need not be topological
            net = BayesianNetwork(tuple(variables), net.cpts)
            ids = [v.id for v in variables]
            target = rng.choice(ids)
            # evidence may include the target
            evidence = {v: rng.choice("LH") for v in
                        rng.sample(ids, rng.randint(0, min(3, len(ids))))}
            assert (_elimination_order(net, target, evidence)
                    == reference_elimination_order(net, target, evidence))


class TestBucketRun:
    def test_equals_list_scan_run_on_random_networks(self):
        rng = random.Random(808)
        on_target = 0
        for _ in range(1000):
            net = random_network(rng, n_min=1, n_max=12,
                                 max_parents=rng.randint(1, 4))
            variables = list(net.variables)
            rng.shuffle(variables)  # declaration order need not be topological
            # some deterministic rows, so some tables hold exact zeros
            cpts = {var: Cpt(var, cpt.parents,
                             {key: rng.choice((0.0, 1.0))
                              if rng.random() < 0.2 else p
                              for key, p in cpt.rows.items()})
                    for var, cpt in net.cpts.items()}
            net = BayesianNetwork(tuple(variables), cpts)
            ids = [v.id for v in variables]
            target = rng.choice(ids)
            evidence = {v: rng.choice("LH") for v in
                        rng.sample(ids, rng.randint(0, min(4, len(ids))))}
            on_target += target in evidence
            order = _elimination_order(net, target, evidence)
            assert (_elimination(net, target, evidence)(cpts)
                    == (reference_elimination_joint(net, target, evidence,
                                                    order, cpts), 0))
        assert on_target >= 100


def _with_random_rows(rng, cpts, varied):
    """``cpts`` with new rows for the ``varied`` variables, some 0 or 1."""
    cpts = dict(cpts)
    for var in varied:
        old = cpts[var]
        cpts[var] = Cpt(var, old.parents, {
            key: rng.choice((0.0, 1.0)) if rng.random() < 0.2 else rng.random()
            for key in old.rows})
    return cpts


class TestCompiledPlan:
    """One plan with some CPTs varied, run on many CPT maps, must do the
    float operations of a plan with nothing varied made for each map. A run
    is given only the varied CPTs, as it reads no others."""

    @staticmethod
    def _runs(net, target, evidence, varied, maps):
        """The fresh plans' results, each checked against the one plan's."""
        joint = _elimination(net, target, evidence, frozenset(varied))
        results = []
        for cpts in maps:
            fresh = _elimination(BayesianNetwork(net.variables, cpts),
                                 target, evidence)(cpts)
            assert joint({var: cpts[var] for var in varied}) == fresh
            results.append(fresh)
        return results

    def test_equals_a_fresh_plan_per_map_on_random_networks(self):
        rng = random.Random(1212)
        seen = Counter()
        for _ in range(600):
            net = random_network(rng, n_min=1, n_max=10,
                                 max_parents=rng.randint(1, 4))
            variables = list(net.variables)
            rng.shuffle(variables)
            ids = [v.id for v in variables]
            net = BayesianNetwork(tuple(variables),
                                  _with_random_rows(rng, net.cpts, ids))
            target = rng.choice(ids)
            evidence = {v: rng.choice("LH") for v in
                        rng.sample(ids, rng.randint(0, min(4, len(ids))))}
            varied = rng.sample(ids, rng.randint(1, min(3, len(ids))))
            maps = [_with_random_rows(rng, net.cpts, varied)
                    for _ in range(3)]
            self._runs(net, target, evidence, varied, maps)
            families = {v.id: v.parents + (v.id,) for v in variables}
            seen["evidence on the target"] += target in evidence
            seen["varied target"] += target in varied
            seen["varied and observed"] += bool(set(varied) & set(evidence))
            # its factor is a scalar, so it is live in the last bucket
            seen["varied, family all evidence"] += any(
                set(families[v]) <= set(evidence) for v in varied)
        assert min(seen.values()) >= 150, seen

    def test_unknown_varied_variable(self):
        with pytest.raises(UsageError, match=r"varied names unknown "
                                             r"variables: \['Z'\]"):
            plan_ve(two_node_network(), "B", varied={"Z", "A"})

    @pytest.mark.parametrize("varied", [["v0"], ["v900"], ["v600", "v1199"]])
    def test_long_evidence_chain_rescales_in_live_steps(self, varied):
        # every factor lands in v600's bucket, the only one: v0's is first,
        # so with v0 varied every product and every rescaling is live, and
        # with v900 varied the products before it are folded
        net = _chain(random.Random(1200), 1200)
        evidence = {v.id: "H" for v in net.variables if v.id != "v600"}
        rng = random.Random(5)
        maps = [{**net.cpts, **{var: Cpt(var, net.cpts[var].parents, {
            key: rng.uniform(0.3, 0.7) for key in net.cpts[var].rows})
            for var in varied}} for _ in range(3)]
        for (low, high), exponent in self._runs(net, "v600", evidence,
                                                varied, maps):
            # P(e) is about 2^-1200: rescaled at least twice, by 2^500 or more
            assert exponent <= -1000 and 0.0 < max(low, high)
