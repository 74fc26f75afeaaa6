import random

import pytest

from archuncert import example_path
from archuncert.arch import (AnnotatedArchitecture, Component,
                             UncertaintyAnnotation, _parent_lists,
                             change_impact, to_network, validate_architecture)
from archuncert.bn import Cpt, validate_network
from archuncert.errors import InvalidArchitectureError, UsageError
from archuncert.formats import parse_architecture
from helpers import (brute_force_reachable, dag_architecture,
                     random_architecture, random_edge_dag,
                     reference_change_impact)


@pytest.fixture(scope="module")
def end_to_end():
    return parse_architecture(example_path("end-to-end.arch").read_text())


@pytest.fixture(scope="module")
def component_based():
    return parse_architecture(example_path("component-based.arch").read_text())


def minimal_unit():
    return AnnotatedArchitecture(
        name="minimal",
        components=(Component("M", "ml", "single task"),),
        edges=(),
        annotations=(UncertaintyAnnotation("EU", "epistemic", ("M",)),
                     UncertaintyAnnotation("SU", "stochastic", ("M",))),
        cpts={"EU": Cpt("EU", (), {"": 0.2}),
              "SU": Cpt("SU", (), {"": 0.1}),
              "M": Cpt("M", ("EU", "SU"),
                       {"L,L": 0.1, "L,H": 0.6, "H,L": 0.5, "H,H": 0.9})})


def convention_parents(arch, comp_id):
    """The parent-order convention, one component at a time: annotations
    attached to it, then its non-input predecessors, in declaration order."""
    inputs = {c.id for c in arch.components
              if c.kind == "sensor" and c.id not in arch.cpts}
    return (tuple(a.id for a in arch.annotations if comp_id in a.attaches_to)
            + tuple(src for src, dst in arch.edges
                    if dst == comp_id and src not in inputs))


class TestToNetwork:
    def test_compiled_parents_follow_the_convention(self):
        rng = random.Random(0x9A2E)
        for _ in range(200):
            arch = random_architecture(rng)
            # a camera feed is an input, never a parent
            feeds = tuple(("camera", c.id) for c in arch.components
                          if rng.random() < 0.5)
            arch = AnnotatedArchitecture(
                arch.name, (Component("camera", "sensor"),) + arch.components,
                feeds + arch.edges, arch.annotations, arch.cpts)
            net = to_network(arch)
            for v in net.variables:
                if v.kind == "component":
                    assert v.parents == convention_parents(arch, v.id)
                    assert (tuple(_parent_lists(arch).get(v.id, ()))
                            == v.parents)

    def test_expected_parents_on_unvalidated_architectures(self):
        # duplicate attachments, dangling ids, monitors with and without CPTs
        rng = random.Random(0x9A2F)
        ids = ["a", "b", "c", "d", "ghost"]
        for _ in range(300):
            components = tuple(
                Component(i, rng.choice(("ml", "sensor", "classical")))
                for i in ids[:4])
            annotations = tuple(
                UncertaintyAnnotation(f"U{k}", "epistemic", tuple(
                    rng.choice(ids) for _ in range(rng.randint(0, 3))))
                for k in range(rng.randint(0, 3)))
            edges = tuple((rng.choice(ids), rng.choice(ids))
                          for _ in range(rng.randint(0, 8)))
            cpts = {i: Cpt(i, (), {"": 0.5}) for i in ids[:4]
                    if rng.random() < 0.5}
            arch = AnnotatedArchitecture("unvalidated", components, edges,
                                         annotations, cpts)
            for comp_id in ids + ["U0"]:
                assert (tuple(_parent_lists(arch).get(comp_id, ()))
                        == convention_parents(arch, comp_id))

    def test_end_to_end_compiles_to_eight_variables(self, end_to_end):
        net = to_network(end_to_end)
        assert len(net.variables) == 8
        assert "camera" not in {v.id for v in net.variables}
        assert net.variable("OD").parents == ("EU", "SU_OD")

    def test_component_based_compiles_to_ten_variables(self, component_based):
        net = to_network(component_based)
        assert len(net.variables) == 10
        assert net.variable("Planning").parents == ("OD", "DE", "SS")

    def test_shared_vs_distinct_epistemic_parents(self, end_to_end,
                                                  component_based):
        net = to_network(end_to_end)
        eu_parents = set()
        for comp in ("OD", "DE", "SS"):
            kinds = {p for p in net.variable(comp).parents
                     if net.variable(p).kind == "epistemic"}
            eu_parents |= kinds
        assert eu_parents == {"EU"}

        net = to_network(component_based)
        eu_parents = set()
        for comp in ("OD", "DE", "SS"):
            eu_parents |= {p for p in net.variable(comp).parents
                           if net.variable(p).kind == "epistemic"}
        assert eu_parents == {"EU_OD", "EU_DE", "EU_SS"}

    def test_minimal_unit(self):
        net = to_network(minimal_unit())
        assert len(net.variables) == 3
        assert net.variable("M").parents == ("EU", "SU")

    def test_output_always_validates(self, end_to_end, component_based):
        for arch in (end_to_end, component_based, minimal_unit()):
            assert validate_network(to_network(arch)).ok

    def test_compile_is_deterministic(self, end_to_end):
        first = to_network(end_to_end)
        second = to_network(end_to_end)
        assert first == second

    def test_missing_cpt_is_reported_with_rows(self):
        arch = minimal_unit()
        cpts = dict(arch.cpts)
        del cpts["M"]
        broken = AnnotatedArchitecture(arch.name, arch.components, arch.edges,
                                       arch.annotations, cpts)
        with pytest.raises(InvalidArchitectureError) as exc:
            to_network(broken)
        finding = next(f for f in exc.value.findings if f.kind == "missing CPT")
        assert finding.variable == "M"
        assert "L,L" in finding.detail

    def test_invalid_architecture_error_text(self):
        arch = AnnotatedArchitecture(
            "x", (Component("a", "classical"), Component("b", "classical"),
                  Component("a", "ml")),
            (("a", "b"), ("b", "a")), (), {})
        with pytest.raises(InvalidArchitectureError) as exc:
            to_network(arch)
        assert str(exc.value) == ("invalid architecture: duplicate id "
                                  "variable=a; cycle variable=a path=a->b->a")


class TestValidateArchitecture:
    def test_cycle_named(self):
        arch = dag_architecture(["a", "b"], [("a", "b"), ("b", "a")])
        report = validate_architecture(arch)
        cycle = next(f for f in report.findings if f.kind == "cycle")
        assert cycle.path[0] == cycle.path[-1]

    def test_long_chains_validate(self):
        # deep enough to exhaust a recursive depth-first search
        ids = [f"c{i:04d}" for i in range(1500)]
        for chain in (ids, ids[::-1]):
            arch = dag_architecture(chain, list(zip(chain, chain[1:])))
            assert validate_architecture(arch).ok
            assert validate_network(to_network(arch)).ok

    def test_stochastic_must_attach_to_one(self):
        arch = minimal_unit()
        annotations = (arch.annotations[0],
                       UncertaintyAnnotation("SU", "stochastic", ()))
        broken = AnnotatedArchitecture(arch.name, arch.components, arch.edges,
                                       annotations, arch.cpts)
        kinds = {f.kind for f in validate_architecture(broken).findings}
        assert "bad attachment" in kinds or "unattached annotation" in kinds

    def test_annotations_attach_to_ml_only(self):
        arch = AnnotatedArchitecture(
            "bad", (Component("P", "classical"),), (),
            (UncertaintyAnnotation("EU", "epistemic", ("P",)),),
            {"P": Cpt("P", ("EU",), {"L": 0.5, "H": 0.5}),
             "EU": Cpt("EU", (), {"": 0.5})})
        kinds = {f.kind for f in validate_architecture(arch).findings}
        assert "bad attachment" in kinds

    def test_attachment_checks_the_first_of_duplicate_ids(self):
        arch = AnnotatedArchitecture(
            "dup", (Component("M", "ml"), Component("M", "classical")), (),
            (UncertaintyAnnotation("EU", "epistemic", ("M",)),), {})
        kinds = [f.kind for f in validate_architecture(arch).findings]
        assert "duplicate id" in kinds
        assert "bad attachment" not in kinds

    def test_empty_architecture(self):
        arch = AnnotatedArchitecture("empty", (), (), (), {})
        kinds = {f.kind for f in validate_architecture(arch).findings}
        assert "no components" in kinds


class TestChangeImpact:
    def test_end_to_end_depth_change_hits_downstream(self, end_to_end):
        assert change_impact(end_to_end, "DE") == ["SS", "Planning"]

    def test_component_based_depth_change_is_isolated(self, component_based):
        assert change_impact(component_based, "DE") == ["Planning"]

    def test_sink_has_no_impact(self, end_to_end, component_based):
        assert change_impact(end_to_end, "Planning") == []
        assert change_impact(component_based, "Planning") == []

    def test_unknown_component(self, end_to_end):
        with pytest.raises(UsageError):
            change_impact(end_to_end, "nope")

    def test_matches_brute_force_closure_on_random_dags(self):
        rng = random.Random(42)
        for _ in range(50):
            ids, edges = random_edge_dag(rng, n_max=15)
            arch = dag_architecture(ids, edges)
            start = rng.choice(ids)
            got = change_impact(arch, start)
            assert set(got) == brute_force_reachable(edges, start)
            # topological: no listed component precedes one of its ancestors
            index = {c: i for i, c in enumerate(got)}
            for src, dst in edges:
                if src in index and dst in index:
                    assert index[src] < index[dst]

    def test_matches_sort_per_pop_order_on_random_dags(self):
        rng = random.Random(77)
        for _ in range(300):
            ids, edges = random_edge_dag(rng, n_max=15)
            edges += [(rng.choice(ids), "ghost"), ("ghost", rng.choice(ids))]
            arch = dag_architecture(ids, edges)
            components = list(arch.components)
            components += rng.sample(components, rng.randint(0, 2))
            rng.shuffle(components)  # not topological, with duplicate ids
            arch = AnnotatedArchitecture(arch.name, tuple(components),
                                         arch.edges, (), {})
            start = rng.choice(ids)
            assert (change_impact(arch, start)
                    == reference_change_impact(arch, start))

    def test_cycle_raises_with_the_validation_finding(self):
        arch = dag_architecture(["A", "B", "C"],
                                [("A", "B"), ("B", "C"), ("C", "B")])
        with pytest.raises(InvalidArchitectureError) as exc:
            change_impact(arch, "A")
        cycles = [f for f in validate_architecture(arch).findings
                  if f.kind == "cycle"]
        assert exc.value.findings == cycles
        assert cycles[0].path == ("B", "C", "B")
        assert str(exc.value) == (
            "invalid architecture: cycle variable=B path=B->C->B")
