"""Graphs of thousands of components through every command path that
compiles, validates, plans or walks them."""

import ast
import os
import pathlib
import random
import resource
import subprocess
import sys

import pytest

from archuncert.arch import AnnotatedArchitecture, Component
from archuncert.bn import Cpt
from archuncert.cli import main
from archuncert.formats import serialize_architecture
from helpers import wide_architecture

N = 2000
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "archuncert"


def _architecture(parent_index, seed):
    """Component i has the one parent parent_index[i] (None: a root). All
    are classical except c0001, an ml component for apply-pattern."""
    rng = random.Random(seed)
    ids = [f"c{i:04d}" for i in range(len(parent_index))]
    components, edges, cpts = [], [], {}
    for i, p in enumerate(parent_index):
        components.append(Component(ids[i], "ml" if i == 1 else "classical"))
        if p is None:
            cpts[ids[i]] = Cpt(ids[i], (), {"": rng.uniform(0.05, 0.95)})
        else:
            edges.append((ids[p], ids[i]))
            cpts[ids[i]] = Cpt(ids[i], (ids[p],),
                               {"L": rng.uniform(0.05, 0.95),
                                "H": rng.uniform(0.05, 0.95)})
    return AnnotatedArchitecture("scale", tuple(components), tuple(edges),
                                 (), cpts)


def _closed_form(arch, target, leaf, state):
    """P(target=H | leaf=state) on a one-parent-per-component graph where
    target is an ancestor of leaf: the forward marginal of target times the
    backward likelihood of the evidence along the path down to leaf."""
    parent = {dst: src for src, dst in arch.edges}
    path = [leaf]
    while path[-1] != target:
        path.append(parent[path[-1]])
    path.reverse()

    chain = [target]
    while chain[-1] in parent:
        chain.append(parent[chain[-1]])
    p_high = arch.cpts[chain[-1]].rows[""]
    for node in reversed(chain[:-1]):
        rows = arch.cpts[node].rows
        p_high = p_high * rows["H"] + (1.0 - p_high) * rows["L"]

    like = {"L": float(state == "L"), "H": float(state == "H")}
    for node in reversed(path[1:]):
        rows = arch.cpts[node].rows
        like = {x: rows[x] * like["H"] + (1.0 - rows[x]) * like["L"]
                for x in "LH"}
    high = p_high * like["H"]
    return high / (high + (1.0 - p_high) * like["L"])


def _chain():
    return _architecture([None] + list(range(N - 1)), seed=11)


def _tree():
    rng = random.Random(12)
    return _architecture([None] + [rng.randrange(i) for i in range(1, N)],
                         seed=13)


@pytest.fixture(scope="module", params=["chain", "tree"])
def large(request, tmp_path_factory):
    arch = _chain() if request.param == "chain" else _tree()
    path = tmp_path_factory.mktemp(request.param) / "large.arch"
    path.write_text(serialize_architecture(arch), encoding="utf-8")
    return arch, str(path)


def test_validate_and_impact_exit_0(large, capsys):
    arch, path = large
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == "OK\n"
    assert main(["impact", path, "--change", "c0000"]) == 0
    assert capsys.readouterr().out.split() == [c.id for c in
                                               arch.components[1:]]


def test_eval_matches_forward_backward(large, capsys):
    arch, path = large
    has_children = {src for src, _ in arch.edges}
    leaf = next(c.id for c in reversed(arch.components)
                if c.id not in has_children)
    parent = {dst: src for src, dst in arch.edges}
    ancestors = [leaf]
    while ancestors[-1] in parent:
        ancestors.append(parent[ancestors[-1]])
    target = ancestors[len(ancestors) // 2]
    assert main(["eval", path, "--target", target,
                 "--evidence", f"{leaf}=H"]) == 0
    got = float(capsys.readouterr().out)
    assert abs(got - _closed_form(arch, target, leaf, "H")) <= 1e-12


def test_apply_pattern_exit_0(large, tmp_path):
    _, path = large
    out = tmp_path / "nversion.arch"
    assert main(["apply-pattern", "n-version", path, "--component", "c0001",
                 "--monitor", "lidar", "--monitor-p-high", "0.1",
                 "--weight", "0.9", "-o", str(out)]) == 0
    assert '"voter_c0001"' in out.read_text(encoding="utf-8")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def _eval_wide(tmp_path, n, timeout):
    """Run ``eval`` on ``helpers.wide_architecture(n, 3)``, target c000 and
    the last component H, in a child process with 1 GiB of address space."""
    path = tmp_path / "wide.arch"
    path.write_text(serialize_architecture(wide_architecture(n, 3)),
                    encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "archuncert.cli", "eval", str(path),
         "--target", "c000", "--evidence", f"c{n - 1:03d}=H"],
        capture_output=True, text=True, timeout=timeout,
        preexec_fn=_limit_memory,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return done.returncode, done.stdout, done.stderr


def test_wide_network_is_refused(tmp_path):
    """The 200-component, up-to-3-parent document has induced width 72: the
    query is refused before any table is built. A child process with 1 GiB
    of address space ends in a MemoryError if it is not."""
    assert _eval_wide(tmp_path, 200, timeout=60) == (
        1, "", "error: induced width at least 20 exceeds the limit of 19: "
               "eliminating 'c084' needs a table of at least 2^21 entries\n")


def test_wide_network_is_refused_at_the_first_wide_step(tmp_path):
    """At 2,000 x 3 the full order has width 664 and takes seconds to find;
    the refusal comes at the first elimination past the limit, so the
    process is bound by reading the 970 kB document."""
    assert _eval_wide(tmp_path, 2000, timeout=6) == (
        1, "", "error: induced width at least 20 exceeds the limit of 19: "
               "eliminating 'c1136' needs a table of at least 2^21 entries\n")


def test_no_function_in_src_calls_itself():
    """Recursion depth grows with the graph, so no code path may recurse."""
    recursive = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if isinstance(callee, ast.Attribute) and isinstance(
                        callee.value, ast.Name) and callee.value.id == "self":
                    callee = ast.Name(callee.attr)  # a method on its own object
                if isinstance(callee, ast.Name) and callee.id == fn.name:
                    recursive.append(f"{module.name}:{fn.name}")
    assert recursive == []
