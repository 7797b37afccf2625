"""Early-exit branches: structure pins and byte-identity sweeps.

Two contracts are pinned here.  First, the *shape* of an exit set: the
final branch is the backbone object itself, early branches are strict
prefixes (ancestor closure + head) with nondecreasing accuracy proxies,
and the zoo families declare well-formed sets.  Second, the *bit-level*
guarantee that makes ``sla_s=None`` degenerate identity structural: a
model built through the exit path executes byte-identically to the plain
model at the final exit, across backends and batch sizes, and every
early-exit head graph is itself backend-stable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.exits import (
    ExitSpec,
    build_exit_branches,
    build_exit_graph,
    validate_exits,
)
from repro.graph.graph import GraphError
from repro.models import EXIT_MODEL_SPECS, build_exit_model, build_model
from repro.nn import GraphExecutor

from tests.helpers import sample_inputs, assert_per_sample_bit_identical

EXIT_FAMILIES = sorted(EXIT_MODEL_SPECS)


class TestExitSpec:
    def test_accuracy_must_be_a_proxy(self):
        with pytest.raises(ValueError, match="accuracy proxy"):
            ExitSpec(attach="x", accuracy=0.0)
        with pytest.raises(ValueError, match="accuracy proxy"):
            ExitSpec(attach="x", accuracy=1.5)


class TestBuildExitGraph:
    def test_head_structure_on_conv_attach(self):
        backbone = build_model("squeezenet")
        attach = backbone.topological_order()[3]
        g = build_exit_graph(backbone, ExitSpec(attach=attach, accuracy=0.5),
                             "exit0", num_classes=10)
        # conv1x1 + bias + relu -> global pool -> flatten -> fc + bias head.
        for suffix in ("conv", "bias", "relu", "pool", "flat", "fc", "fcbias"):
            assert f"exit0.{suffix}" in g.nodes
        assert g.output_name == "exit0.fcbias"
        assert g.node("exit0.fcbias").output.shape[-1] == 10

    def test_prefix_is_the_ancestor_closure(self):
        backbone = build_model("resnet18")
        order = backbone.topological_order()
        attach = order[len(order) // 3]
        g = build_exit_graph(backbone, ExitSpec(attach=attach, accuracy=0.5),
                             "e", num_classes=10)
        kept = [n for n in g.topological_order() if not n.startswith("e.")]
        # Every kept node is a backbone node under its original name with
        # identical op/attrs — per-name parameter seeding hinges on this.
        for name in kept:
            assert backbone.node(name).op == g.node(name).op
            assert backbone.node(name).attrs == g.node(name).attrs
        assert attach in kept
        assert len(kept) < len(order)

    def test_unknown_attach_raises(self):
        backbone = build_model("squeezenet")
        with pytest.raises(GraphError, match="not in"):
            build_exit_graph(backbone, ExitSpec(attach="nope", accuracy=0.5),
                             "e", num_classes=10)


class TestBuildExitBranches:
    def _specs(self, backbone, count=2):
        order = backbone.topological_order()
        step = len(order) // (count + 1)
        return [ExitSpec(attach=order[(i + 1) * step], accuracy=0.4 + 0.1 * i)
                for i in range(count)]

    def test_final_branch_is_the_backbone_object(self):
        backbone = build_model("squeezenet")
        branches = build_exit_branches(backbone, self._specs(backbone), 0.7)
        assert branches[-1].graph is backbone
        assert branches[-1].is_final
        assert branches[-1].attach is None
        assert [b.index for b in branches] == list(range(len(branches)))

    def test_specs_rank_by_backbone_position(self):
        backbone = build_model("squeezenet")
        specs = self._specs(backbone)
        shuffled = list(reversed(specs))
        shuffled[0], shuffled[-1] = (
            ExitSpec(shuffled[0].attach, specs[-1].accuracy),
            ExitSpec(shuffled[-1].attach, specs[0].accuracy))
        branches = build_exit_branches(backbone, shuffled, 0.7)
        assert [b.attach for b in branches[:-1]] == [s.attach for s in specs]

    def test_duplicate_attach_rejected(self):
        backbone = build_model("squeezenet")
        spec = self._specs(backbone, count=1)[0]
        with pytest.raises(ValueError, match="duplicate"):
            build_exit_branches(backbone, [spec, spec], 0.7)

    def test_decreasing_accuracy_rejected(self):
        backbone = build_model("squeezenet")
        specs = self._specs(backbone)
        with pytest.raises(ValueError, match="nondecreasing"):
            build_exit_branches(backbone, specs, final_accuracy=0.1)

    def test_validate_exits_pins(self):
        backbone = build_model("squeezenet")
        branches = build_exit_branches(backbone, self._specs(backbone), 0.7)
        assert validate_exits(backbone, branches) == branches
        with pytest.raises(ValueError, match="0..m-1"):
            validate_exits(backbone, branches[::-1])
        with pytest.raises(ValueError, match="backbone itself"):
            validate_exits(backbone, branches[:-1])
        other = build_model("squeezenet")
        with pytest.raises(ValueError, match="backbone itself"):
            validate_exits(other, branches)


class TestZooExitModels:
    def test_exit_families_cover_three_zoo_families(self):
        assert set(EXIT_FAMILIES) == {"resnet18", "mobilenet_v1", "squeezenet"}

    @pytest.mark.parametrize("name", EXIT_FAMILIES)
    def test_declared_sets_are_well_formed(self, name):
        graph, branches = build_exit_model(name)
        assert validate_exits(graph, branches) == branches
        assert len(branches) >= 3  # >= 2 early exits + the final exit
        n = len(graph.topological_order())
        for b in branches[:-1]:
            assert len(b.graph.topological_order()) < n
            b.graph.validate()
        accs = [b.accuracy for b in branches]
        assert accs == sorted(accs)
        assert 0.0 < accs[0] <= accs[-1] <= 1.0

    @pytest.mark.parametrize("name", EXIT_FAMILIES)
    def test_exit_engine_wiring(self, name, exit_engine_for):
        engine = exit_engine_for(name)
        assert engine.has_exits
        assert engine.num_exits >= 3
        assert engine.exit_engine(engine.num_exits - 1) is engine
        assert engine.exit_accuracy() == engine.exit_accuracy(engine.num_exits - 1)
        for e in range(engine.num_exits - 1):
            sub = engine.exit_engine(e)
            assert sub.num_nodes < engine.num_nodes
            assert engine.exit_accuracy(e) <= engine.exit_accuracy(e + 1)


class TestFinalExitByteIdentity:
    """The exit build path must not perturb the backbone: executing the
    final exit equals executing the plain model byte for byte."""

    @pytest.mark.parametrize("name", EXIT_FAMILIES)
    @pytest.mark.parametrize("backend,batch", [
        ("naive", 1),
        ("planned", 1),
        pytest.param("planned", 2, marks=pytest.mark.slow),
    ])
    def test_final_exit_matches_plain_model(self, name, backend, batch):
        graph, branches = build_exit_model(name)
        assert branches[-1].graph is graph
        via_exit = GraphExecutor(branches[-1].graph, seed=0, backend=backend,
                                 batch=batch)
        plain = GraphExecutor(build_model(name), seed=0, backend=backend,
                              batch=batch)
        xs = sample_inputs(graph, batch)
        x = np.concatenate(xs, axis=0) if batch > 1 else xs[0]
        assert np.array_equal(via_exit.run(x), plain.run(x))

    def test_early_exit_heads_are_backend_stable(self):
        """Every squeezenet early-exit graph: planned batched run ==
        independent naive batch-1 runs, per sample, bit for bit."""
        graph, branches = build_exit_model("squeezenet")
        for b in branches[:-1]:
            ex = GraphExecutor(b.graph, seed=0, backend="planned", batch=2)
            assert_per_sample_bit_identical(b.graph, ex, 2)
