"""GraphPartitioner: the Fig. 5 segment-to-subgraph procedure."""

import pytest

from repro.graph.graph import GraphError
from repro.graph.partitioner import GraphPartitioner


class TestChainPartition:
    def test_full_offload_head_empty(self, chain_graph):
        part = GraphPartitioner(chain_graph).partition(0)
        assert part.head.is_empty
        assert not part.tail.is_empty
        assert part.transfer_specs == {chain_graph.input_name: chain_graph.input_spec}
        assert part.upload_bytes == chain_graph.input_spec.nbytes

    def test_local_tail_empty(self, chain_graph):
        n = len(chain_graph)
        part = GraphPartitioner(chain_graph).partition(n)
        assert part.tail.is_empty
        assert part.upload_bytes == 0
        assert part.head.result_names == (chain_graph.output_name,)

    def test_mid_partition_transfer(self, chain_graph):
        part = GraphPartitioner(chain_graph).partition(3)
        assert list(part.transfer_specs) == ["relu"]
        assert part.upload_bytes == chain_graph.node("relu").output.nbytes

    def test_head_boundary_is_graph_input(self, chain_graph):
        part = GraphPartitioner(chain_graph).partition(3)
        assert list(part.head.boundary_inputs) == [chain_graph.input_name]

    def test_tail_boundary_matches_transfer(self, chain_graph):
        part = GraphPartitioner(chain_graph).partition(3)
        assert part.tail.boundary_inputs == part.transfer_specs

    def test_single_result_no_make_tuple(self, chain_graph):
        part = GraphPartitioner(chain_graph).partition(3)
        assert all(n.op != "make_tuple" for n in part.head.nodes)
        assert part.head.nodes[-1].op == "return"

    def test_out_of_range_rejected(self, chain_graph):
        p = GraphPartitioner(chain_graph)
        with pytest.raises(GraphError):
            p.partition(-1)
        with pytest.raises(GraphError):
            p.partition(len(chain_graph) + 1)

    def test_num_points(self, chain_graph):
        """Points ``0..n`` are the valid ones, n + 1 in all."""
        p = GraphPartitioner(chain_graph)
        n = len(chain_graph)
        assert [p.partition(i).partition_point for i in range(n + 1)] == list(range(n + 1))


class TestDagPartition:
    def test_cut_inside_block_has_make_tuple(self, diamond_graph):
        order = diamond_graph.topological_order()
        partitioner = GraphPartitioner(diamond_graph)
        # Position 2 crosses two tensors (branch output + stem output).
        part = partitioner.partition(2)
        assert len(part.transfer_specs) == 2
        make_tuple = [n for n in part.head.nodes if n.op == "make_tuple"]
        assert len(make_tuple) == 1
        assert set(make_tuple[0].inputs) <= set(part.transfer_specs)

    def test_tail_consumes_both_transfers(self, diamond_graph):
        part = GraphPartitioner(diamond_graph).partition(2)
        tail_inputs = {dep for node in part.tail.compute_nodes for dep in node.inputs}
        assert set(part.transfer_specs) <= tail_inputs

    def test_fire_module_concat_cut(self, fire_graph):
        partitioner = GraphPartitioner(fire_graph)
        n = len(fire_graph)
        part = partitioner.partition(n - 1)  # right before the concat
        assert len(part.transfer_specs) == 2

    def test_result_bytes_consistency(self, fire_graph):
        partitioner = GraphPartitioner(fire_graph)
        for p in range(len(fire_graph) + 1):
            part = partitioner.partition(p)
            if p > 0:
                expected = sum(
                    spec.nbytes for name, spec in part.transfer_specs.items()
                    if name != fire_graph.input_name
                )
                if fire_graph.output_name in set(n.name for n in part.head.compute_nodes):
                    expected = max(expected, part.head.result_bytes)
                assert part.head.result_bytes >= 0

    def test_every_point_produces_consistent_segments(self, diamond_graph):
        partitioner = GraphPartitioner(diamond_graph)
        order = diamond_graph.topological_order()
        for p in range(len(order) + 1):
            part = partitioner.partition(p)
            head_names = {n.name for n in part.head.compute_nodes}
            tail_names = {n.name for n in part.tail.compute_nodes}
            assert head_names == set(order[:p])
            assert tail_names == set(order[p:])
            assert not head_names & tail_names

    def test_upload_matches_graph_cut_analysis(self, diamond_graph):
        partitioner = GraphPartitioner(diamond_graph)
        sizes = diamond_graph.transmission_sizes()
        for p in range(len(diamond_graph) + 1):
            assert partitioner.partition(p).upload_bytes == sizes[p]
