"""Block analysis (§III-D): candidate reduction and the InceptionV3 claim."""


from repro.core.blocks import block_cut_report, candidate_points
from repro.models import build_model


class TestCandidatePoints:
    def test_chain_has_all_points(self, chain_graph):
        n = len(chain_graph)
        assert candidate_points(chain_graph) == list(range(n + 1))

    def test_diamond_excludes_inside_block(self, diamond_graph):
        points = candidate_points(diamond_graph)
        n = len(diamond_graph)
        assert 0 in points and n in points
        # Positions 2 and 3 are inside the two-branch block (width 2).
        assert 2 not in points
        assert 3 not in points

    def test_resnet_candidates_are_block_boundaries(self):
        g = build_model("resnet18")
        points = candidate_points(g)
        widths = {c.index: c.width for c in g.cuts()}
        for p in points:
            assert widths[p] <= 1

    def test_candidates_always_include_endpoints(self):
        for model in ("squeezenet", "resnet50", "xception"):
            g = build_model(model)
            points = candidate_points(g)
            assert points[0] == 0 and points[-1] == len(g)

    def test_optimal_point_is_always_a_candidate(self, alexnet_engine):
        """The §III-D claim, checked on the decision engine's own landscape."""
        g = alexnet_engine.graph
        candidates = set(candidate_points(g))
        for bw in (1e6, 4e6, 8e6, 32e6):
            for k in (1.0, 10.0, 100.0):
                assert alexnet_engine.decide(bw, k=k).point in candidates

    def test_squeezenet_optimal_is_candidate(self, squeezenet_engine):
        candidates = set(candidate_points(squeezenet_engine.graph))
        for bw in (1e6, 8e6, 64e6):
            assert squeezenet_engine.decide(bw).point in candidates


class TestBlockCutReport:
    def test_chain_has_no_multi_cuts(self, chain_graph):
        report = block_cut_report(chain_graph)
        assert report.multi_points == []
        assert report.min_multi_cut_bytes is None

    def test_diamond_report(self, diamond_graph):
        report = block_cut_report(diamond_graph)
        assert len(report.multi_points) > 0
        assert report.min_multi_cut_bytes is not None

    def test_inception_inside_cuts_are_large(self):
        """§III-D: cutting inside Inception blocks transmits more than
        cutting at block boundaries — the basis for the linear scan."""
        g = build_model("inception_v3")
        report = block_cut_report(g)
        assert report.min_multi_cut_bytes is not None
        # Inside-block cuts are much larger than the best block-boundary cut.
        assert report.min_multi_cut_bytes > 2 * report.min_width1_cut_bytes

    def test_inception_last_block_cuts_beat_nothing(self):
        """The paper's §III-D evidence (1.25 MB inside the last block vs a
        1.02 MiB input): in our enumeration the absolute bytes differ, but
        the operative claim holds — every cut inside the last Inception
        block transmits more than the cheapest block-boundary cut, so no
        inside cut can be optimal."""
        g = build_model("inception_v3")
        report = block_cut_report(g)
        cuts = g.cuts()
        last_block = [c for c in cuts if c.width > 1
                      and any(name.startswith("mixedC2") for name in c.crossing)]
        assert last_block
        assert min(c.upload_bytes for c in last_block) > report.min_width1_cut_bytes

    def test_resnet_inside_cuts_cost_more_than_boundaries(self):
        g = build_model("resnet50")
        report = block_cut_report(g)
        assert report.min_multi_cut_bytes >= report.min_width1_cut_bytes
