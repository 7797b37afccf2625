"""Hypothesis property tests over randomly generated DAGs.

Random graphs exercise the structural invariants the hand-written graphs
cannot: arbitrary branching, skip connections, and joins.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.graph.partitioner import GraphPartitioner
from repro.nn.executor import GraphExecutor, SegmentExecutor
from tests.helpers import brute_force, exit_fleet_brute_force, fleet_objective


@st.composite
def random_dag(draw):
    """A random small NCHW DAG built from shape-preserving ops."""
    rng_seed = draw(st.integers(0, 2**31))
    n_nodes = draw(st.integers(2, 14))
    channels = draw(st.sampled_from([2, 4, 8]))
    size = draw(st.sampled_from([4, 6, 8]))
    rng = np.random.default_rng(rng_seed)

    b = GraphBuilder(f"rand{rng_seed}", (1, channels, size, size))
    produced = [b.input]
    for i in range(n_nodes):
        kind = rng.choice(["conv", "relu", "bn", "add", "sigmoid"])
        src = produced[int(rng.integers(0, len(produced)))]
        if kind == "conv":
            name = b.conv(src, channels, kernel=3, padding=1, name=f"conv{i}")
        elif kind == "relu":
            name = b.relu(src, name=f"relu{i}")
        elif kind == "bn":
            name = b.batchnorm(src, name=f"bn{i}")
        elif kind == "sigmoid":
            name = b.sigmoid(src, name=f"sig{i}")
        else:
            other = produced[int(rng.integers(0, len(produced)))]
            if other == src:
                name = b.relu(src, name=f"relu{i}")
            else:
                name = b.add(src, other, name=f"add{i}")
        produced.append(name)

    # Join every loose end so the graph has a single output and no dead nodes.
    graph = b.graph
    consumers = graph.consumers()
    loose = [n for n in graph.nodes if not consumers[n]]
    while len(loose) > 1:
        a, c = loose[0], loose[1]
        joined = b.add(a, c, name=f"join_{a}_{c}")
        loose = [joined] + loose[2:]
    if not consumers[b.input] :
        pass  # input always consumed: first node uses it
    b.output(loose[0])
    return b.build()


class TestGraphInvariants:
    @given(graph=random_dag())
    @settings(max_examples=40, deadline=None)
    def test_topological_order_respects_edges(self, graph):
        order = graph.topological_order()
        assert sorted(order) == sorted(graph.nodes)
        pos = {name: i for i, name in enumerate(order)}
        for node in graph.nodes.values():
            for dep in node.inputs:
                if dep != graph.input_name:
                    assert pos[dep] < pos[node.name]

    @given(graph=random_dag())
    @settings(max_examples=40, deadline=None)
    def test_cut_sizes_well_formed(self, graph):
        sizes = graph.transmission_sizes()
        assert len(sizes) == len(graph) + 1
        assert sizes[0] == graph.input_spec.nbytes
        assert sizes[-1] == 0
        assert all(s >= 0 for s in sizes)

    @given(graph=random_dag())
    @settings(max_examples=40, deadline=None)
    def test_cut_crossing_is_exact(self, graph):
        """Every crossing tensor is consumed by the tail; nothing else is."""
        order = graph.topological_order()
        cuts = graph.cuts()
        for cut in cuts:
            head = set(order[: cut.index]) | {graph.input_name}
            tail = set(order[cut.index:])
            needed = set()
            for name in tail:
                for dep in graph.node(name).inputs:
                    if dep in head:
                        needed.add(dep)
            assert set(cut.crossing) == needed

    @given(graph=random_dag(), point_frac=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_partition_segments_cover_graph(self, graph, point_frac):
        partitioner = GraphPartitioner(graph)
        p = round(point_frac * len(graph))
        part = partitioner.partition(p)
        head = {n.name for n in part.head.compute_nodes}
        tail = {n.name for n in part.tail.compute_nodes}
        assert head | tail == set(graph.nodes)
        assert not head & tail


class TestSerialisationRoundTrip:
    @given(graph=random_dag())
    @settings(max_examples=30, deadline=None)
    def test_json_round_trip_preserves_structure(self, graph):
        from repro.graph.serialize import graph_from_json, graph_to_json

        restored = graph_from_json(graph_to_json(graph))
        assert restored.topological_order() == graph.topological_order()
        assert restored.transmission_sizes() == graph.transmission_sizes()
        assert restored.total_flops() == graph.total_flops()
        for name in graph.nodes:
            assert restored.node(name).output == graph.node(name).output

    @given(graph=random_dag(), seed=st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_round_tripped_graph_executes_identically(self, graph, seed):
        from repro.graph.serialize import graph_from_json, graph_to_json

        restored = graph_from_json(graph_to_json(graph))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(graph.input_spec.shape).astype(np.float32)
        a = GraphExecutor(graph, seed=seed).run(x)
        b = GraphExecutor(restored, seed=seed).run(x)
        np.testing.assert_array_equal(a, b)


class TestExecutionEquivalence:
    @given(graph=random_dag(), point_frac=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_partitioned_execution_matches(self, graph, point_frac, seed):
        """The headline invariant on arbitrary DAGs."""
        p = round(point_frac * len(graph))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(graph.input_spec.shape).astype(np.float32)
        executor = GraphExecutor(graph, seed=seed)
        ref = executor.run(x)

        part = GraphPartitioner(graph).partition(p)
        boundary = {}
        if p > 0:
            head = SegmentExecutor(part.head, params=executor.params)
            boundary = dict(head.run({graph.input_name: x}))
        if graph.input_name in part.transfer_specs:
            boundary[graph.input_name] = x
        if part.tail.is_empty:
            got = boundary[graph.output_name]
        else:
            tail = SegmentExecutor(part.tail, params=executor.params)
            got = tail.run(boundary)[graph.output_name]
        np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-5)


class TestAlgorithmOnRandomGraphs:
    @given(graph=random_dag(), seed=st.integers(0, 2**31),
           bw=st.floats(1e5, 1e8), k=st.floats(1.0, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_algorithm1_on_real_cut_sizes(self, graph, seed, bw, k):
        """Algorithm 1 with real graph cut sizes equals brute force."""
        from repro.core.partition_algorithm import partition_decision

        rng = np.random.default_rng(seed)
        n = len(graph)
        device = rng.random(n).tolist()
        edge = (rng.random(n) * 0.01).tolist()
        sizes = graph.transmission_sizes()
        decision = partition_decision(device, edge, sizes, bw, k=k)
        bf_p, bf_val = brute_force(device, edge, sizes, bw, k)
        assert decision.point == bf_p
        assert decision.predicted_latency == pytest.approx(bf_val, rel=1e-9)


class _TimesPredictor:
    """Duck-typed predictor bundle with fixed per-node times.

    The engine only needs ``.side`` and ``.predict_nodes`` from its
    predictors, so property tests can plant arbitrary latency landscapes
    without training NNLS models.
    """

    def __init__(self, side, times):
        self.side = side
        self._times = np.asarray(times, dtype=np.float64)

    def predict_nodes(self, profiles):
        assert len(profiles) == len(self._times)
        return self._times.copy()


class _GeometryPredictor:
    """Duck-typed predictor keyed on node *geometry*, not position.

    Exit sub-graphs share their backbone prefix but differ in length, so a
    positional times table cannot serve every exit engine.  Hashing each
    profile's geometry yields deterministic per-node times that are
    automatically consistent across all sub-graphs containing the node.
    """

    def __init__(self, side, seed, unit_s):
        self.side = side
        self._seed = int(seed)
        self._unit_s = float(unit_s)

    def _time(self, p):
        import zlib
        key = repr((self.side, self._seed, p.op, p.flops,
                    p.c_in, p.c_out, p.h_out, p.w_out))
        h = zlib.crc32(key.encode())
        return ((h % 1000) + 1) * self._unit_s

    def predict_nodes(self, profiles):
        return np.array([self._time(p) for p in profiles], dtype=np.float64)


@st.composite
def random_exit_engine(draw):
    """A random DAG engine carrying 0-3 random early-exit branches.

    Returns ``(engine, edge_predictor)`` — the predictor rides along for
    fleet tests that wrap it in per-server :class:`ScaledPredictor`\\ s.
    """
    from repro.core.engine import LoADPartEngine
    from repro.graph.exits import ExitSpec, build_exit_branches

    graph = draw(random_dag())
    seed = draw(st.integers(0, 2**31))
    order = graph.topological_order()
    num_specs = draw(st.integers(0, min(3, len(order))))
    positions = draw(st.lists(
        st.integers(0, len(order) - 1),
        min_size=num_specs, max_size=num_specs, unique=True))
    accs = sorted(draw(st.lists(
        st.floats(0.3, 0.69), min_size=num_specs, max_size=num_specs)))
    specs = [ExitSpec(attach=order[pos], accuracy=acc)
             for pos, acc in zip(sorted(positions), accs)]
    user = _GeometryPredictor("device", seed, 1e-3)
    edge = _GeometryPredictor("edge", seed, 1e-5)
    if not specs:
        return LoADPartEngine(graph, user, edge), edge
    branches = build_exit_branches(graph, specs, final_accuracy=0.7,
                                   num_classes=8)
    return LoADPartEngine(graph, user, edge, exits=branches), edge


def _assert_same_grid(got, ref):
    """Every field and every evaluated row of two decisions, bitwise."""
    assert got.exit_index == ref.exit_index
    assert got.point == ref.point
    assert got.server == ref.server
    assert got.predicted_latency == ref.predicted_latency  # bitwise
    assert got.accuracy == ref.accuracy
    assert got.sla_s == ref.sla_s
    assert got.feasible == ref.feasible
    assert got.exits == ref.exits
    assert got.servers == ref.servers
    assert np.array_equal(got.row_points, ref.row_points)
    assert np.array_equal(got.row_latencies, ref.row_latencies)
    assert len(got.candidates) == len(ref.candidates) == len(got.exits)
    for cg, cr in zip(got.candidates, ref.candidates):
        assert np.array_equal(cg, cr)


class TestExitDifferential:
    """``decide_exit`` / ``decide_exit_fleet`` vs the exhaustive reference.

    Every random scenario draws a DAG, a random exit-branch set (possibly
    empty), bandwidths, load factors and an SLA (possibly ``None``),
    then demands *bitwise* agreement — exit index, partition point,
    server, feasibility, predicted latency, accuracy, and every evaluated
    row's point, latency and candidate vector — between the decision grid
    and the scalar brute-force enumeration, including the no-feasible-exit
    fallback and the ``point == n`` local edge.
    """

    @given(data=st.data(), setup=random_exit_engine())
    @settings(max_examples=40, deadline=None)
    def test_exit_scan_matches_brute_force(self, data, setup):
        engine, _ = setup

        bw = data.draw(st.floats(1e5, 1e8), label="bw")
        k = data.draw(st.floats(1.0, 50.0), label="k")
        sla = data.draw(
            st.one_of(st.none(), st.floats(1e-6, 10.0)), label="sla")

        got = engine.decide_exit(sla, bw, k=k)
        ref = exit_fleet_brute_force(engine, sla, [bw], [k],
                                     extra_latencies_s=[0.0])

        assert got.exit_index == ref.exit_index
        assert got.feasible == ref.feasible
        assert got.point == ref.point
        assert got.predicted_latency == ref.predicted_latency  # bitwise
        assert got.accuracy == ref.accuracy
        assert got.sla_s == ref.sla_s
        assert len(got.exits) == len(ref.exits)
        assert len(got.exits) == (1 if sla is None else engine.num_exits)
        _assert_same_grid(got, ref)

    @given(data=st.data(), setup=random_exit_engine())
    @settings(max_examples=25, deadline=None)
    def test_exit_fleet_scan_matches_brute_force(self, data, setup):
        from repro.core.engine import ServerProfile
        from repro.profiling.predictor import ScaledPredictor

        engine, edge_base = setup
        num = data.draw(st.integers(1, 3), label="num_servers")
        profiles, bandwidths, ks = [], [], []
        for s in range(num):
            scale = data.draw(
                st.one_of(st.none(), st.floats(0.25, 4.0)), label=f"scale{s}")
            prior = data.draw(
                st.one_of(st.none(), st.floats(1e5, 1e8)), label=f"prior{s}")
            profiles.append(ServerProfile(
                edge_predictor=(None if scale is None else ScaledPredictor(
                    edge_base, scale)),
                bandwidth_bps=prior,
                extra_latency_s=data.draw(st.floats(0.0, 0.05),
                                          label=f"extra{s}"),
            ))
            # A server with a prior may have no live estimate at all.
            live = st.floats(1e5, 1e8)
            if prior is not None:
                live = st.one_of(st.none(), live)
            bandwidths.append(data.draw(live, label=f"bw{s}"))
            ks.append(data.draw(st.floats(1.0, 50.0), label=f"k{s}"))
        if num > 1 and data.draw(st.booleans(), label="twin"):
            # A twin of server 0: exact ties exercise the earliest-server rule.
            profiles[-1], bandwidths[-1], ks[-1] = profiles[0], bandwidths[0], ks[0]
        sla = data.draw(
            st.one_of(st.none(), st.floats(1e-6, 10.0)), label="sla")
        allowed = data.draw(
            st.one_of(st.none(),
                      st.lists(st.integers(0, num - 1), max_size=num)),
            label="allowed")

        kwargs = dict(profiles=profiles, allowed=allowed)
        got = engine.decide_exit_fleet(sla, bandwidths, ks, **kwargs)
        ref = exit_fleet_brute_force(engine, sla, bandwidths, ks, **kwargs)

        assert got.exit_index == ref.exit_index
        assert got.feasible == ref.feasible
        assert got.point == ref.point
        assert got.server == ref.server
        assert got.predicted_latency == ref.predicted_latency  # bitwise
        assert got.accuracy == ref.accuracy
        if allowed == []:
            assert got.server is None
            assert got.point == engine.exit_engine(got.exit_index).num_nodes
        _assert_same_grid(got, ref)

    @given(data=st.data(), setup=random_exit_engine())
    @settings(max_examples=25, deadline=None)
    def test_decide_exit_is_the_one_server_grid(self, data, setup):
        """``decide_exit`` equals ``decide_exit_fleet`` on a one-server
        fleet with no link penalty and the shared predictor, field for
        field."""
        engine, _ = setup
        bw = data.draw(st.floats(1e5, 1e8), label="bw")
        k = data.draw(st.floats(1.0, 50.0), label="k")
        sla = data.draw(
            st.one_of(st.none(), st.floats(1e-6, 10.0)), label="sla")

        got = engine.decide_exit(sla, bw, k)
        ref = engine.decide_exit_fleet(
            sla, [bw], [k], extra_latencies_s=[0.0], profiles=[None])
        _assert_same_grid(got, ref)

    @given(data=st.data(), setup=random_exit_engine())
    @settings(max_examples=30, deadline=None)
    def test_sla_monotonicity(self, data, setup):
        """A looser SLA never loses accuracy, and feasibility is monotone:
        the feasible set only grows as the deadline relaxes."""
        engine, _ = setup
        bw = data.draw(st.floats(1e5, 1e8), label="bw")
        k = data.draw(st.floats(1.0, 50.0), label="k")
        s1 = data.draw(st.floats(1e-6, 10.0), label="sla1")
        s2 = data.draw(st.floats(1e-6, 10.0), label="sla2")
        tight, loose = min(s1, s2), max(s1, s2)
        d_tight = engine.decide_exit(tight, bw, k=k)
        d_loose = engine.decide_exit(loose, bw, k=k)
        assert d_tight.accuracy <= d_loose.accuracy
        if d_tight.feasible:
            assert d_loose.feasible
            assert d_tight.exit_index <= d_loose.exit_index

    @given(data=st.data(), setup=random_exit_engine())
    @settings(max_examples=30, deadline=None)
    def test_sla_none_is_the_plain_scan(self, data, setup):
        """``sla_s=None`` reproduces ``decide()`` bit-for-bit: final exit,
        same point, same latency, same candidate vector."""
        engine, _ = setup
        bw = data.draw(st.floats(1e5, 1e8), label="bw")
        k = data.draw(st.floats(1.0, 50.0), label="k")
        plain = engine.decide(bw, k=k)
        ed = engine.decide_exit(None, bw, k=k)
        assert ed.exit_index == engine.num_exits - 1
        assert ed.feasible is True
        assert ed.point == plain.point
        assert ed.predicted_latency == plain.predicted_latency
        assert np.array_equal(ed.candidates[0][0], plain.candidates)
        assert ed.exits == (engine.num_exits - 1,)


class TestFleetDifferential:
    """``decide_fleet`` vs the exhaustive reference, without an SLA.

    Every random scenario draws per-server profiles (predictor scale,
    bandwidth prior, link position), load factors and live bandwidth
    estimates, then demands *bitwise* agreement — point, server,
    predicted latency and all per-server candidate vectors — between the
    O(n)-per-server scan and the explicit ``(point, server)``
    enumeration, including the all-servers-masked and ``point == n``
    edges.  The direct-summation objective must agree numerically at
    every candidate the scan produced.
    """

    @given(data=st.data(), graph=random_dag())
    @settings(max_examples=40, deadline=None)
    def test_heterogeneous_scan_matches_brute_force(self, data, graph):
        from repro.core.engine import LoADPartEngine, ServerProfile
        from repro.profiling.predictor import ScaledPredictor

        seed = data.draw(st.integers(0, 2**31), label="times_seed")
        rng = np.random.default_rng(seed)
        n = len(graph)
        edge_base = _TimesPredictor("edge", rng.random(n) * 0.01)
        engine = LoADPartEngine(
            graph, _TimesPredictor("device", rng.random(n)), edge_base)

        num = data.draw(st.integers(1, 4), label="num_servers")
        profiles, bandwidths, ks = [], [], []
        for s in range(num):
            scale = data.draw(
                st.one_of(st.none(), st.floats(0.25, 4.0)), label=f"scale{s}")
            prior = data.draw(
                st.one_of(st.none(), st.floats(1e5, 1e8)), label=f"prior{s}")
            profiles.append(ServerProfile(
                edge_predictor=(None if scale is None
                                else ScaledPredictor(edge_base, scale)),
                bandwidth_bps=prior,
                extra_latency_s=data.draw(st.floats(0.0, 0.05),
                                          label=f"extra{s}"),
            ))
            live_bw = data.draw(
                st.one_of(st.none(), st.floats(1e5, 1e8)), label=f"bw{s}")
            if live_bw is None and prior is None:
                live_bw = 8e6  # someone must know a bandwidth
            bandwidths.append(live_bw)
            ks.append(data.draw(st.floats(1.0, 50.0), label=f"k{s}"))
        allowed = data.draw(
            st.one_of(st.none(),
                      st.lists(st.integers(0, num - 1), max_size=num)),
            label="allowed")

        got = engine.decide_fleet(
            bandwidths, ks, allowed=allowed, profiles=profiles)
        ref = exit_fleet_brute_force(
            engine, None, bandwidths, ks, allowed=allowed, profiles=profiles)

        assert got.point == ref.point
        assert got.server == ref.server
        assert got.predicted_latency == ref.predicted_latency  # bitwise
        _assert_same_grid(got, ref)
        for j, s in enumerate(got.servers):
            row = got.candidates[0][j]
            # Independent restatement of Problem (1) at spot-check points.
            bw_s = (bandwidths[s] if bandwidths[s] is not None
                    else profiles[s].bandwidth_bps)
            for p in {0, n // 2, n, int(got.row_points[0, j])}:
                direct = fleet_objective(
                    engine, p, bw_s, k=ks[s],
                    extra_latency_s=profiles[s].extra_latency_s,
                    profile=profiles[s])
                assert direct == pytest.approx(float(row[p]),
                                               rel=1e-9, abs=1e-12)

    @given(data=st.data(), graph=random_dag())
    @settings(max_examples=25, deadline=None)
    def test_uniform_profiles_are_the_homogeneous_scan(self, data, graph):
        """Identical profiles reproduce the profile-free scan bit-for-bit."""
        from repro.core.engine import LoADPartEngine, ServerProfile
        from repro.profiling.predictor import ScaledPredictor

        seed = data.draw(st.integers(0, 2**31), label="times_seed")
        rng = np.random.default_rng(seed)
        n = len(graph)
        edge_base = _TimesPredictor("edge", rng.random(n) * 0.01)
        engine = LoADPartEngine(
            graph, _TimesPredictor("device", rng.random(n)), edge_base)
        num = data.draw(st.integers(1, 3), label="num_servers")
        bandwidths = [data.draw(st.floats(1e5, 1e8), label=f"bw{s}")
                      for s in range(num)]
        ks = [data.draw(st.floats(1.0, 50.0), label=f"k{s}")
              for s in range(num)]
        plain = engine.decide_fleet(bandwidths, ks)
        for uniform in (ServerProfile(),
                        ServerProfile(edge_predictor=ScaledPredictor(
                            edge_base, 1.0))):
            dressed = engine.decide_fleet(
                bandwidths, ks, profiles=[uniform] * num)
            assert dressed.point == plain.point
            assert dressed.server == plain.server
            assert dressed.predicted_latency == plain.predicted_latency
            assert np.array_equal(plain.candidates[0], dressed.candidates[0])


def _assert_bitwise(got, ref):
    """Two decisions (or any of their fields) equal bit for bit.

    Arrays match in dtype, shape and bytes; scalars match in type and
    value, so a memo hit cannot hand back another caller's ``np.float64``.
    """
    import dataclasses

    assert type(got) is type(ref)
    if dataclasses.is_dataclass(got):
        for f in dataclasses.fields(got):
            _assert_bitwise(getattr(got, f.name), getattr(ref, f.name))
    elif isinstance(got, np.ndarray):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    elif isinstance(got, dict):
        assert list(got) == list(ref)
        for key in got:
            _assert_bitwise(got[key], ref[key])
    elif isinstance(got, tuple):
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            _assert_bitwise(g, r)
    elif isinstance(got, float):
        assert got.hex() == ref.hex()
    else:
        assert got == ref


def _decision_arrays(decision):
    """Every array a decision carries."""
    arrays = []
    for value in vars(decision).values():
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, tuple):
            arrays += [v for v in value if isinstance(v, np.ndarray)]
        elif isinstance(value, dict):
            arrays += list(value.values())
    return arrays


class TestDecisionMemo:
    """The engine's decision memo is invisible except in speed.

    A call served from the memo must equal, field for field and bit for
    bit, the same call on an engine that has never decided anything; the
    memo is a bounded LRU, stores nothing for a call that raises, keys
    profiles by their predictor objects, and hands out read-only arrays.
    """

    @given(data=st.data(), setup=random_exit_engine())
    @settings(max_examples=30, deadline=None)
    def test_memo_hits_equal_fresh_engines(self, data, setup):
        import copy

        from repro.core.engine import ServerProfile
        from repro.network.streaming import StreamingConfig
        from repro.profiling.predictor import ScaledPredictor

        engine, edge_base = setup
        pristine = copy.deepcopy(engine)
        bandwidth = st.sampled_from([1e5, 2e6, 8e6, 8e6 + 1, 1e8])
        load = st.sampled_from([1.0, 1.5, 40.0])
        profiles = [None, ServerProfile(extra_latency_s=0.01),
                    ServerProfile(edge_predictor=ScaledPredictor(edge_base, 2.0)),
                    ServerProfile(edge_predictor=ScaledPredictor(edge_base, 2.0))]
        streams = [StreamingConfig(chunk_bytes=None, codecs=("fp32",)),
                   StreamingConfig(chunk_bytes=1024),
                   StreamingConfig(chunk_bytes=2048, codecs=("zlib", "fp32"))]

        def call():
            kind = data.draw(st.sampled_from(["decide", "grid", "joint"]))
            bw, k = data.draw(bandwidth), data.draw(load)
            if kind == "decide":
                return "decide", (bw,), dict(k=k)
            if kind == "joint":
                return "decide_joint", (bw, k), dict(
                    streaming=data.draw(st.sampled_from(streams)),
                    offload_only=data.draw(st.booleans()))
            num = data.draw(st.integers(1, 3))
            sla = data.draw(st.sampled_from([None, 1e-3, 0.05, 5.0]))
            return "decide_exit_fleet", (
                sla, [bw] * num, [data.draw(load) for _ in range(num)],
            ), dict(profiles=[data.draw(st.sampled_from(profiles))
                              for _ in range(num)],
                    allowed=data.draw(st.one_of(
                        st.none(), st.lists(st.integers(0, num - 1),
                                            max_size=num))))

        pool = [call() for _ in range(data.draw(st.integers(1, 6)))]
        seen = {}
        for index in data.draw(st.lists(st.integers(0, len(pool) - 1),
                                        min_size=1, max_size=12)):
            name, args, kwargs = pool[index]
            got = getattr(engine, name)(*args, **kwargs)
            fresh = copy.deepcopy(pristine)
            _assert_bitwise(got, getattr(fresh, name)(*args, **kwargs))
            if index in seen:
                assert got is seen[index]  # served from the memo
            seen[index] = got

    def test_lru_evicts_the_least_recently_used(self, squeezenet_engine):
        import copy

        from repro.core.engine import _MEMO_SIZE

        engine = copy.deepcopy(squeezenet_engine)
        engine._memo.clear()
        first = [engine.decide(1e6 + i) for i in range(_MEMO_SIZE)]
        assert engine.decide(1e6) is first[0]   # a hit refreshes entry 0
        newest = engine.decide(1e6 + _MEMO_SIZE)  # evicts entry 1, not 0
        assert engine.decide(1e6) is first[0]
        assert engine.decide(1e6 + _MEMO_SIZE) is newest
        again = engine.decide(1e6 + 1)
        assert again is not first[1]  # recomputed
        _assert_bitwise(again, first[1])
        assert len(engine._memo) == _MEMO_SIZE

    def test_a_raising_call_stores_nothing(self, squeezenet_exit_engine):
        from repro.network.streaming import StreamingConfig

        engine = squeezenet_exit_engine
        bad_calls = [
            lambda: engine.decide(-1.0),
            lambda: engine.decide(8e6, k=0.5),
            lambda: engine.decide_exit(0.0, 8e6),
            lambda: engine.decide_fleet([8e6, None], [1.0, 1.0]),
            lambda: engine.decide_joint(8e6),
        ]
        size = len(engine._memo)
        for bad in bad_calls:
            for _ in range(2):
                with pytest.raises(ValueError):
                    bad()
        assert len(engine._memo) == size
        # A keyword pair passed positionally is a different call.
        cfg = StreamingConfig(chunk_bytes=4096)
        engine.decide_joint(8e6, 1.0, streaming=cfg)
        with pytest.raises(AttributeError):
            engine.decide_joint(8e6, 1.0, ("streaming", cfg))

    def test_profiles_with_distinct_predictors_never_share(
            self, trained_report, squeezenet_engine):
        from repro.core.engine import ServerProfile
        from repro.profiling.predictor import ScaledPredictor

        edge = trained_report.edge_predictor
        slow = ServerProfile(edge_predictor=ScaledPredictor(edge, 3.0))
        fast = ServerProfile(edge_predictor=ScaledPredictor(edge, 0.25))
        twin = ServerProfile(edge_predictor=ScaledPredictor(edge, 3.0))
        engine = squeezenet_engine
        d_slow, d_fast, d_twin = [engine.decide_fleet([8e6], [1.0], profiles=[p])
                                  for p in (slow, fast, twin)]
        assert d_fast is not d_slow and d_twin is not d_slow
        assert not np.array_equal(d_fast.candidates[0], d_slow.candidates[0])
        _assert_bitwise(d_twin, d_slow)

    def test_returned_arrays_are_read_only(self, squeezenet_exit_engine):
        from repro.network.streaming import StreamingConfig

        engine = squeezenet_exit_engine
        decisions = [
            engine.decide(8e6),
            engine.decide_exit(0.05, 8e6),
            engine.decide_fleet([8e6, 4e6], [1.0, 2.0]),
            engine.decide_joint(8e6, streaming=StreamingConfig(chunk_bytes=4096)),
            engine.joint_at(engine.num_nodes, "fp32", False, 8e6,
                            streaming=StreamingConfig()),
        ]
        for decision in decisions:
            arrays = _decision_arrays(decision)
            assert arrays
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0.0

    def test_argument_types_do_not_leak_through_hits(self, squeezenet_exit_engine):
        """Equal arguments of different numeric types share an entry, so
        no field may take its type from the caller's argument."""
        engine = squeezenet_exit_engine
        from repro.network.streaming import StreamingConfig

        cfg = StreamingConfig(chunk_bytes=4096)
        for first, second in ((0.05, np.float64(0.05)),
                              (np.float64(0.07), 0.07)):
            a = engine.decide_exit(first, 8e6)
            b = engine.decide_exit(second, 8e6)
            assert type(a.sla_s) is type(b.sla_s) is float
        for first, second in ((3e6, np.float64(3e6)), (np.float64(5e6), 5e6)):
            a = engine.decide_joint(first, streaming=cfg)
            b = engine.decide_joint(second, streaming=cfg)
            assert type(a.predicted_upload_s) is float
            assert type(b.predicted_upload_s) is float
        d = engine.decide_fleet([8e6, 8e6], [1.0, 1.0],
                                allowed=[np.int64(1)])
        assert type(d.servers[0]) is int
        assert d.server is None or type(d.server) is int


class TestBandwidthMedian:
    """``BandwidthEstimator.estimate`` is ``np.median`` of its window."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_estimate_is_np_median_bitwise(self, data):
        from repro.network.estimator import BandwidthEstimator

        est = BandwidthEstimator(
            window_size=data.draw(st.integers(1, 8), label="window_size"),
            window_s=data.draw(st.sampled_from([None, 0.5, 2.0]),
                               label="window_s"))
        nbytes = st.sampled_from([1000, 4096, 65536, 123457])
        duration = st.one_of(st.sampled_from([0.01, 0.02, 0.3]),
                             st.floats(1e-4, 2.0))
        now = 0.0
        for _ in range(data.draw(st.integers(1, 30), label="steps")):
            op = data.draw(st.sampled_from(
                ["probe", "passive", "failure", "probe", "reset"]))
            now += data.draw(st.sampled_from([0.0, 0.1, 0.7]))
            if op == "reset":
                est.reset()
            else:
                getattr(est, {"probe": "add_probe", "passive": "add_passive",
                              "failure": "add_failure"}[op])(
                    now, data.draw(nbytes), data.draw(duration))
            got = est.estimate()
            window = [s.bandwidth_bps for s in est._window]
            if window:
                assert type(got) is float
                assert got.hex() == float(np.median(window)).hex()
            else:
                assert got == 8e6
