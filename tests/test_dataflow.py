"""Incremental dataflow: epoch stamping and incremental ≡ full recompute.

The cache-coherence contract (see ``src/repro/core/dataflow.py``): the
incremental pipeline may only ever change how much work is done, never a
single output bit.  The hypothesis test at the bottom drives randomized
sample / link-flap / health / quarantine sequences through an incremental
matrix and a naive from-scratch one and requires exact report equality
after every operation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth import BandwidthCalculator
from repro.core.health import AgentHealthTracker
from repro.core.linkstate import LinkStateRegistry
from repro.core.matrix import BandwidthMatrix, MatrixError, MatrixSnapshot
from repro.core.poller import InterfaceRates, RateTable
from repro.core.traversal import NoPathError, find_all_paths, find_path
from repro.experiments.scale import populate_rates, scale_spec
from repro.integrity.quarantine import QuarantineManager
from repro.integrity.validators import IntegrityVerdict, Severity
from repro.telemetry import Telemetry
from repro.telemetry.events import REPORT_STATUS
from repro.topology.graph import TopologyGraph


def sample(node, if_index, time, bps=1e6):
    return InterfaceRates(
        node=node,
        if_index=if_index,
        time=time,
        interval=2.0,
        in_bytes_per_s=bps / 2.0,
        out_bytes_per_s=bps / 2.0,
        in_pkts_per_s=bps / 1500.0,
        out_pkts_per_s=bps / 1500.0,
    )


# ----------------------------------------------------------------------
# Epoch sources
# ----------------------------------------------------------------------
class TestEpochSources:
    def test_rate_table_bumps_per_ingest(self):
        rates = RateTable()
        assert rates.clock == 0
        assert rates.epoch("A", 1) == 0
        rates.update(sample("A", 1, 0.0))
        assert rates.epoch("A", 1) == 1
        rates.update(sample("B", 2, 0.0))
        assert rates.epoch("B", 2) == 2
        assert rates.epoch("A", 1) == 1  # untouched key keeps its stamp
        rates.update(sample("A", 1, 2.0))
        assert rates.epoch("A", 1) == 3
        assert rates.clock == 3

    def test_link_state_bumps_only_on_flips(self):
        spec = scale_spec(switches=1, hosts_per_switch=2)
        ls = LinkStateRegistry(spec, {})
        conn = spec.connections[0]
        assert ls.epoch_of(conn) == 0
        ls.mark_down(conn)
        first = ls.epoch_of(conn)
        assert first == 1
        ls.mark_down(conn)  # redundant: no flip, no bump
        assert ls.epoch_of(conn) == first
        ls.mark_up(conn)
        assert ls.epoch_of(conn) == 2
        ls.mark_up(conn)
        assert ls.epoch_of(conn) == 2
        assert ls.clock == 2

    def test_oper_status_bumps_only_on_flips(self):
        spec = scale_spec(switches=1, hosts_per_switch=2)
        ls = LinkStateRegistry(spec, {})
        conn = spec.connections[0]
        end = conn.end_a
        node = spec.node(end.node)
        from repro.core.counters import if_index_of

        idx = if_index_of(node, end.interface)
        ls.apply_oper_status(end.node, idx, up=True)  # already up
        assert ls.clock == 0
        ls.apply_oper_status(end.node, idx, up=False)
        assert ls.clock == 1
        ls.apply_oper_status(end.node, idx, up=False)
        assert ls.clock == 1

    def test_health_bumps_on_transitions_only(self):
        health = AgentHealthTracker(suspect_after=2, dead_after=3)
        assert health.epoch_of("A") == 0
        health.record_success("A", 1.0)  # HEALTHY -> HEALTHY: no bump
        assert health.epoch_of("A") == 0
        health.record_failure("A", 2.0)  # -> DEGRADED
        assert health.epoch_of("A") == 1
        health.record_failure("A", 3.0)  # -> SUSPECT
        assert health.epoch_of("A") == 2
        health.record_failure("A", 4.0)  # -> DEAD
        assert health.epoch_of("A") == 3
        health.record_failure("A", 5.0)  # DEAD -> DEAD: no bump
        assert health.epoch_of("A") == 3
        assert health.clock == 3

    def test_quarantine_bumps_on_enter_and_release_only(self):
        qm = QuarantineManager()

        def violate(t):
            qm.apply(
                "A",
                1,
                [IntegrityVerdict("rate_bound", Severity.VIOLATION, "A", 1, t)],
                t,
            )

        violate(1.0)  # score 0.5: not yet quarantined
        assert qm.epoch_of("A", 1) == 0
        violate(2.0)  # score 0.25 < 0.3: enters quarantine
        assert qm.is_quarantined("A", 1)
        assert qm.epoch_of("A", 1) == 1
        violate(3.0)  # deeper, but already quarantined: no bump
        assert qm.epoch_of("A", 1) == 1
        for i in range(8):  # recover to >= 0.8: releases once
            qm.record_clean("A", 1, 4.0 + i)
        assert not qm.is_quarantined("A", 1)
        assert qm.epoch_of("A", 1) == 2
        assert qm.clock == 2


# ----------------------------------------------------------------------
# Traversal: iterative DFS + path memoization
# ----------------------------------------------------------------------
class TestTraversal:
    def test_deep_chain_does_not_hit_recursion_limit(self):
        # 1200 chained switches: the old recursive DFS would raise
        # RecursionError well before reaching the far end.
        spec = scale_spec(switches=1200, hosts_per_switch=1, arity=1)
        path = find_path(spec, "h0_0", "h1199_0")
        assert len(path) == 1201  # host leg + 1199 inter-switch + host leg

    def test_find_all_paths_iterative_matches_semantics(self):
        spec = scale_spec(switches=3, hosts_per_switch=2, arity=1)
        paths = find_all_paths(spec, "h0_0", "h2_1")
        assert len(paths) == 1  # trees have exactly one simple path
        assert paths[0] == find_path(spec, "h0_0", "h2_1")

    def test_graph_path_cache_hit_and_invalidate(self):
        spec = scale_spec(switches=2, hosts_per_switch=2, arity=1)
        graph = TopologyGraph(spec)
        first = find_path(graph, "h0_0", "h1_1")
        hit, stored = graph.cached_path("h0_0", "h1_1")
        assert hit and list(stored) == first
        again = find_path(graph, "h0_0", "h1_1")
        assert again == first
        assert again is not first  # callers get their own list
        epoch = graph.topology_epoch
        graph.invalidate_paths()
        assert graph.topology_epoch == epoch + 1
        assert graph.cached_path("h0_0", "h1_1") == (False, None)

    def test_disconnection_is_memoized_as_no_path(self):
        from repro.topology.model import (
            InterfaceSpec,
            NodeSpec,
            TopologySpec,
        )

        spec = TopologySpec(
            "islands",
            [
                NodeSpec("a", interfaces=[InterfaceSpec("eth0")]),
                NodeSpec("b", interfaces=[InterfaceSpec("eth0")]),
            ],
            [],
        )
        graph = TopologyGraph(spec)
        with pytest.raises(NoPathError):
            find_path(graph, "a", "b")
        hit, stored = graph.cached_path("a", "b")
        assert hit and stored is None
        with pytest.raises(NoPathError):  # served from the memo
            find_path(graph, "a", "b")

    def test_bare_spec_calls_do_not_populate_any_cache(self):
        spec = scale_spec(switches=2, hosts_per_switch=2, arity=1)
        find_path(spec, "h0_0", "h1_1")  # builds a throwaway graph


# ----------------------------------------------------------------------
# Vectorized MatrixSnapshot.values()
# ----------------------------------------------------------------------
class TestMatrixValues:
    def _snapshot(self):
        spec = scale_spec(switches=2, hosts_per_switch=3, arity=1, hub_pockets=1)
        rates = RateTable()
        populate_rates(spec, rates, time=0.0)
        calc = BandwidthCalculator(spec, rates)
        return BandwidthMatrix(spec, calc).snapshot(2.0)

    def test_matches_scalar_reference(self):
        snap = self._snapshot()
        for metric in ("available", "used", "utilization"):
            got = snap.values(metric)
            n = len(snap.hosts)
            want = np.full((n, n), np.nan)
            for i, a in enumerate(snap.hosts):
                for j, b in enumerate(snap.hosts):
                    if i >= j:
                        continue
                    report = snap.report(a, b)
                    if report is None:
                        continue
                    if metric == "available":
                        value = report.available_bps
                    elif metric == "used":
                        value = report.used_bps
                    else:
                        bn = report.bottleneck
                        value = bn.utilization if bn else 0.0
                    want[i, j] = want[j, i] = value
            assert np.array_equal(got, want, equal_nan=True)

    def test_diagonal_and_disconnected_stay_nan(self):
        snap = self._snapshot()
        values = snap.values()
        assert np.all(np.isnan(np.diag(values)))
        disconnected = MatrixSnapshot(
            hosts=["a", "b"], time=0.0, reports={("a", "b"): None}
        )
        assert np.all(np.isnan(disconnected.values()))

    def test_unknown_metric_raises(self):
        snap = self._snapshot()
        with pytest.raises(MatrixError):
            snap.values("latency")

    def test_returned_array_is_a_private_copy(self):
        snap = self._snapshot()
        first = snap.values()
        first[0, 1] = -1.0
        assert snap.values()[0, 1] != -1.0


# ----------------------------------------------------------------------
# Incremental matrix bookkeeping
# ----------------------------------------------------------------------
class TestIncrementalMatrix:
    def test_same_time_snapshot_reuses_reports_verbatim(self):
        spec = scale_spec(switches=2, hosts_per_switch=3, arity=1)
        rates = RateTable()
        populate_rates(spec, rates, time=0.0)
        calc = BandwidthCalculator(spec, rates)
        matrix = BandwidthMatrix(spec, calc)
        s1 = matrix.snapshot(2.0)
        s2 = matrix.snapshot(2.0)
        for key, report in s1.reports.items():
            assert s2.reports[key] is report
        assert matrix.pair_cache_hits == len(s1.reports)

    def test_dirty_connection_recomputes_only_crossing_pairs(self):
        spec = scale_spec(switches=2, hosts_per_switch=3, arity=1)
        rates = RateTable()
        populate_rates(spec, rates, time=0.0)
        calc = BandwidthCalculator(spec, rates)
        matrix = BandwidthMatrix(spec, calc)
        matrix.snapshot(2.0)
        # Touch one host leg: pairs involving that host are dirty, the
        # rest reuse verbatim at the same instant.
        conn = spec.connections[0]  # h0_0 <-> sw0
        from repro.core.counters import resolve_counter_source

        source = resolve_counter_source(spec, conn)
        rates.update(sample(source.node, source.if_index, 2.0, bps=5e6))
        before_hits = matrix.pair_cache_hits
        snap = matrix.snapshot(2.0)
        n = len(matrix.hosts)
        dirty = matrix.dirty_pairs_last
        assert dirty == n - 1  # every pair touching h0_0
        assert matrix.pair_cache_hits - before_hits == len(snap.reports) - dirty

    def test_topology_invalidation_rebuilds_paths(self):
        spec = scale_spec(switches=2, hosts_per_switch=3, arity=1)
        rates = RateTable()
        populate_rates(spec, rates, time=0.0)
        calc = BandwidthCalculator(spec, rates)
        matrix = BandwidthMatrix(spec, calc)
        s1 = matrix.snapshot(2.0)
        matrix.graph.invalidate_paths()
        s2 = matrix.snapshot(2.0)  # must not reuse pre-invalidation state
        assert s1.reports == s2.reports
        for key in s1.reports:
            assert s2.reports[key] is not s1.reports[key]


# ----------------------------------------------------------------------
# Property: incremental ≡ full recompute, bit-identical
# ----------------------------------------------------------------------
# Small-but-complete topology: two switches, a hub pocket, switch and hub
# rules, shared inter-switch uplink on most paths.
_SPEC = scale_spec(
    switches=2, hosts_per_switch=2, arity=1, hub_pockets=1, hub_hosts=2,
    redundant_uplinks=1,  # a parallel uplink so topology churn can reroute
)
_SOURCES = []
for _conn in _SPEC.connections:
    from repro.core.counters import resolve_counter_source as _rcs

    _src = _rcs(_SPEC, _conn)
    if _src is not None and _src.key() not in {s.key() for s in _SOURCES}:
        _SOURCES.append(_src)
_NODES = sorted({s.node for s in _SOURCES})

_OPS = st.one_of(
    st.tuples(
        st.just("sample"),
        st.integers(0, len(_SOURCES) - 1),
        st.floats(0.0, 1e7, allow_nan=False),
    ),
    st.tuples(st.just("advance"), st.just(0), st.just(0.0)),
    st.tuples(st.just("down"), st.integers(0, len(_SPEC.connections) - 1), st.just(0.0)),
    st.tuples(st.just("up"), st.integers(0, len(_SPEC.connections) - 1), st.just(0.0)),
    st.tuples(st.just("fail"), st.integers(0, len(_NODES) - 1), st.just(0.0)),
    st.tuples(st.just("ok"), st.integers(0, len(_NODES) - 1), st.just(0.0)),
    st.tuples(st.just("violate"), st.integers(0, len(_SOURCES) - 1), st.just(0.0)),
    st.tuples(st.just("clean"), st.integers(0, len(_SOURCES) - 1), st.just(0.0)),
    # Topology churn: spanning-tree blocking/unblocking connections in
    # the shared graph's active view, plus a bare epoch bump.  Paths
    # re-resolve (possibly to "disconnected"); the incremental matrix
    # must still match the naive one bit for bit.
    st.tuples(st.just("block"), st.integers(0, len(_SPEC.connections) - 1), st.just(0.0)),
    st.tuples(st.just("unblock"), st.integers(0, len(_SPEC.connections) - 1), st.just(0.0)),
    st.tuples(st.just("rewire"), st.just(0), st.just(0.0)),
)


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=40))
def test_incremental_equals_full_recompute(ops):
    rates = RateTable()
    ls = LinkStateRegistry(_SPEC, {})
    health = AgentHealthTracker()
    qm = QuarantineManager()
    calc = BandwidthCalculator(
        _SPEC,
        rates,
        link_state=ls,
        stale_after=4.0,
        dead_after=12.0,
        health=health,
        integrity=qm,
        incremental=True,
    )
    incremental = BandwidthMatrix(_SPEC, calc, incremental=True)
    naive = BandwidthMatrix(_SPEC, calc, incremental=False, graph=incremental.graph)
    graph = incremental.graph  # shared: both matrices see one active view
    blocked_idx = set()
    t = 0.0
    for op, index, arg in ops:
        if op == "sample":
            source = _SOURCES[index]
            rates.update(sample(source.node, source.if_index, t, bps=arg))
        elif op == "advance":
            t += 2.0
        elif op == "down":
            ls.mark_down(_SPEC.connections[index])
        elif op == "up":
            ls.mark_up(_SPEC.connections[index])
        elif op == "fail":
            health.record_failure(_NODES[index], t)
        elif op == "ok":
            health.record_success(_NODES[index], t)
        elif op == "violate":
            source = _SOURCES[index]
            qm.apply(
                source.node,
                source.if_index,
                [
                    IntegrityVerdict(
                        "rate_bound", Severity.VIOLATION, source.node,
                        source.if_index, t,
                    )
                ],
                t,
            )
        elif op == "clean":
            source = _SOURCES[index]
            qm.record_clean(source.node, source.if_index, t)
        elif op == "block":
            blocked_idx.add(index)
            graph.set_blocked([_SPEC.connections[i] for i in sorted(blocked_idx)])
        elif op == "unblock":
            blocked_idx.discard(index)
            graph.set_blocked([_SPEC.connections[i] for i in sorted(blocked_idx)])
        elif op == "rewire":
            graph.invalidate_paths()
        got = incremental.snapshot(t)
        want = naive.snapshot(t)
        # Exact equality, field by field: confidence, trusted/degraded
        # flags, freshness, every ConnectionMeasurement.  Caching must be
        # invisible in the output.
        assert got.reports == want.reports
        assert np.array_equal(got.values(), want.values(), equal_nan=True)
        assert np.array_equal(
            got.values("utilization"), want.values("utilization"), equal_nan=True
        )


# ----------------------------------------------------------------------
# Telemetry: connection-first composition ≡ per-pair measure_path
# ----------------------------------------------------------------------
def _telemetry_view(tel):
    registry = tel.registry
    staleness = registry.get("report_staleness_seconds")
    return {
        "spans_started": tel.tracer.spans_started,
        "spans_finished": tel.tracer.spans_finished,
        "staleness_count": staleness.count,
        "staleness_sum": registry.value("report_staleness_seconds")["sum"],
        "staleness_quantiles": staleness.quantiles(),
        "degraded": registry.value("reports_degraded_total"),
        "unavailable": registry.value("reports_unavailable_total"),
        "status_events": [
            (e.time, dict(e.attrs)) for e in tel.events.events(REPORT_STATUS)
        ],
    }


def test_matrix_telemetry_equals_per_pair_measurement():
    """The incremental matrix composes reports connection-first; the
    naive one calls ``measure_path`` per pair.  Both go through the one
    report-assembly path, so every span, staleness observation, trust
    counter and status event must agree while pairs go fresh → degraded
    → unavailable → fresh (one snapshot per instant: a same-instant
    verbatim reuse emits nothing by design)."""
    spec = scale_spec(switches=2, hosts_per_switch=3, arity=1, hub_pockets=1, hub_hosts=2)
    rates = RateTable()
    clock = {"t": 0.0}
    matrices = []
    for incremental in (True, False):
        tel = Telemetry(clock=lambda: clock["t"], event_capacity=100_000)
        calc = BandwidthCalculator(
            spec, rates, stale_after=4.0, dead_after=12.0, telemetry=tel,
            incremental=incremental,
        )
        matrices.append((BandwidthMatrix(spec, calc, incremental=incremental), tel))
    populate_rates(spec, rates, time=0.0)
    keys = sorted(rates.keys())
    # (instant, sources refreshed just before it): a partial refresh makes
    # some pairs dirty and others clean; the gaps age samples past
    # stale_after, then past dead_after; a full refresh brings all back.
    steps = [(1.0, ()), (2.0, keys[:2]), (6.0, ()), (9.0, ()), (13.0, ()),
             (14.0, "all"), (16.0, ())]
    (inc, _), (naive, _) = matrices
    reports = 0
    for t, refresh in steps:
        clock["t"] = t
        if refresh == "all":
            populate_rates(spec, rates, time=t)
        else:
            for key in refresh:
                rates.update(sample(key[0], key[1], t, bps=3e6))
        snap = inc.snapshot(t)
        assert snap.reports == naive.snapshot(t).reports
        reports += sum(report is not None for report in snap.reports.values())

    got = _telemetry_view(matrices[0][1])
    want = _telemetry_view(matrices[1][1])
    assert got == want
    # The sequence really walked every trust level.
    assert got["degraded"] > 0 and got["unavailable"] > 0
    news = [attrs["new"] for _, attrs in got["status_events"]]
    assert "degraded" in news and "unavailable" in news
    assert news.index("fresh") > news.index("unavailable")
    assert got["spans_started"] == got["spans_finished"] == reports
