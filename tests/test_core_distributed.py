"""Tests for the fault-tolerant distributed-monitoring plane.

Covers the sample batch codec (fuzzed and bit-flipped payloads raise
only decode errors), deterministic target partitioning and its edge
cases, normal-operation semantics vs. the single monitor, worker-crash
failover/failback (the chaos acceptance scenario), ARQ gap repair under
a network partition, delta resynchronisation after an unfillable gap,
and a hypothesis property proving sequence-number dedup never
double-counts a sample.
"""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deltas import (
    DELTA_MAGIC,
    DeltaDecoder,
    DeltaEncoder,
    DeltaError,
    parse_delta,
)
from repro.core.distributed import DistributedMonitor
from repro.core.health import WorkerState
from repro.core.poller import InterfaceRates
from repro.experiments.testbed import build_testbed
from repro.simnet.faults import NetworkPartition, WorkerCrash
from repro.simnet.trafficgen import StaircaseLoad, StepSchedule
from repro.telemetry.events import SAMPLE_GAP

ALL_SNMP_NODES = ["L", "N1", "N2", "S1", "S2", "switch"]


class Sender:
    """One worker's delta batches, encoded in sequence order as the
    worker's shipper would; the coordinator may receive them in any."""

    def __init__(self, worker="S1", inc=1):
        self.encoder = DeltaEncoder(worker)
        self.inc = inc

    def batch(self, seq, samples=(("N1", 1),), rate=10.0):
        """Seq ``seq`` carrying one sample per source, stamped ``t=seq``.
        A source whose ``rate`` is unchanged since its last batch travels
        as a rate-only ADVANCE record, a moved one as CHANGED."""
        return self.encoder.encode(
            self.inc,
            seq,
            [
                InterfaceRates(node, if_index, float(seq), 1.0, rate, rate, 1.0, 1.0)
                for node, if_index in samples
            ],
        )


def feed(dm, payload):
    """Hand one datagram to the coordinator's report socket callback."""
    dm._on_datagram(payload, len(payload), None, 1234)


def mixed_batches():
    """Three real batches from one sender: FULL, CHANGED, ADVANCE and
    keyframe REFRESH records between them."""
    sender = Sender()
    sources = (("N1", 1), ("S1", 2))
    return [
        sender.batch(1, sources),
        sender.batch(2, sources, rate=20.0),
        sender.encoder.encode(
            1, 3, [InterfaceRates("N1", 1, 3.0, 1.0, 20.0, 20.0, 1.0, 1.0)],
            keyframe=True,
        ),
    ]


@st.composite
def bit_flipped(draw):
    """A real batch with exactly one bit flipped."""
    payload = bytearray(draw(st.sampled_from(mixed_batches())))
    position = draw(st.integers(min_value=0, max_value=len(payload) * 8 - 1))
    payload[position // 8] ^= 1 << (position % 8)
    return bytes(payload)


class TestSampleCodec:
    def test_roundtrip(self):
        sample = InterfaceRates("S1", 3, 12.5, 2.0, 100.5, 50.25, 10.0, 5.0)
        payload = DeltaEncoder("S1").encode(1, 1, [sample])
        assert DeltaDecoder().apply(parse_delta(payload)) == [sample]

    def test_garbage_rejected(self):
        non_utf8_name = bytearray(Sender().batch(1))
        non_utf8_name[3] = 0xFF  # first byte of the worker name "S1"
        for payload in (
            b"not json",
            bytes([DELTA_MAGIC]) + b" garbage",
            bytes(non_utf8_name),
        ):
            with pytest.raises(DeltaError):
                parse_delta(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            b"[1, 2, 3]",  # JSON list: indexing by key is a TypeError
            b'"just a string"',
            b"12345",
            b"null",
            b'{"n": "S1"}',  # missing fields: KeyError
            b'{"n": "S1", "i": "x", "t": 0, "d": 1,'
            b' "ib": 0, "ob": 0, "ip": 0, "op": 0}',  # non-numeric: ValueError
            b'{"n": "S1", "i": [1], "t": 0, "d": 1,'
            b' "ib": 0, "ob": 0, "ip": 0, "op": 0}',  # type confusion
        ],
    )
    def test_type_confused_payloads_rejected(self, payload):
        """JSON documents are neither sample batches nor control
        messages: the parser rejects them and the coordinator counts
        each as one decode error."""
        with pytest.raises(DeltaError):
            parse_delta(payload)
        _, dm = distributed()
        feed(dm, payload)
        assert dm.decode_errors == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=64),
            st.binary(max_size=64).map(lambda b: bytes([DELTA_MAGIC]) + b),
        )
    )
    def test_fuzzed_payloads_raise_only_decode_errors(self, payload):
        try:
            parse_delta(payload)
        except DeltaError:
            pass  # the documented decode-failure surface

    @settings(max_examples=300, deadline=None)
    @given(bit_flipped())
    def test_bit_flipped_batches_raise_only_decode_errors(self, payload):
        try:
            parse_delta(payload)
        except DeltaError:
            pass

    @settings(max_examples=40, deadline=None)
    @given(corrupt=st.lists(bit_flipped(), min_size=1, max_size=4))
    def test_coordinator_counts_corrupt_batches(self, corrupt):
        """Corrupt datagrams never escape the socket callback: each one
        the parser rejects is one decode error, and the rest are handled
        like any batch (a mangled name is an unknown sender)."""
        build, dm = distributed()
        rejected = 0
        for payload in corrupt:
            try:
                parse_delta(payload)
            except DeltaError:
                rejected += 1
            feed(dm, payload)
        assert dm.decode_errors == rejected
        build.network.run(0.5)  # retransmit and keyframe requests go out


def distributed(worker_hosts=("L", "S1", "S2"), **kwargs):
    build = build_testbed()
    dm = DistributedMonitor(
        build, coordinator_host="L", worker_hosts=list(worker_hosts),
        poll_jitter=0.0, **kwargs
    )
    return build, dm


class TestPartitioning:
    def test_every_snmp_node_assigned_exactly_once(self):
        build, dm = distributed()
        assigned = [t for w in dm.workers.values() for t in w.poller.targets]
        assert sorted(t.node for t in assigned) == ALL_SNMP_NODES

    def test_affinity_workers_poll_themselves(self):
        build, dm = distributed()
        assert "L" in dm.targets_of("L")
        assert "S1" in dm.targets_of("S1")
        assert "S2" in dm.targets_of("S2")

    def test_single_worker_gets_everything(self):
        build, dm = distributed(worker_hosts=("S2",))
        assert sorted(dm.targets_of("S2")) == ALL_SNMP_NODES

    def test_no_workers_rejected(self):
        build = build_testbed()
        with pytest.raises(ValueError):
            DistributedMonitor(build, "L", [])

    def test_worker_host_that_is_not_a_poll_target(self):
        # S3 runs no SNMP agent, so it appears nowhere in the target set;
        # it still works fine as a worker and absorbs its round-robin share.
        build, dm = distributed(worker_hosts=("S3", "S1"))
        union = sorted(dm.targets_of("S3") + dm.targets_of("S1"))
        assert union == ALL_SNMP_NODES
        assert "S3" not in union
        assert dm.targets_of("S3")  # the non-agent host still polls others

    def test_more_workers_than_targets_leaves_spares(self):
        hosts = ("L", "S1", "S2", "S3", "S4", "S5", "S6")
        build, dm = distributed(worker_hosts=hosts)
        # Every worker exists (spares are failover capacity), every target
        # is covered exactly once, and no worker is required to have work.
        assert sorted(dm.workers) == sorted(hosts)
        assigned = [n for w in hosts for n in dm.targets_of(w)]
        assert sorted(assigned) == ALL_SNMP_NODES
        assert any(not dm.targets_of(w) for w in hosts)  # at least one spare

    def test_partition_is_deterministic(self):
        _, dm1 = distributed()
        _, dm2 = distributed()
        for worker in ("L", "S1", "S2"):
            assert dm1.targets_of(worker) == dm2.targets_of(worker)


class TestOperation:
    def test_measurements_match_single_monitor_semantics(self):
        build, dm = distributed()
        label = dm.watch_path("S1", "N1")
        net = build.network
        StaircaseLoad(
            net.host("L"), net.ip_of("N1"), StepSchedule.pulse(5.0, 35.0, 300_000.0)
        ).start()
        dm.start()
        net.run(40.0)
        series = dm.history.series(label)
        assert series.used().max() == pytest.approx(300_000 * 1.019, rel=0.08)
        assert dm.samples_received > 0
        assert dm.decode_errors == 0

    def test_load_spread_across_workers(self):
        build, dm = distributed()
        dm.watch_path("S1", "N1")
        dm.start()
        build.network.run(20.0)
        stats = dm.stats()
        per_worker = {
            key.split(".", 1)[1]: value
            for key, value in stats.items()
            if key.startswith("per_worker_requests.")
        }
        assert sorted(per_worker) == ["L", "S1", "S2"]
        assert all(count > 0 for count in per_worker.values())

    def test_subscribers_receive_reports(self):
        build, dm = distributed()
        dm.watch_path("S1", "N1")
        seen = []
        dm.subscribe(seen.append)
        dm.start()
        build.network.run(12.0)
        assert len(seen) >= 3

    def test_stop_halts_workers(self):
        build, dm = distributed()
        dm.watch_path("S1", "N1")
        dm.start()
        build.network.run(10.0)
        dm.stop()
        build.network.run(11.0)  # drain datagrams already on the wire
        received = dm.samples_received
        build.network.run(40.0)
        assert dm.samples_received == received

    def test_stopped_plane_can_be_rebuilt_on_same_hosts(self):
        # stop() must release every socket (report sink, control sockets,
        # SNMP manager sockets) or the second plane dies on port collision.
        build, dm = distributed()
        dm.watch_path("S1", "N1")
        dm.start()
        build.network.run(10.0)
        dm.stop()
        dm2 = DistributedMonitor(
            build, coordinator_host="L", worker_hosts=["L", "S1", "S2"],
            poll_jitter=0.0,
        )
        dm2.watch_path("S1", "N1")
        dm2.start()
        build.network.run(20.0)
        assert dm2.samples_received > 0
        dm2.stop()

    def test_duplicate_watch_rejected(self):
        build, dm = distributed()
        dm.watch_path("S1", "N1")
        with pytest.raises(ValueError):
            dm.watch_path("S1", "N1")

    def test_report_shipping_is_real_traffic(self):
        """Workers' sample datagrams traverse the network to the coordinator."""
        build, dm = distributed(worker_hosts=("S2",))
        dm.watch_path("S1", "N1")
        s2 = build.network.host("S2")
        base = s2.interfaces[0].counters.out_octets
        dm.start()
        build.network.run(15.0)
        assert s2.interfaces[0].counters.out_octets > base + 1000

    def test_malformed_datagrams_counted_not_fatal(self):
        build, dm = distributed()
        good = Sender().batch(1)
        header = bytes([DELTA_MAGIC, 0, 2]) + b"S1" + bytes([1, 1])  # inc 1, seq 1
        bad = [
            b"\x00\xff garbage",
            b"[1,2,3]",
            b'{"k": "batch", "w": "S1", "inc": 1, "q": 1, "s": []}',  # no JSON samples
            b'{"k": "wat"}',
            b'{"no": "kind"}',
            good[:-3],  # truncated record
            good + b"\x00",  # trailing bytes
            header + bytes([1, 9, 1]),  # unknown record type
            bytes([DELTA_MAGIC, 0, 2]) + b"\xffS" + bytes([1, 1, 0]),  # non-UTF-8 name
        ]
        for payload in bad:
            feed(dm, payload)
        assert dm.decode_errors == len(bad)
        # The plane still works afterwards.
        dm.watch_path("S1", "N1")
        dm.start()
        build.network.run(10.0)
        assert dm.samples_received > 0


class TestFailover:
    def test_worker_crash_failover_and_failback(self):
        """The chaos acceptance scenario: kill one of three workers
        mid-run; its targets move to survivors and every watched path
        reports trusted fresh data within three poll cycles; affected
        reports are degraded (never silently stale) in between; on
        recovery the plane rebalances back."""
        build, dm = distributed()  # poll_interval=2.0
        dm.watch_path("S1", "N1")
        reports = []
        dm.subscribe(reports.append)
        net = build.network
        WorkerCrash(net.sim, dm.workers["S2"], at=10.0, until=25.0)
        dm.start()

        net.run(20.0)  # mid-crash
        assert dm.worker_states()["S2"] == "dead"
        assert dm.stats()["failovers"] >= 1
        # S2's share (itself + the switch) now belongs to the survivors.
        survivors = dm.targets_of("L") + dm.targets_of("S1")
        assert sorted(survivors) == ALL_SNMP_NODES
        assert dm.assigned_targets_of("S2") == []
        # Re-coverage within 3 poll cycles of the crash: every report
        # after t = 10 + 3*2 s is trusted again.
        settled = [r for r in reports if r.time >= 16.0]
        assert settled and all(r.trusted for r in settled)
        # In the detection window the path was degraded, not silently
        # served from the dead worker's last samples.
        gap_window = [r for r in reports if 11.0 <= r.time <= 14.0]
        assert any(not r.trusted for r in gap_window)

        net.run(40.0)  # recovery at t=25, then settle
        assert dm.worker_states() == {w: "alive" for w in ("L", "S1", "S2")}
        assert dm.stats()["rebalances"] >= 1
        # Affinity restored: S2 polls itself (and its round-robin share).
        assert "S2" in dm.targets_of("S2")
        late = [r for r in reports if r.time >= 28.0]
        assert late and all(r.trusted for r in late)
        assert dm.stats()["degraded_sources"] == 0.0

    def test_lease_states_exported(self):
        build, dm = distributed()
        dm.start()
        build.network.run(6.0)
        stats = dm.stats()
        assert stats["workers_alive"] == 3.0
        assert stats["workers_dead"] == 0.0
        assert dm.worker_states() == {w: "alive" for w in ("L", "S1", "S2")}


class TestArq:
    def test_partition_gaps_are_detected_and_refilled(self):
        """Batches lost in a short partition come back via selective
        retransmit from the worker's resend buffer -- no failover, no
        permanent loss, no double-counting."""
        build, dm = distributed()
        dm.watch_path("S1", "N1")
        net = build.network
        # Sever S2's uplink for 1.2 s: long enough to lose batches and
        # heartbeats, short enough that the lease survives (suspect only).
        uplink = net.host("S2").interfaces[0].link
        NetworkPartition(net.sim, [uplink], at=10.0, until=11.2)
        dm.start()
        net.run(30.0)
        stats = dm.stats()
        assert stats["gaps_detected"] >= 1.0
        assert stats["gaps_filled"] == stats["gaps_detected"]
        assert stats["gaps_abandoned"] == 0.0
        assert stats["failovers"] == 0.0
        assert dm.worker_states()["S2"] == "alive"
        assert dm.stats()["degraded_sources"] == 0.0

    def test_unfillable_gap_degrades_then_recovers(self):
        """A gap the worker can no longer serve (evicted from its resend
        buffer) is abandoned: the worker's assigned sources go degraded,
        and fresh in-order samples clear the marks again.  The delta
        stream desyncs too: the coordinator asks for a keyframe and drops
        rate-only records until one arrives."""
        build, dm = distributed(integrity=False)
        # S1's affinity share is itself plus round-robined N2.
        assert sorted(dm.assigned_targets_of("S1")) == ["N2", "S1"]
        s1 = Sender()
        first, _lost, third = s1.batch(1), s1.batch(2, rate=20.0), s1.batch(3, rate=30.0)
        feed(dm, first)
        feed(dm, third)  # seq 2 never arrives: gap + retx
        assert dm.stats()["gaps_detected"] == 1.0
        # The worker answers that seq 2 fell out of its resend buffer.
        feed(dm, json.dumps({"k": "gone", "w": "S1", "inc": 1, "seqs": [2]}).encode())
        dm._sweep()
        stats = dm.stats()
        assert stats["gaps_abandoned"] == 1.0
        # Seq 3 was drained past the abandoned gap (its CHANGED record
        # carries complete values); nothing re-delivered.
        assert dm.samples_received == 2
        # Every source S1 is responsible for is now marked lossy...
        assert stats["degraded_sources"] == 2.0
        assert dm.degraded.is_degraded("S1", 1)
        assert dm.degraded.is_degraded("N2", 1)
        # ...until fresh in-order samples arrive and clear the marks.
        feed(dm, s1.batch(4, samples=(("S1", 1), ("N2", 1))))
        assert dm.stats()["degraded_sources"] == 0.0
        assert dm.samples_received == 4

        # Desync -> kfreq -> keyframe: one keyframe request went to S1...
        assert dm.stats()["keyframe_requests"] == 1.0
        # ...and until it is answered, a rate-only record is dropped.
        feed(dm, s1.batch(5, rate=30.0))
        assert dm.samples_received == 4
        assert dm.rates.latest("N1", 1).time == 3.0
        # S1 answers kfreq by re-stating everything in its next batch.
        s1.encoder.force_keyframe()
        feed(dm, s1.batch(6, rate=30.0))
        assert dm.samples_received == 5
        # Resynchronised: rate-only records are delivered again, and one
        # request per backoff window was enough.
        feed(dm, s1.batch(7, rate=30.0))
        assert dm.samples_received == 6
        assert dm.rates.latest("N1", 1).time == 7.0
        assert dm.stats()["keyframe_requests"] == 1.0
        assert dm.decode_errors == 0

    def test_partition_past_resend_buffer_resyncs_by_keyframe(self):
        """Live desync -> kfreq -> keyframe: batches lost beyond a
        one-batch resend buffer are abandoned, and with no periodic
        keyframes only the worker's answer to ``kfreq`` can resync the
        coordinator's delta context.  (A long lease keeps the 5 s
        partition from turning into a failover.)"""
        build, dm = distributed(resend_buffer=1, keyframe_every=0, lease_timeout=8.0)
        dm.watch_path("S1", "N1")
        reports = []
        dm.subscribe(reports.append)
        net = build.network
        uplink = net.host("S2").interfaces[0].link
        NetworkPartition(net.sim, [uplink], at=10.0, until=15.0)
        dm.start()
        net.run(30.0)
        stats = dm.stats()
        assert stats["gaps_abandoned"] >= 1.0
        assert stats["keyframe_requests"] >= 1.0
        assert stats["failovers"] == 0.0
        # The initial keyframe plus at least one on request.
        assert dm.workers["S2"].shipper.keyframes_shipped >= 2
        ingest = dm._ingest["S2"].delta
        assert ingest.samples_skipped >= 1  # rate-only records dropped meanwhile
        assert not ingest.desync
        assert stats["degraded_sources"] == 0.0
        late = [r for r in reports if r.time >= 20.0]
        assert late and all(r.trusted for r in late)

    def test_rate_only_records_past_an_abandoned_gap_are_dropped(self):
        """A batch drained past an abandoned hole must not apply a
        rate-only record to the context from before the hole: the lost
        batch may have moved the rate it stands for."""
        build, dm = distributed(integrity=False)
        s1 = Sender()
        first, _lost, third = s1.batch(1), s1.batch(2, rate=20.0), s1.batch(3, rate=20.0)
        feed(dm, first)
        feed(dm, third)  # ADVANCE: "still 20.0", but 20.0 rode seq 2
        feed(dm, json.dumps({"k": "gone", "w": "S1", "inc": 1, "seqs": [2]}).encode())
        dm._sweep()
        assert dm.stats()["gaps_abandoned"] == 1.0
        latest = dm.rates.latest("N1", 1)
        assert (latest.time, latest.in_bytes_per_s) == (1.0, 10.0)
        assert dm.samples_received == 1
        assert dm.stats()["keyframe_requests"] == 1.0


    @pytest.mark.parametrize("via", ["heartbeat", "batch"])
    def test_far_ahead_seq_abandons_the_unrefillable_span_at_once(self, via):
        """One corrupt or hostile seq near 2**60 must not make the
        coordinator list every missing seq: the sender can resend only
        its last ``resend_buffer`` batches, so everything older is
        abandoned in one step and ARQ covers the rest."""
        build, dm = distributed(integrity=False, resend_buffer=8)
        s1 = Sender()
        feed(dm, s1.batch(1))
        far = 2**60
        begin = time.perf_counter()
        if via == "heartbeat":
            feed(dm, json.dumps({"k": "hb", "w": "S1", "inc": 1, "q": far}).encode())
        else:
            feed(dm, s1.batch(far))
        assert time.perf_counter() - begin < 1.0
        state = dm._ingest["S1"]
        assert 0 < len(state.gaps) <= dm.resend_buffer
        assert state.expected == far - dm.resend_buffer
        abandoned = [
            e for e in dm.telemetry.events.events(SAMPLE_GAP)
            if e.attrs["action"] == "abandoned"
        ]
        assert len(abandoned) == 1
        assert (abandoned[0].attrs["first"], abandoned[0].attrs["last"]) == (
            2, far - dm.resend_buffer - 1)
        stats = dm.stats()
        assert stats["gaps_detected"] == len(state.gaps)
        assert stats["gaps_abandoned"] == far - dm.resend_buffer - 2
        # The worker's sources are lossy and a keyframe was requested.
        assert dm.degraded.is_degraded("S1", 1)
        assert dm.degraded.is_degraded("N2", 1)
        assert stats["keyframe_requests"] == 1.0
        assert state.delta.desync


class TestSequenceDedup:
    """Sequence-number dedup: whatever order batches arrive in, and
    however often they are duplicated (retransmit overshoot, replays),
    each unique batch is delivered exactly once."""

    @settings(max_examples=25, deadline=None)
    @given(
        order=st.permutations(list(range(1, 9))),
        dups=st.lists(st.integers(min_value=1, max_value=8), max_size=12),
    )
    def test_each_sequence_delivered_exactly_once(self, order, dups):
        build, dm = distributed(integrity=False)
        s1 = Sender()
        payloads = {seq: s1.batch(seq) for seq in range(1, 9)}
        for seq in list(order) + dups:
            feed(dm, payloads[seq])
        # All 8 unique batches delivered exactly once, however mangled
        # the arrival order and however many duplicates came in.
        assert dm.samples_received == 8
        assert dm.stats()["duplicate_batches"] == float(len(dups))
        # And the rate table holds exactly the newest sample.
        assert dm.rates.latest("N1", 1).time == 8.0

    def test_restarted_worker_sequence_space_is_fresh(self):
        """A restart resets the worker's sequence numbers; the coordinator
        must adopt the new incarnation instead of treating seq 1 as a
        duplicate of the old seq 1."""
        build, dm = distributed(integrity=False)
        old = Sender(inc=1)
        first, straggler = old.batch(1), old.batch(2)
        feed(dm, first)
        feed(dm, straggler)
        assert dm.samples_received == 2
        restarted = Sender(inc=2).batch(1)
        feed(dm, restarted)
        assert dm.samples_received == 3
        assert dm.stats()["duplicate_batches"] == 0.0
        # Stragglers from the previous incarnation are dropped.
        feed(dm, straggler)
        assert dm.samples_received == 3
