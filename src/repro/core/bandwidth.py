"""Per-connection and per-path bandwidth calculation (paper §3.3).

The paper's two rules:

**Switch rule** -- "a switch does not forward packets for one host to other
hosts connected to the same switch.  Hence, the amount of bandwidth used
on a host connected to a switch is simply the amount of data transmitted
as reported by SNMP polling from either the host or the switch.  If the
traffic reported is t_i, then we simply have u_i = t_i."

**Hub rule** -- "for hosts connected to hubs, all packets that go through
the hub will be sent to every host connected to the hub.  Therefore, the
amount of bandwidth used for a host connected to a hub is the sum of all
the data sent to the hub ... u_i = t_1 + t_2 + ... + t_n.  Notice that u_i
cannot exceed the maximum speed of the hub."

A connection's traffic figure ``t`` is the bidirectional byte rate at its
counter source (in + out octets per second).  For the hub sum, the summed
set is the hub's *host-facing* connections: a frame entering through the
uplink and delivered to host j is counted once, at t_j, and the shared
medium indeed carries each frame once.  Every connection touching the hub
(host legs and uplinks alike) shares the same u, because they share the
same medium.

Path figures: available ``A = min_i (m_i - u_i)``; used = ``max_i u_i``
(the paper's plotted "measured traffic between hosts" -- the busiest
segment along the path).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.counters import CounterSource, hub_host_connections, resolve_counter_source
from repro.core.dataflow import ConnCacheEntry
from repro.core.poller import InterfaceRates, RateTable
from repro.core.report import ConnectionMeasurement, PathReport
from repro.telemetry import Telemetry
from repro.telemetry.events import REPORT_STATUS
from repro.topology.model import ConnectionSpec, DeviceKind, TopologySpec


class BandwidthCalculator:
    """Turns a :class:`RateTable` into connection/path measurements.

    Staleness-aware when ``stale_after`` is set (the monitor sets it):
    samples older than ``stale_after`` mark their connection stale and
    the path degraded; older than ``dead_after`` (or sourced from an
    agent the health tracker says is DEAD) they stop counting as data at
    all, and a path left without trustworthy figures reports
    ``unavailable`` instead of a stale number.

    **Incremental mode** (the default): measurements are memoized per
    connection on an epoch token drawn from every input -- rate-table
    ingest, link-state flips, quarantine enter/release, health
    transitions (see :mod:`repro.core.dataflow`).  A request whose token
    matches the cached one reuses the measurement; when only the report
    instant moved, the time-independent core is kept and just the age
    fields are re-derived.  Hub aggregates are computed once per hub per
    epoch and shared by every leg.  The cache may only ever change how
    much work is done: outputs are bit-identical to ``incremental=False``
    (enforced by ``tests/test_dataflow.py``).
    """

    def __init__(
        self,
        spec: TopologySpec,
        rates: RateTable,
        link_state=None,
        stale_after: Optional[float] = None,
        dead_after: Optional[float] = None,
        health=None,
        telemetry: Optional[Telemetry] = None,
        integrity=None,
        degraded_sources=None,
        incremental: bool = True,
    ) -> None:
        """``link_state``: optional :class:`~repro.core.linkstate.
        LinkStateRegistry`; connections it marks down report zero
        availability with rule "down".  ``health``: optional
        :class:`~repro.core.health.AgentHealthTracker` consulted for the
        counter-source agents.  ``stale_after``/``dead_after``: sample
        ages (seconds) beyond which data is degraded / untrustworthy.
        ``telemetry``: optional hub; path measurements are then traced,
        report staleness feeds a histogram, and per-path trust-status
        changes (fresh/degraded/unavailable) publish events.
        ``integrity``: optional
        :class:`~repro.integrity.IntegrityPipeline`; connections whose
        counter source it quarantines are flagged on the measurement and
        capped at 0.5 confidence (their withheld samples then age into
        the ordinary staleness decay).  ``degraded_sources``: optional
        :class:`~repro.core.dataflow.DegradedSourceSet`; sources the
        distributed plane flags as known-lossy (worker lease lost,
        abandoned sequence gap) are capped the same way -- the plane
        *knows* newer data existed and was dropped, so the last sample
        must not be presented at full confidence however young it is."""
        if (
            stale_after is not None
            and dead_after is not None
            and dead_after <= stale_after
        ):
            raise ValueError(
                f"dead_after {dead_after!r} must exceed stale_after {stale_after!r}"
            )
        self.spec = spec
        self.rates = rates
        self.link_state = link_state
        self.stale_after = stale_after
        self.dead_after = dead_after
        self.health = health
        self.telemetry = telemetry
        self.integrity = integrity
        self.degraded_sources = degraded_sources
        self._last_status: Dict[str, str] = {}  # path label -> trust status
        if telemetry is not None:
            registry = telemetry.registry
            self._m_reports_degraded = registry.counter(
                "reports_degraded_total", "path reports resting on stale data"
            )
            self._m_reports_unavailable = registry.counter(
                "reports_unavailable_total",
                "path reports with no trustworthy figures at all",
            )
            self._h_staleness = registry.histogram(
                "report_staleness_seconds",
                "age of the stalest sample behind each path report",
            )
        self._source_cache: Dict[Tuple, Optional[CounterSource]] = {}
        # Hub membership: hub name -> its host-facing connections.
        self._hub_host_conns: Dict[str, List[ConnectionSpec]] = hub_host_connections(spec)
        # --- incremental dataflow state ---------------------------------
        self.incremental = incremental
        self.cache_hits = 0
        self.recomputes = 0
        self._entries: Dict[Tuple, ConnCacheEntry] = {}
        self._hub_by_conn: Dict[Tuple, Optional[str]] = {}
        self._hub_leg_keys: Dict[str, Tuple] = {}
        # hub -> (rates token, total, newest sample, any_measured)
        self._hub_cache: Dict[str, Tuple] = {}
        # Validation stamp: entries checked during the current cycle (one
        # combination of report instant + all global input clocks) skip
        # even the per-connection token comparison.
        self._cycle_token: Optional[Tuple] = None
        self._stamp = 0

    # ------------------------------------------------------------------
    # Per-connection traffic
    # ------------------------------------------------------------------
    def counter_source(self, conn: ConnectionSpec) -> Optional[CounterSource]:
        key = conn.endpoints()
        if key not in self._source_cache:
            self._source_cache[key] = resolve_counter_source(self.spec, conn)
        return self._source_cache[key]

    def raw_traffic(self, conn: ConnectionSpec) -> Optional[InterfaceRates]:
        """Latest rate sample at the connection's counter source."""
        source = self.counter_source(conn)
        if source is None:
            return None
        return self.rates.latest(source.node, source.if_index)

    def hub_of(self, conn: ConnectionSpec) -> Optional[str]:
        """The hub this connection touches, if any."""
        key = conn.endpoints()
        try:
            return self._hub_by_conn[key]
        except KeyError:
            pass
        hub: Optional[str] = None
        for end in key:
            if self.spec.node(end.node).kind is DeviceKind.HUB:
                hub = end.node
                break
        self._hub_by_conn[key] = hub
        return hub

    # ------------------------------------------------------------------
    # Epoch tokens (incremental dataflow)
    # ------------------------------------------------------------------
    def _hub_rates_token(self, hub: str) -> Tuple:
        """Per-leg rate-table epochs of a hub's host legs, in sum order."""
        keys = self._hub_leg_keys.get(hub)
        if keys is None:
            resolved = []
            for leg in self._hub_host_conns.get(hub, []):
                source = self.counter_source(leg)
                resolved.append(source.key() if source is not None else None)
            keys = self._hub_leg_keys[hub] = tuple(resolved)
        return tuple(self.rates.epoch(*k) if k is not None else 0 for k in keys)

    def connection_token(self, conn: ConnectionSpec) -> Tuple:
        """The epochs of every input ``measure_connection`` reads.

        A measurement computed under one token is valid exactly as long
        as the token is unchanged.  Collaborators that predate the epoch
        surface (test doubles) fall back to the raw boolean state, which
        still flips whenever the answer would.
        """
        source = self.counter_source(conn)
        hub = self.hub_of(conn)
        if hub is not None:
            rates_part: object = self._hub_rates_token(hub)
        elif source is not None:
            rates_part = self.rates.epoch(source.node, source.if_index)
        else:
            rates_part = 0
        ls = self.link_state
        if ls is None:
            ls_part: object = 0
        else:
            epoch_of = getattr(ls, "epoch_of", None)
            ls_part = epoch_of(conn) if epoch_of is not None else ls.is_down(conn)
        integ = self.integrity
        if integ is None or source is None:
            integ_part: object = 0
        else:
            epoch_of = getattr(integ, "epoch_of", None)
            integ_part = (
                epoch_of(source.node, source.if_index)
                if epoch_of is not None
                else integ.is_quarantined(source.node, source.if_index)
            )
        health = self.health
        if health is None or source is None:
            health_part: object = 0
        else:
            epoch_of = getattr(health, "epoch_of", None)
            health_part = (
                epoch_of(source.node)
                if epoch_of is not None
                else health.is_dead(source.node)
            )
        degraded = self.degraded_sources
        if degraded is None or source is None:
            degraded_part: object = 0
        else:
            epoch_of = getattr(degraded, "epoch_of", None)
            degraded_part = (
                epoch_of(source.node, source.if_index)
                if epoch_of is not None
                else degraded.is_degraded(source.node, source.if_index)
            )
        return (rates_part, ls_part, integ_part, health_part, degraded_part)

    def _revalidate(self, now: Optional[float]) -> None:
        """Advance the validation stamp when any global input clock moved.

        When every collaborator exposes a clock, an unchanged cycle token
        proves *nothing anywhere changed* and cached entries validated
        this cycle are reusable on a single int compare.  A collaborator
        without a clock (a test double) yields None, which never equals
        itself across calls here -- the stamp then bumps every time and
        each entry falls back to its full token comparison.
        """
        token = (
            now,
            getattr(self.rates, "clock", None),
            getattr(self.link_state, "clock", None) if self.link_state is not None else 0,
            getattr(self.health, "clock", None) if self.health is not None else 0,
            getattr(self.integrity, "clock", None) if self.integrity is not None else 0,
            getattr(self.degraded_sources, "clock", None)
            if self.degraded_sources is not None
            else 0,
        )
        if None in token[1:] or token != self._cycle_token:
            self._cycle_token = token
            self._stamp += 1

    # ------------------------------------------------------------------
    # The two rules
    # ------------------------------------------------------------------
    def used_bandwidth(self, conn: ConnectionSpec) -> Tuple[Optional[float], str, Optional[InterfaceRates]]:
        """(u_i in bytes/s, rule name, underlying sample).

        Returns ``(None, "unmeasured", None)`` when no counter source (or
        no sample yet) exists for the inputs the rule needs.
        """
        hub = self.hub_of(conn)
        if hub is None:
            sample = self.raw_traffic(conn)
            if sample is None:
                return None, "unmeasured", None
            return sample.total_bytes_per_s, "switch", sample
        # Hub rule: sum the host legs, clamp to the hub speed.
        total = 0.0
        newest: Optional[InterfaceRates] = None
        any_measured = False
        for leg in self._hub_host_conns.get(hub, []):
            sample = self.raw_traffic(leg)
            if sample is None:
                continue
            any_measured = True
            total += sample.total_bytes_per_s
            if newest is None or sample.time > newest.time:
                newest = sample
        if not any_measured:
            return None, "unmeasured", None
        hub_speed_bytes = self.spec.node(hub).interfaces[0].speed_bps / 8.0
        return min(total, hub_speed_bytes), "hub", newest

    def _used_bandwidth_cached(
        self, conn: ConnectionSpec
    ) -> Tuple[Optional[float], str, Optional[InterfaceRates]]:
        """Like :meth:`used_bandwidth`, sharing hub sums across legs.

        The hub aggregate is computed once per hub per rates epoch and
        reused by every connection touching that hub; summation order is
        the naive method's, so the float result is bit-identical.
        """
        hub = self.hub_of(conn)
        if hub is None:
            return self.used_bandwidth(conn)
        token = self._hub_rates_token(hub)
        cached = self._hub_cache.get(hub)
        if cached is not None and cached[0] == token:
            _, total, newest, any_measured = cached
        else:
            total = 0.0
            newest = None
            any_measured = False
            for leg in self._hub_host_conns.get(hub, []):
                sample = self.raw_traffic(leg)
                if sample is None:
                    continue
                any_measured = True
                total += sample.total_bytes_per_s
                if newest is None or sample.time > newest.time:
                    newest = sample
            self._hub_cache[hub] = (token, total, newest, any_measured)
        if not any_measured:
            return None, "unmeasured", None
        hub_speed_bytes = self.spec.node(hub).interfaces[0].speed_bps / 8.0
        return min(total, hub_speed_bytes), "hub", newest

    def measure_connection(
        self, conn: ConnectionSpec, now: Optional[float] = None, fresh: bool = False
    ) -> ConnectionMeasurement:
        """The connection's measurement at instant ``now``.

        ``fresh=True`` bypasses every cache and recomputes from the raw
        tables (the naive baseline the benchmarks and property tests
        compare against).
        """
        if fresh or not self.incremental:
            return self._compute_measurement(conn, now, cached=False)
        self._revalidate(now)
        key = conn.endpoints()
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = ConnCacheEntry()
        elif entry.stamp == self._stamp:
            self.cache_hits += 1
            return entry.measurement  # validated this very cycle
        token = self.connection_token(conn)
        if entry.token == token and entry.measurement is not None:
            if entry.now != now:
                # Same inputs, different instant: only the age-derived
                # fields can differ, so re-derive just those.
                entry.measurement = self._refresh_measurement(entry.measurement, now)
                entry.now = now
                entry.has_confidence = False
            self.cache_hits += 1
        else:
            entry.measurement = self._compute_measurement(conn, now, cached=True)
            entry.token = token
            entry.now = now
            entry.has_confidence = False
            self.recomputes += 1
        entry.stamp = self._stamp
        return entry.measurement

    def _refresh_measurement(
        self, m: ConnectionMeasurement, now: Optional[float]
    ) -> ConnectionMeasurement:
        """Re-derive the age fields of a cached measurement at ``now``.

        Must mirror :meth:`_compute_measurement` exactly: age is
        ``max(0, now - sample_time)`` (``InterfaceRates.age``), staleness
        the same threshold comparison.
        """
        age = (
            max(0.0, now - m.sample_time)
            if (m.sample_time is not None and now is not None)
            else None
        )
        stale = (
            age is not None
            and self.stale_after is not None
            and age > self.stale_after
        )
        if age == m.sample_age and stale == m.stale:
            return m
        return replace(m, sample_age=age, stale=stale)

    def _compute_measurement(
        self, conn: ConnectionSpec, now: Optional[float], cached: bool
    ) -> ConnectionMeasurement:
        capacity_bytes = self.spec.effective_bandwidth(conn) / 8.0
        if self.link_state is not None and self.link_state.is_down(conn):
            source = self.counter_source(conn)
            return ConnectionMeasurement(
                connection=conn,
                capacity_bps=capacity_bytes,
                used_bps=0.0,
                source=source.endpoint if source is not None else None,
                rule="down",
            )
        used, rule, sample = (
            self._used_bandwidth_cached(conn) if cached else self.used_bandwidth(conn)
        )
        source = self.counter_source(conn)
        age = sample.age(now) if (sample is not None and now is not None) else None
        stale = (
            age is not None
            and self.stale_after is not None
            and age > self.stale_after
        )
        quarantined = (
            self.integrity is not None
            and source is not None
            and self.integrity.is_quarantined(source.node, source.if_index)
        )
        degraded_source = (
            self.degraded_sources is not None
            and source is not None
            and self.degraded_sources.is_degraded(source.node, source.if_index)
        )
        return ConnectionMeasurement(
            connection=conn,
            capacity_bps=capacity_bytes,
            used_bps=used if used is not None else 0.0,
            source=source.endpoint if source is not None else None,
            rule=rule,
            sample_time=sample.time if sample is not None else None,
            sample_interval=sample.interval if sample is not None else None,
            sample_age=age,
            stale=stale,
            quarantined=quarantined,
            degraded_source=degraded_source,
        )

    # ------------------------------------------------------------------
    # Data quality
    # ------------------------------------------------------------------
    def _connection_confidence(self, m: ConnectionMeasurement) -> Optional[float]:
        """0..1 trust in one connection's figures; None = not expected.

        - "down" is *fresh* knowledge (the link-state registry said so).
        - No counter source at all: structurally unmeasured, excluded
          (the report's ``complete`` flag already covers it).
        - Source agent DEAD, or sample older than ``dead_after``: 0.0.
        - Sample between ``stale_after`` and ``dead_after``: linear decay.
        - Expected source but no sample yet: 0.5 (degraded, not dead).
        - Quarantined counter source: capped at 0.5 -- whatever its age
          says, a source the integrity pipeline distrusts is never fully
          believed, and as its withheld samples age the ordinary decay
          below takes it the rest of the way down.
        - Degraded source (distributed plane knows newer data was lost):
          same 0.5 cap -- the sample may be young, but it is provably not
          the latest data the network produced.
        """
        if m.rule == "down":
            return 1.0
        if m.source is None:
            return None
        if self.health is not None and self.health.is_dead(m.source.node):
            return 0.0
        capped = m.quarantined or m.degraded_source
        if m.sample_age is None:
            return 0.25 if capped else 0.5
        if self.stale_after is None or m.sample_age <= self.stale_after:
            return 0.5 if capped else 1.0
        if self.dead_after is None:
            return 0.5
        if m.sample_age >= self.dead_after:
            return 0.0
        span = self.dead_after - self.stale_after
        decayed = max(0.0, 1.0 - (m.sample_age - self.stale_after) / span)
        return min(decayed, 0.5) if capped else decayed

    def _confidence_cached(
        self, conn: ConnectionSpec, m: ConnectionMeasurement
    ) -> Optional[float]:
        """Per-entry memo of :meth:`_connection_confidence`.

        Valid only while the entry still holds this exact measurement
        object (the flag is cleared whenever the measurement is replaced
        or re-aged); fresh-mode measurements never match and fall back to
        the direct computation.
        """
        entry = self._entries.get(conn.endpoints())
        if entry is None or entry.measurement is not m:
            return self._connection_confidence(m)
        if not entry.has_confidence:
            entry.confidence = self._connection_confidence(m)
            entry.has_confidence = True
        return entry.confidence

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def measure_path(
        self,
        path: List[ConnectionSpec],
        src: str,
        dst: str,
        time: float,
        name: Optional[str] = None,
        fresh: bool = False,
        redundant: bool = False,
    ) -> PathReport:
        """A :class:`PathReport` for an already-traversed path.

        NOTE: all figures are in **bytes/second** (the paper reports
        KB/s); capacities are converted from the spec's bits/second.
        ``fresh=True`` recomputes every connection from the raw tables
        (the naive baseline; see :meth:`measure_connection`).
        ``redundant`` is the pair's physical-redundancy flag (the caller
        resolves it from the topology graph; see
        :func:`repro.core.traversal.pair_redundant`).
        """
        measurements = tuple(
            self.measure_connection(conn, now=time, fresh=fresh) for conn in path
        )
        confidences = [
            self._confidence_cached(conn, m) for conn, m in zip(path, measurements)
        ]
        return self.compose_report(
            src, dst, time, measurements, confidences, name=name, redundant=redundant
        )

    def measure_connections(
        self, conns: Sequence[ConnectionSpec], now: float
    ) -> Tuple[List[ConnectionMeasurement], List[Optional[float]]]:
        """Each connection's measurement and confidence at ``now``.

        For callers that compose many reports over shared connections
        (the all-pairs matrix): every connection is measured once, and
        :meth:`compose_report` builds each report from these lists.
        """
        measurements = [self.measure_connection(conn, now=now) for conn in conns]
        confidences = [
            self._confidence_cached(conn, m) for conn, m in zip(conns, measurements)
        ]
        return measurements, confidences

    def compose_report(
        self,
        src: str,
        dst: str,
        time: float,
        measurements: Tuple[ConnectionMeasurement, ...],
        confidences: Sequence[Optional[float]],
        name: Optional[str] = None,
        redundant: bool = False,
    ) -> PathReport:
        """The :class:`PathReport` over a path's connection measurements.

        ``confidences`` holds each connection's trust in path order (None:
        not expected, excluded).  This is the one place a report's
        freshness, confidence and trust status are derived, and where its
        ``measure_path`` span, staleness observation, degraded/unavailable
        counters and status-change events are emitted.
        """
        tel = self.telemetry
        tracing = tel is not None and tel.enabled
        span = (
            tel.tracer.begin("measure_path", path=name or f"{src}<->{dst}")
            if tracing
            else None
        )
        ages = [m.sample_age for m in measurements if m.sample_age is not None]
        trusted = [c for c in confidences if c is not None]
        confidence = min(trusted) if trusted else 1.0
        report = PathReport(
            src=src,
            dst=dst,
            time=time,
            connections=measurements,
            name=name,
            freshness=max(ages) if ages else None,
            confidence=confidence,
            degraded=confidence < 1.0,
            unavailable=confidence <= 0.0 and bool(trusted),
            redundant=redundant,
        )
        if tracing:
            if report.freshness is not None:
                self._h_staleness.observe(report.freshness)
            if report.unavailable:
                self._m_reports_unavailable.inc()
            elif report.degraded:
                self._m_reports_degraded.inc()
            span.finish(status=report.status, connections=len(measurements))
            label = report.label
            previous = self._last_status.get(label, "fresh")
            if report.status != previous:
                self._last_status[label] = report.status
                tel.events.publish(
                    REPORT_STATUS,
                    time,
                    path=label,
                    old=previous,
                    new=report.status,
                    confidence=round(confidence, 3),
                )
        return report
