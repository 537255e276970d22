"""All-pairs bandwidth matrix.

The paper's testbed claim: "Such a network arrangement is sufficient for
monitoring the bandwidth between any pair of hosts in the system."  This
module makes that operational: one traversal per host pair (cached), one
measurement pass over the shared rate table, and a rendered matrix of
available bandwidth / utilisation that an operator (or the RM's placement
search) can read at a glance.

Incremental mode (the default) keeps the previous snapshot and a reverse
index from connections to the host pairs whose path crosses them.  A new
snapshot re-reads each connection's epoch token (see
:mod:`repro.core.dataflow`); pairs that cross no dirty connection reuse
their previous report verbatim when the report instant is unchanged.
Every other pair is composed connection-first: the many pairs cross few
distinct connections, so each distinct connection is measured (through
the calculator's memo) once per snapshot, and each pair's report is
assembled from its legs' indices into those measurements.  Output is
bit-identical to ``incremental=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.bandwidth import BandwidthCalculator
from repro.core.report import ConnectionMeasurement, PathReport
from repro.core.traversal import NoPathError, find_path
from repro.topology.graph import TopologyGraph
from repro.topology.model import ConnectionSpec, DeviceKind, TopologySpec

_METRICS = ("available", "used", "utilization")

DIRTY_PAIRS_GAUGE = "dataflow_dirty_pairs"
_DIRTY_PAIRS_HELP = "host pairs crossing a dirty connection in the last matrix snapshot"


class MatrixError(ValueError):
    """Raised for unknown hosts or metrics."""


@dataclass
class MatrixSnapshot:
    """One instant's all-pairs measurements."""

    hosts: List[str]
    time: float
    reports: Dict[Tuple[str, str], Optional[PathReport]]  # unordered pairs
    _cache: Dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    def report(self, a: str, b: str) -> Optional[PathReport]:
        if a == b:
            raise MatrixError("a host has no path to itself in the matrix")
        key = (a, b) if (a, b) in self.reports else (b, a)
        try:
            return self.reports[key]
        except KeyError:
            raise MatrixError(f"pair ({a}, {b}) not in this matrix") from None

    def values(self, metric: str = "available") -> np.ndarray:
        """A symmetric matrix of the chosen metric (NaN on the diagonal
        and for disconnected pairs).  Units: bytes/second, or a fraction
        for "utilization"."""
        if metric not in _METRICS:
            raise MatrixError(f"unknown metric {metric!r}; pick from {_METRICS}")
        cached = self._cache.get(metric)
        if cached is None:
            index = {host: i for i, host in enumerate(self.hosts)}
            rows: List[int] = []
            cols: List[int] = []
            vals: List[float] = []
            for (a, b), report in self.reports.items():
                if report is None:
                    continue  # disconnected pair stays NaN
                if metric == "available":
                    value = report.available_bps
                elif metric == "used":
                    value = report.used_bps
                else:
                    bottleneck = report.bottleneck
                    value = bottleneck.utilization if bottleneck else 0.0
                rows.append(index[a])
                cols.append(index[b])
                vals.append(value)
            n = len(self.hosts)
            out = np.full((n, n), np.nan)
            if rows:
                r = np.asarray(rows, dtype=np.intp)
                c = np.asarray(cols, dtype=np.intp)
                v = np.asarray(vals, dtype=float)
                out[r, c] = v
                out[c, r] = v
            cached = self._cache[metric] = out
        return cached.copy()

    def format_table(self, metric: str = "available") -> str:
        """Render the matrix; bandwidth cells in KB/s, utilisation in %."""
        values = self.values(metric)
        unit = "%" if metric == "utilization" else "KB/s"
        width = max(8, max(len(h) for h in self.hosts) + 1)
        header = " " * width + "".join(f"{h:>{width}}" for h in self.hosts)
        lines = [f"path {metric} ({unit}) at t={self.time:.1f}s", header]
        for i, row_host in enumerate(self.hosts):
            cells = []
            for j in range(len(self.hosts)):
                if i == j:
                    cells.append(f"{'-':>{width}}")
                elif np.isnan(values[i, j]):
                    cells.append(f"{'n/a':>{width}}")
                elif metric == "utilization":
                    cells.append(f"{values[i, j] * 100:>{width}.1f}")
                else:
                    cells.append(f"{values[i, j] / 1000:>{width}.1f}")
            lines.append(f"{row_host:>{width}}" + "".join(cells))
        return "\n".join(lines)

    def worst_pair(self) -> Optional[Tuple[str, str, float]]:
        """The host pair with the least available bandwidth."""
        worst: Optional[Tuple[str, str, float]] = None
        for (a, b), report in self.reports.items():
            if report is None:
                continue
            if worst is None or report.available_bps < worst[2]:
                worst = (a, b, report.available_bps)
        return worst


class BandwidthMatrix:
    """Computes :class:`MatrixSnapshot` from a calculator's live state."""

    def __init__(
        self,
        spec: TopologySpec,
        calculator: BandwidthCalculator,
        hosts: Optional[Sequence[str]] = None,
        incremental: bool = True,
        graph: Optional[TopologyGraph] = None,
    ) -> None:
        """``incremental=False`` recomputes every pair from the raw
        tables on each snapshot (the naive baseline the benchmarks
        compare against); ``graph`` shares a caller-owned
        :class:`TopologyGraph` so traversal memos are shared too."""
        self.spec = spec
        self.calculator = calculator
        self.incremental = incremental
        self.graph = graph if graph is not None else TopologyGraph(spec)
        if hosts is None:
            hosts = [n.name for n in spec.hosts()]
        for host in hosts:
            if spec.node(host).kind is not DeviceKind.HOST:
                raise MatrixError(f"{host!r} is not a host")
        self.hosts = list(hosts)
        # Paths traversed once, up front (topology is static, paper §3.2)
        # and re-traversed only when the graph's topology epoch moves.
        # Per pair: its report name and its path as indices into
        # ``_conns`` (insertion order); None for a disconnected pair.
        self._paths: Dict[Tuple[str, str], Optional[Tuple[str, Tuple[int, ...]]]] = {}
        self._conns: Dict[Tuple, ConnectionSpec] = {}
        self._pairs_of_conn: Dict[Tuple, List[Tuple[str, str]]] = {}
        self._topology_epoch: int = -1
        self._build_paths()
        # Previous-snapshot state for dirty-pair reuse.
        self._prev_reports: Dict[Tuple[str, str], Optional[PathReport]] = {}
        self._prev_time: Optional[float] = None
        self._prev_tokens: Dict[Tuple, Tuple] = {}
        self.pair_cache_hits = 0
        self.pair_recomputes = 0
        self.dirty_pairs_last = 0
        # Stream hook: the dirty-pair set behind the latest snapshot, and
        # whether that snapshot rebuilt its paths (topology epoch moved).
        # The stream publisher reads these instead of diffing snapshots;
        # None means "dirtiness unknown -- consider every pair" (the
        # non-incremental mode, or no snapshot yet).
        self.last_dirty_pairs: Optional[Set[Tuple[str, str]]] = None
        self.last_snapshot_rebuilt = False
        tel = getattr(calculator, "telemetry", None)
        self._g_dirty = (
            tel.registry.gauge(DIRTY_PAIRS_GAUGE, _DIRTY_PAIRS_HELP)
            if tel is not None
            else None
        )

    def _build_paths(self) -> None:
        self._topology_epoch = self.graph.topology_epoch
        self._paths = {}
        self._conns = {}
        self._pairs_of_conn = {}
        index: Dict[Tuple, int] = {}
        for i, a in enumerate(self.hosts):
            for b in self.hosts[i + 1:]:
                try:
                    path = find_path(self.graph, a, b)
                except NoPathError:
                    path = None
                if path is None:
                    self._paths[(a, b)] = None
                    continue
                legs = []
                for conn in path:
                    key = conn.endpoints()
                    if key not in index:
                        index[key] = len(self._conns)
                        self._conns[key] = conn
                    legs.append(index[key])
                    self._pairs_of_conn.setdefault(key, []).append((a, b))
                self._paths[(a, b)] = (f"matrix:{a}<->{b}", tuple(legs))

    def snapshot(self, time: float) -> MatrixSnapshot:
        if not self.incremental:
            self.last_dirty_pairs = None  # dirtiness unknown in naive mode
            self.last_snapshot_rebuilt = False
            if self.graph.topology_epoch != self._topology_epoch:
                self._build_paths()
                self.last_snapshot_rebuilt = True
            reports: Dict[Tuple[str, str], Optional[PathReport]] = {}
            conns = list(self._conns.values())
            for (a, b), plan in self._paths.items():
                if plan is None:
                    reports[(a, b)] = None
                else:
                    name, legs = plan
                    reports[(a, b)] = self.calculator.measure_path(
                        [conns[i] for i in legs], a, b, time=time, name=name, fresh=True
                    )
            return MatrixSnapshot(hosts=list(self.hosts), time=time, reports=reports)
        return self._snapshot_incremental(time)

    def _snapshot_incremental(self, time: float) -> MatrixSnapshot:
        rebuilt = False
        if self.graph.topology_epoch != self._topology_epoch:
            # Topology changed: paths may differ, previous state is void.
            self._build_paths()
            self._prev_reports = {}
            self._prev_tokens = {}
            self._prev_time = None
            rebuilt = True
        tokens: Dict[Tuple, Tuple] = {}
        dirty_pairs: Set[Tuple[str, str]] = set()
        prev_tokens = self._prev_tokens
        for key, conn in self._conns.items():
            token = self.calculator.connection_token(conn)
            tokens[key] = token
            if prev_tokens.get(key) != token:
                dirty_pairs.update(self._pairs_of_conn[key])
        # A previous report is reusable *verbatim* only at the same report
        # instant (age fields depend on it); across instants the pair is
        # recomposed from the calculator's memoized measurements, which is
        # cheap but produces a new PathReport with fresh age figures.
        same_time = self._prev_time == time and bool(self._prev_reports)
        calc = self.calculator
        measurements: List[ConnectionMeasurement] = []
        confidences: List[Optional[float]] = []
        measured = False
        reports: Dict[Tuple[str, str], Optional[PathReport]] = {}
        for (a, b), plan in self._paths.items():
            if plan is None:
                reports[(a, b)] = None
                continue
            if same_time and (a, b) not in dirty_pairs:
                prev = self._prev_reports.get((a, b))
                if prev is not None:
                    reports[(a, b)] = prev
                    self.pair_cache_hits += 1
                    continue
            if not measured:
                # Each distinct connection once per snapshot; every pair
                # below shares these objects.
                measurements, confidences = calc.measure_connections(
                    list(self._conns.values()), time
                )
                measured = True
            name, legs = plan
            reports[(a, b)] = calc.compose_report(
                a,
                b,
                time,
                tuple([measurements[i] for i in legs]),
                [confidences[i] for i in legs],
                name=name,
            )
            self.pair_recomputes += 1
        self._prev_reports = reports
        self._prev_time = time
        self._prev_tokens = tokens
        self.dirty_pairs_last = len(dirty_pairs)
        # After a rebuild previous tokens were void, so every measurable
        # pair landed in dirty_pairs -- exactly what the stream publisher
        # must re-deliver; it still needs the rebuilt flag to re-baseline
        # its significance filters.
        self.last_dirty_pairs = dirty_pairs
        self.last_snapshot_rebuilt = rebuilt
        if self._g_dirty is not None:
            self._g_dirty.set(float(len(dirty_pairs)))
        return MatrixSnapshot(hosts=list(self.hosts), time=time, reports=reports)
