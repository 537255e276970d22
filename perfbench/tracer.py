"""Span tracer for the traced run, installed from the benchmark's own files.

:meth:`SpanTracer.install` replaces the functions through which control
enters each layer with wrappers that record a span -- name, start, end,
parent and the cycle it belongs to -- into in-memory columns.  It must
run before the network is built, so callbacks bound at construction
(socket receive handlers, periodic tasks) resolve to the wrappers.  GC
pauses, taken from ``gc.callbacks``, become ``runtime`` spans inside
whatever was running, so no layer is charged for them.
:meth:`SpanTracer.uninstall` restores every original.

The columns are flat ``array`` objects: however many spans there are,
the garbage collector sees a handful of objects, so a traced cycle's
collections scan the program's objects, not the growing span record.

``Simulator.run`` is the root of every cycle, but its own self time is
not a layer: it is the engine loop plus every event callback that no
wrapper covers, kept apart as ``unattributed`` so that trace coverage
(the attributed share of the cycle) can fall short.  Every simnet event
callback the workloads schedule is wrapped, so simnet time is measured,
not left over.  A wrapper's own cost lands in its span, so a layer
entered through many small calls (simnet, one ``heappop`` span per
event) reads higher traced than it costs untraced.

Layers follow the repository's modules:

==============  ==========================================================
simnet          the engine's event pops, link delivery and transmit
                completion, nic transmit, hub repeat, host UDP delivery,
                traffic generators, sockets
snmp_agent      ``snmp.agent`` + ``snmp.mib``
snmp_codec      ``snmp.message`` / ``snmp.pdu`` / ``snmp.ber``
snmp_manager    ``snmp.manager``
poller          ``core.poller``
integrity       ``integrity``
shipping        ``core.deltas``, shipping and ingest in ``core.distributed``
                and ``core.hierarchy``
report          report emission loops in ``core.monitor`` /
                ``core.distributed``
calculator      ``core.bandwidth`` (+ ``core.traversal`` it calls)
matrix          ``core.matrix`` (+ ``core.dataflow``)
stream          ``stream``
history         ``core.history`` + ``tsdb``
telemetry       ``telemetry`` record calls
runtime         Python's garbage collector
==============  ==========================================================
"""

from __future__ import annotations

import gc
import importlib
import time
import types
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "simnet", "snmp_agent", "snmp_codec", "snmp_manager", "poller",
    "integrity", "shipping", "report", "calculator", "matrix", "stream",
    "history", "telemetry", "runtime",
)
UNATTRIBUTED = "unattributed"

# (module, class or None for a module-level function, attribute, layer,
#  kind) -- kind is "method", "static" or "function".
TARGETS: Tuple[Tuple[str, Optional[str], str, str, str], ...] = (
    ("repro.simnet.engine", "Simulator", "run", UNATTRIBUTED, "method"),
    # The simnet callbacks the engine dispatches; frame receive, forwarding
    # and hub repeat run inside them.
    ("repro.simnet.link", "_Channel", "_deliver", "simnet", "method"),
    ("repro.simnet.link", "_Channel", "_tx_done", "simnet", "method"),
    ("repro.simnet.nic", "Interface", "transmit", "simnet", "method"),
    ("repro.simnet.hub", "Hub", "_emit", "simnet", "method"),
    ("repro.simnet.host", "Host", "_deliver_udp", "simnet", "method"),
    ("repro.simnet.trafficgen", "StaircaseLoad", "_send_one", "simnet", "method"),
    ("repro.simnet.sockets", "UDPSocket", "sendto", "simnet", "method"),
    ("repro.snmp.agent", "SnmpAgent", "_on_datagram", "snmp_agent", "method"),
    ("repro.snmp.agent", "SnmpAgent", "_send_reply", "snmp_agent", "method"),
    ("repro.snmp.agent", "SnmpAgent", "_handle_get", "snmp_agent", "method"),
    ("repro.snmp.agent", "SnmpAgent", "_handle_get_next", "snmp_agent", "method"),
    ("repro.snmp.agent", "SnmpAgent", "_handle_get_bulk", "snmp_agent", "method"),
    ("repro.snmp.mib", "MibTree", "get", "snmp_agent", "method"),
    ("repro.snmp.mib", "MibTree", "get_next", "snmp_agent", "method"),
    ("repro.snmp.message", "Message", "encode", "snmp_codec", "method"),
    ("repro.snmp.message", "Message", "decode", "snmp_codec", "static"),
    ("repro.snmp.pdu", "Pdu", "encode", "snmp_codec", "method"),
    ("repro.snmp.pdu", "Pdu", "decode", "snmp_codec", "static"),
    ("repro.snmp.manager", "SnmpManager", "_on_datagram", "snmp_manager", "method"),
    ("repro.snmp.manager", "SnmpManager", "_send", "snmp_manager", "method"),
    ("repro.snmp.manager", "SnmpManager", "_on_timeout", "snmp_manager", "method"),
    ("repro.snmp.manager", "SnmpManager", "poll_interfaces", "snmp_manager", "method"),
    ("repro.snmp.manager", "_BulkWalk", "_on_response", "snmp_manager", "method"),
    ("repro.core.poller", "SnmpPoller", "_poll_cycle", "poller", "method"),
    ("repro.core.poller", "SnmpPoller", "_on_response", "poller", "method"),
    ("repro.core.poller", "SnmpPoller", "_on_error", "poller", "method"),
    ("repro.integrity.pipeline", "IntegrityPipeline", "inspect", "integrity", "method"),
    ("repro.integrity.pipeline", "IntegrityPipeline", "inspect_remote", "integrity", "method"),
    ("repro.integrity.pipeline", "IntegrityPipeline", "run_cross_checks", "integrity", "method"),
    ("repro.core.distributed", "SampleShipper", "flush", "shipping", "method"),
    ("repro.core.distributed", None, "parse_delta", "shipping", "function"),
    ("repro.core.deltas", "DeltaDecoder", "apply", "shipping", "method"),
    ("repro.core.distributed", "DistributedMonitor", "_on_datagram", "shipping", "method"),
    ("repro.core.distributed", "DistributedMonitor", "_sweep", "shipping", "method"),
    ("repro.core.distributed", "MonitorWorker", "_enqueue", "shipping", "method"),
    ("repro.core.distributed", "MonitorWorker", "_flush", "shipping", "method"),
    ("repro.core.distributed", "MonitorWorker", "_heartbeat", "shipping", "method"),
    ("repro.core.distributed", "MonitorWorker", "_on_control", "shipping", "method"),
    ("repro.core.hierarchy", "LeafCoordinator", "_enqueue", "shipping", "method"),
    ("repro.core.hierarchy", "LeafCoordinator", "_flush", "shipping", "method"),
    ("repro.core.hierarchy", "LeafCoordinator", "_heartbeat", "shipping", "method"),
    ("repro.core.hierarchy", "LeafCoordinator", "_on_control", "shipping", "method"),
    ("repro.core.monitor", "NetworkMonitor", "_emit_reports", "report", "method"),
    ("repro.core.distributed", "DistributedMonitor", "_emit_reports", "report", "method"),
    ("repro.core.bandwidth", "BandwidthCalculator", "measure_path", "calculator", "method"),
    ("repro.core.matrix", "BandwidthMatrix", "snapshot", "matrix", "method"),
    ("repro.stream.publisher", "MatrixPublisher", "publish", "stream", "method"),
    ("repro.core.history", "MeasurementHistory", "append", "history", "method"),
    ("repro.telemetry.metrics", "MetricFamily", "inc", "telemetry", "method"),
    ("repro.telemetry.metrics", "MetricFamily", "set", "telemetry", "method"),
    ("repro.telemetry.metrics", "MetricFamily", "observe", "telemetry", "method"),
    ("repro.telemetry.metrics", "Counter", "inc", "telemetry", "method"),
    ("repro.telemetry.metrics", "Gauge", "set", "telemetry", "method"),
    ("repro.telemetry.metrics", "Histogram", "observe", "telemetry", "method"),
    ("repro.telemetry.trace", "Tracer", "begin", "telemetry", "method"),
    ("repro.telemetry.trace", "Tracer", "_finish", "telemetry", "method"),
    ("repro.telemetry.events", "EventBus", "publish", "telemetry", "method"),
)

class SpanTracer:
    """In-memory spans plus the counts taken at the same boundaries.

    Span ``i`` is ``names[name_ids[i]]``, ``starts[i]``..``ends[i]``, with
    ``parents[i]`` the index of the enclosing span (-1 for a root) and
    ``cycles[i]`` whatever :attr:`cycle` was when it opened (-1 during
    set-up), so all spans of one cycle share an id.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.cycles = array("l")
        self.stack: List[int] = []
        self.cycle = -1
        self.codec_bytes = 0
        self.varbinds = 0
        self.rtts = array("d")
        self.gc_full = 0
        self._restore: List[Tuple[object, str, object]] = []
        self._gc_open: Optional[int] = None

    def __len__(self) -> int:
        return len(self.starts)

    def name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _open(self, name_id: int) -> int:
        """Append a span with no times yet; returns its index."""
        stack = self.stack
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(stack[-1] if stack else -1)
        self.cycles.append(self.cycle)
        self.starts.append(0.0)
        self.ends.append(0.0)
        return idx

    # -- spans ---------------------------------------------------------
    def _span_wrapper(self, fn: Callable, name: str,
                      after: Optional[Callable] = None) -> Callable:
        name_id = self.name_id(name)
        open_span = self._open
        starts = self.starts
        ends = self.ends
        stack = self.stack
        clock = time.perf_counter

        # The clock is read first and last, so the wrapper's own cost lands
        # in this span and not in its parent's self time.
        def wrapper(*args, **kwargs):
            start = clock()
            idx = open_span(name_id)
            stack.append(idx)
            starts[idx] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[idx] = clock()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_open = self._open(self.name_id("runtime:gc"))
            self.starts[self._gc_open] = time.perf_counter()
            if info.get("generation") == 2:
                self.gc_full += 1
        elif self._gc_open is not None:
            self.ends[self._gc_open] = time.perf_counter()
            self._gc_open = None

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every :data:`TARGETS` entry, hook the RTT estimator (a
        count-only hook: it already runs inside a manager span) and
        subscribe to GC phases."""
        afters = {
            "Message.encode": lambda args, result: self._add_bytes(len(result)),
            "Message.decode": lambda args, result: self._add_bytes(len(args[0])),
            "SnmpAgent._handle_get": self._add_varbinds,
            "SnmpAgent._handle_get_next": self._add_varbinds,
            "SnmpAgent._handle_get_bulk": self._add_varbinds,
        }
        for module_name, owner_name, attr, layer, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            label = f"{owner_name}.{attr}" if owner_name else attr
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            fn = original.__func__ if kind == "static" else original
            wrapped = self._span_wrapper(fn, f"{layer}:{label}", afters.get(label))
            setattr(owner, attr, staticmethod(wrapped) if kind == "static" else wrapped)
            self._restore.append((owner, attr, original))
        # The engine loop pops every event through its module's ``heapq``;
        # a stand-in module with a wrapped ``heappop`` measures that part
        # of the loop as simnet instead of leaving it unattributed.
        engine = importlib.import_module("repro.simnet.engine")
        queue = types.ModuleType("heapq")
        queue.__dict__.update(vars(engine.heapq))
        queue.heappop = self._span_wrapper(engine.heapq.heappop, "simnet:heapq.heappop")
        self._restore.append((engine, "heapq", engine.heapq))
        engine.heapq = queue
        estimator = importlib.import_module("repro.snmp.manager").RtoEstimator
        original = estimator.__dict__["observe"]
        estimator.observe = self._rtt_hook(original)
        self._restore.append((estimator, "observe", original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _add_bytes(self, n: int) -> None:
        self.codec_bytes += n

    def _add_varbinds(self, args, result) -> None:
        self.varbinds += len(result.varbinds)

    def _rtt_hook(self, fn: Callable) -> Callable:
        rtts = self.rtts

        def observe(estimator, rtt):
            rtts.append(rtt)
            return fn(estimator, rtt)

        return observe

    # -- reading -------------------------------------------------------
    def tallies(self) -> Dict[str, int]:
        """Running totals taken at the wrapped boundaries."""
        return {"varbinds": self.varbinds, "codec_bytes": self.codec_bytes,
                "gc_full": self.gc_full}

    def counts(self, cycles: range) -> Dict[str, int]:
        """Span count per span name over the given cycle ids."""
        by_id: Dict[int, int] = defaultdict(int)
        for name_id, cycle in zip(self.name_ids, self.cycles):
            if cycle in cycles:
                by_id[name_id] += 1
        return {self.names[i]: n for i, n in by_id.items()}

    def span(self, i: int) -> list:
        """Span ``i`` as ``[name, start, end, parent, cycle]``."""
        return [self.names[self.name_ids[i]], self.starts[i], self.ends[i],
                self.parents[i], self.cycles[i]]


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]
