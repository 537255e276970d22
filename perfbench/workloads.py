"""The benchmark's three seeded workloads, built only from public surfaces.

Each workload is a batch simulation: one *cycle* is one poll interval of
simulated time, cut at the monitor's report instants, and it is driven as
fast as the host can run it.  Every generated input -- flow endpoints,
rates, payload sizes, step times, watch pairs, subscriber pair sets, the
monitor and agent seeds -- derives from the workload seed through
``random.Random("<workload>:<seed>")`` (string seeding hashes with SHA-512,
so it is independent of ``PYTHONHASHSEED``).  Monitors run with library
defaults apart from that seed, so a later change of a default shows up.

- ``campus-quiet``: the four-pod hierarchical plane with switch agents
  only (``HierarchicalMonitor``), 16 cross-pod watches and no offered
  load.  Per cycle it isolates the monitoring plane: SNMP agent, codec,
  manager, poller, shipping and integrity.  Its set-up is the O(N^2)
  announce flood.
- ``campus-loaded``: the same plane plus one UDP ``StaircaseLoad`` per pod
  pair around the ring, stepping every few cycles, with watches on every
  flow's endpoints.  Per-frame forwarding dominates and counters move, so
  shippers send CHANGED records and the integrity validators see activity.
- ``pod-stream``: a six-switch chain with two hub pockets and agents on
  every host, on one ``NetworkMonitor`` with integrity, tsdb history and
  streaming over every host pair to ~500 conflating subscribers.  It
  exercises the single-process downstream (calculator, traversal, matrix,
  stream fan-out, history, telemetry) with many small GET-polled agents
  and no shipping at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.hierarchy import HierarchicalMonitor
from repro.core.monitor import NetworkMonitor
from repro.core.report import PathReport
from repro.core.traversal import find_path
from repro.experiments.scale import hierarchy_plan, scale_spec
from repro.simnet.trafficgen import StaircaseLoad, StepSchedule
from repro.spec.builder import BuildResult, build_network
from repro.stream.subscription import OverflowPolicy, Subscription

WORKLOADS = ("campus-quiet", "campus-loaded", "pod-stream")

# The campus fleet: 4 pods x 5 switches x 12 hosts = 240 end hosts and 21
# switch agents (the agent count of the 1000-host plane, with fewer ports
# per agent), so that set-up can be repeated inside one run.
CAMPUS_PODS = 4
CAMPUS_SWITCHES = 5
CAMPUS_HOSTS_PER_SWITCH = 12
CAMPUS_QUIET_WATCHES = 16

# Payload sizes drawn per flow: the smallest Ethernet frame (64 bytes less
# 14 header, 4 FCS and 28 IP+UDP), a mid size and a full 1500-byte MTU.
PAYLOADS = (18, 512, 1472)
WIRE_OVERHEAD = 28  # IP + UDP header bytes per datagram
# Rate levels as multiples of a flow's base datagram rate: the offered
# load steps within a narrow band instead of climbing, so counters move
# every few cycles while the cost of a cycle stays steady.
LEVELS = (0.8, 0.9, 1.0, 1.1, 1.2)
STEP_EVERY_S = 6.0  # three poll cycles per level
SCHEDULE_SPAN_S = 4000.0  # longer than any run simulates
CAMPUS_FLOW_DPS = 50.0  # mean datagrams/s per ring flow

POD_SWITCHES = 6
POD_HOSTS_PER_SWITCH = 18
POD_HUBS = 2
POD_HUB_HOSTS = 3
POD_WATCHES = 64
POD_FLOWS = 24
POD_HUB_FLOWS = 4  # flows with an endpoint in a hub pocket
POD_FLOW_DPS = 12.0
POD_FLOW_SPAN = 3  # chain switches between a flow's two ends
# Low-rate pod flows carry payloads of at least 512 bytes, so the SNMP
# traffic every GET-polled host adds stays small beside them.
POD_PAYLOADS = (512, 1472)
POD_SUBSCRIBERS = 500
POD_SUB_PAIRS = 18  # seeded pairs per subscriber


@dataclass
class Flow:
    """One generator and what the benchmark needs to check against it."""

    src: str
    dst: str
    payload: int
    schedule: StepSchedule
    path: list  # ConnectionSpec list between src and dst
    load: Optional[StaircaseLoad] = None

    def wire_rate(self, t: float) -> float:
        """Bytes/s on each link of the path at sim time ``t``."""
        rate = self.schedule.rate_at(t)
        return rate * (self.payload + WIRE_OVERHEAD) / self.payload


@dataclass
class Instance:
    """One built, started workload: network, monitor and the inputs."""

    name: str
    hosts: int
    build: BuildResult
    monitor: object
    watches: List[str]
    flows: List[Flow] = field(default_factory=list)
    subscriptions: List[Subscription] = field(default_factory=list)
    reports: List[PathReport] = field(default_factory=list)
    next_report_at: float = 0.0
    interval: float = 0.0

    @property
    def sim(self):
        return self.build.network.sim

    def run_cycle(self) -> None:
        """Advance one poll interval, to and including the next report
        instant."""
        self.build.network.run(self.next_report_at)
        self.next_report_at += self.interval

    def take_reports(self) -> List[PathReport]:
        # The monitor holds this list's bound ``append``: empty it in place.
        out = list(self.reports)
        self.reports.clear()
        return out

    def drain_subscriptions(self) -> None:
        """Consume every stream queue (the subscribers' own work)."""
        for sub in self.subscriptions:
            sub.drain()

    def stop(self) -> None:
        for flow in self.flows:
            flow.load.stop()
        self.monitor.stop()

    # -- the layers' public counters -------------------------------------
    @property
    def distributed(self) -> bool:
        return isinstance(self.monitor, HierarchicalMonitor)

    def _workers(self) -> list:
        return [
            worker
            for leaf in self.monitor.leaves.values()
            for worker in leaf.dm.workers.values()
        ]

    def managers(self) -> list:
        if self.distributed:
            return [w.manager for w in self._workers()]
        return [self.monitor.manager]

    def pollers(self) -> list:
        if self.distributed:
            return [w.poller for w in self._workers()]
        return [self.monitor.poller]

    def shippers(self) -> list:
        if not self.distributed:
            return []
        return [w.shipper for w in self._workers()] + [
            leaf.shipper for leaf in self.monitor.leaves.values()
        ]

    def decode_errors(self) -> int:
        if not self.distributed:
            return 0
        return self.monitor.decode_errors + sum(
            leaf.dm.decode_errors for leaf in self.monitor.leaves.values()
        )

    @property
    def publisher(self):
        return None if self.distributed else self.monitor.stream

    def public_counts(self) -> Dict[str, int]:
        """Exact counts readable without tracing (all deterministic)."""
        managers = self.managers()
        shippers = self.shippers()
        network = self.build.network
        frames = 0
        for iface in network.all_interfaces():
            c = iface.counters
            frames += c.out_ucast_pkts + c.out_nucast_pkts
        calc = self.monitor.calculator
        pub = self.publisher
        return {
            "sim_events": self.sim.events_processed,
            "frames": frames,
            "link_drops": sum(link.total_drops for link in network.links),
            "snmp_requests": sum(m.requests_sent for m in managers),
            "snmp_retransmissions": sum(m.retransmissions for m in managers),
            "snmp_timeouts": sum(m.timeouts for m in managers),
            "snmp_unmatched": sum(m.responses_unmatched for m in managers),
            "agent_requests": sum(a.in_packets for a in self.build.agents.values()),
            "poll_samples": sum(p.samples_produced for p in self.pollers()),
            "window_deferred": sum(p.window_deferred for p in self.pollers()),
            "window_overruns": sum(p.window_overruns for p in self.pollers()),
            "batches_shipped": sum(s.batches_shipped for s in shippers),
            "bytes_shipped": sum(s.bytes_shipped for s in shippers),
            "keyframes_shipped": sum(s.keyframes_shipped for s in shippers),
            "records_changed": sum(
                s.delta.records_full + s.delta.records_changed
                for s in shippers if s.delta is not None
            ),
            "records": sum(
                s.delta.records_full + s.delta.records_changed
                + s.delta.records_advance + s.delta.records_refresh
                for s in shippers if s.delta is not None
            ),
            "calc_recomputes": calc.recomputes,
            "calc_cache_hits": calc.cache_hits,
            "stream_delivered": sum(
                s.events_delivered for s in self.subscriptions
            ),
            "stream_dropped": sum(s.events_dropped for s in self.subscriptions),
            "stream_suppressed": pub.manager.events_suppressed if pub else 0,
        }


def _schedule(rng: random.Random, payload: int, dps: float) -> StepSchedule:
    """A new level every ``STEP_EVERY_S``, each round of ``len(LEVELS)``
    steps visiting every level once in seeded order (so every seed offers
    the same mean load); steps land on odd seconds, half-way between the
    polls at even seconds."""
    t = 1.0 + 2.0 * rng.randrange(3)
    steps = []
    while t < SCHEDULE_SPAN_S:
        for level in rng.sample(LEVELS, len(LEVELS)):
            steps.append((t, dps * level * payload))
            t += STEP_EVERY_S
    return StepSchedule(steps)


def _payloads(rng: random.Random, sizes: Tuple[int, ...], n: int) -> List[int]:
    """``n`` payload sizes in seeded order, each size used equally often
    (the remainder drawn), so every seed offers a similar byte mix."""
    out = list(sizes) * (n // len(sizes)) + rng.sample(sizes, n % len(sizes))
    rng.shuffle(out)
    return out


def _start_flows(inst: Instance, flows: List[Flow]) -> None:
    network = inst.build.network
    for flow in flows:
        flow.load = StaircaseLoad(
            network.host(flow.src), network.ip_of(flow.dst), flow.schedule,
            payload_size=flow.payload,
        )
        flow.load.start()
    inst.flows = flows


def _start(inst: Instance) -> Instance:
    monitor = inst.monitor
    monitor.subscribe(inst.reports.append)
    monitor.start()
    inst.interval = monitor.poll_interval
    inst.next_report_at = (
        inst.sim.now + monitor.poll_interval + monitor.report_offset
    )
    return inst


def build_campus(seed: int, loaded: bool,
                 hosts_per_switch: int = CAMPUS_HOSTS_PER_SWITCH) -> Instance:
    name = "campus-loaded" if loaded else "campus-quiet"
    rng = random.Random(f"{name}:{seed}")
    monitor_seed = rng.randrange(2**31)
    agent_seed = rng.randrange(2**31)
    spec = scale_spec(
        hierarchical=CAMPUS_PODS, switches=CAMPUS_SWITCHES,
        hosts_per_switch=hosts_per_switch, host_agents=False,
    )
    plan = hierarchy_plan(
        CAMPUS_PODS, switches=CAMPUS_SWITCHES, hosts_per_switch=hosts_per_switch,
    )
    build = build_network(spec, agent_seed=agent_seed)
    monitor = HierarchicalMonitor(build, plan, seed=monitor_seed)
    workers = {w for shard in plan["shards"].values() for w in shard["workers"]}
    pods = [
        [f"p{p}h{s}_{h}" for s in range(CAMPUS_SWITCHES)
         for h in range(hosts_per_switch) if f"p{p}h{s}_{h}" not in workers]
        for p in range(CAMPUS_PODS)
    ]
    pairs: List[Tuple[str, str]] = []
    flows: List[Flow] = []
    if loaded:
        # Flow endpoints sit on each pod's deepest switches, so every seed
        # forwards each datagram over the same number of links.
        depth = {h: len(find_path(spec, h, plan["root"])) for pod in pods for h in pod}
        deepest = [[h for h in pod if depth[h] == max(depth[x] for x in pod)]
                   for pod in pods]
        payloads = _payloads(rng, PAYLOADS, CAMPUS_PODS)
        for p in range(CAMPUS_PODS):
            src = rng.choice(deepest[p])
            dst = rng.choice(deepest[(p + 1) % CAMPUS_PODS])
            payload = payloads[p]
            flows.append(Flow(src, dst, payload,
                              _schedule(rng, payload, CAMPUS_FLOW_DPS),
                              find_path(spec, src, dst)))
            pairs.append((src, dst))
    for _ in range(CAMPUS_QUIET_WATCHES):
        a, b = rng.sample(range(CAMPUS_PODS), 2)
        pairs.append((rng.choice(pods[a]), rng.choice(pods[b])))
    inst = Instance(name, len(spec.hosts()), build, monitor, [])
    inst.watches = _watch(monitor, pairs)
    _start_flows(inst, flows)
    return _start(inst)


def build_pod_stream(seed: int) -> Instance:
    rng = random.Random(f"pod-stream:{seed}")
    monitor_seed = rng.randrange(2**31)
    agent_seed = rng.randrange(2**31)
    spec = scale_spec(
        switches=POD_SWITCHES, hosts_per_switch=POD_HOSTS_PER_SWITCH, arity=1,
        hub_pockets=POD_HUBS, hub_hosts=POD_HUB_HOSTS,
    )
    build = build_network(spec, agent_seed=agent_seed)
    hosts = [n.name for n in spec.hosts()]
    monitor_host = rng.choice([f"h0_{h}" for h in range(POD_HOSTS_PER_SWITCH)])
    monitor = NetworkMonitor(build, monitor_host, seed=monitor_seed)
    publisher = monitor.enable_streaming()

    # The seed picks hosts; which switches they hang off is fixed, so every
    # seed forwards and traverses the same number of links.
    def on_switch(s: int) -> str:
        return rng.choice([f"h{s % POD_SWITCHES}_{h}" for h in range(POD_HOSTS_PER_SWITCH)
                           if f"h{s % POD_SWITCHES}_{h}" != monitor_host])

    flows: List[Flow] = []
    pairs: List[Tuple[str, str]] = []
    payloads = _payloads(rng, POD_PAYLOADS, POD_FLOWS)
    for i in range(POD_FLOWS):
        if i < POD_HUB_FLOWS:
            # Hub pocket p hangs off switch p; the flow crosses its hub.
            pocket = i % POD_HUBS
            src = f"n{pocket}_{rng.randrange(POD_HUB_HOSTS)}"
            dst = on_switch(pocket + POD_FLOW_SPAN)
        else:
            src = on_switch(i)
            dst = on_switch(i + POD_FLOW_SPAN)
        payload = payloads[i]
        flows.append(Flow(src, dst, payload,
                          _schedule(rng, payload, POD_FLOW_DPS),
                          find_path(spec, src, dst)))
        pairs.append((src, dst))
    for j in range(POD_WATCHES - len(pairs)):
        pairs.append((on_switch(j), on_switch(j + 1 + (j // POD_SWITCHES) % 5)))
    all_pairs = [(a, b) for i, a in enumerate(hosts) for b in hosts[i + 1:]]
    inst = Instance("pod-stream", len(hosts), build, monitor, [])
    inst.watches = _watch(monitor, pairs)
    inst.subscriptions = [
        publisher.manager.subscribe(
            f"sub{i}", pairs=rng.sample(all_pairs, POD_SUB_PAIRS),
            policy=OverflowPolicy.CONFLATE,
        )
        for i in range(POD_SUBSCRIBERS)
    ]
    _start_flows(inst, flows)
    return _start(inst)


def _watch(monitor, pairs: List[Tuple[str, str]]) -> List[str]:
    labels: List[str] = []
    for i, (a, b) in enumerate(pairs):
        labels.append(monitor.watch_path(a, b, name=f"w{i}:{a}<->{b}"))
    return labels


def build(name: str, seed: int, hosts_per_switch: Optional[int] = None) -> Instance:
    """Build and start workload ``name``; nothing has been simulated yet."""
    if name == "pod-stream":
        return build_pod_stream(seed)
    if name in ("campus-quiet", "campus-loaded"):
        return build_campus(
            seed, loaded=name == "campus-loaded",
            hosts_per_switch=hosts_per_switch or CAMPUS_HOSTS_PER_SWITCH,
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def expected_wire(inst: Instance) -> Dict[tuple, List[Flow]]:
    """Flows crossing each connection, keyed by ``ConnectionSpec.endpoints()``."""
    out: Dict[tuple, List[Flow]] = {}
    for flow in inst.flows:
        for conn in flow.path:
            out.setdefault(conn.endpoints(), []).append(flow)
    return out
