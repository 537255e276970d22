"""Two-level coordinator tree for 10k-host-scale monitoring.

One coordinator ingesting every worker's batches scales linearly in one
host's receive path and one process's ARQ bookkeeping.  The hierarchical
plane splits the poll-target pool into *shards*: each shard is owned by
a :class:`LeafCoordinator` -- a full fault-tolerant
:class:`~repro.core.distributed.DistributedMonitor` over the shard's
worker hosts, minus the report surface -- which aggregates its workers'
samples locally and ships them up one delta-encoded, sequenced stream.
The :class:`HierarchicalMonitor` root therefore sees *one stream per
shard* (plus heartbeats), not one per worker, and its rate table and
path reports are computed exactly like the flat plane's.

The tree reuses the flat plane's machinery at both levels, by
construction rather than duplication:

* **Root ingest** -- ``HierarchicalMonitor`` *is* a
  ``DistributedMonitor`` whose "workers" are leaf coordinators: leases,
  selective-retransmit ARQ, degraded-source marking, versioned
  assignments and the watch/report surface are inherited unchanged.
  Shard assignment rides the same ``assign`` control message workers
  use, so a lost shard datagram heals through the same stale-echo
  resend.
* **Leaf uplink** -- the leaf ships through the same
  :class:`~repro.core.distributed.UplinkEndpoint` a worker uses
  (sequencing, bounded resend buffer, retransmit service, heartbeats,
  control listener): delta batches cost a quiescent shard a few bytes
  per interface, and periodic keyframes bound the cost of any lost
  context.
* **Failover, twice** -- a dead *worker* is handled inside its leaf
  (the shard repartitions over the surviving workers); a dead *leaf*
  is handled by the root (its shard's targets repartition over the
  surviving leaves, which forward them to their own workers).  Both are
  the same ``_rebalance`` code path.

A leaf coordinator crash kills only the coordinator *process*: its
workers -- separate hosts -- keep polling and shipping into the void.
On restart the leaf resumes with fresh ingest state, *adopts* its
workers' mid-flight sequence streams instead of demanding retransmits
back to seq 1, and heals its delta decoders with keyframe requests.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Sequence

from repro.core.distributed import DistributedMonitor, UplinkEndpoint
from repro.core.poller import PollTarget
from repro.simnet.address import IPv4Address
from repro.spec.builder import BuildResult

logger = logging.getLogger("repro.hierarchy")


class _PoolView:
    """Adapter giving a leaf the worker's ``poller.targets`` surface
    (what :meth:`DistributedMonitor.targets_of` reads)."""

    __slots__ = ("_dm",)

    def __init__(self, dm: DistributedMonitor) -> None:
        self._dm = dm

    @property
    def targets(self) -> List[PollTarget]:
        return list(self._dm._target_pool)


class LeafCoordinator(UplinkEndpoint):
    """One shard: a local coordinator over its worker hosts, plus an
    uplink to the hierarchy root.

    The uplink is the same :class:`~repro.core.distributed.UplinkEndpoint`
    a :class:`~repro.core.distributed.MonitorWorker` ships through --
    ``start``/``stop``/``crash``/``restart``, an ``assign_version`` echo,
    a control listener serving ``retx`` / ``assign`` / ``kfreq``, and
    sequenced delta batches -- so the root drives leaves with the
    unmodified flat machinery.  What differs is the sample source: the
    shard's own :class:`~repro.core.distributed.DistributedMonitor`.
    """

    # Bound in this class's own namespace so per-class instrumentation
    # (perfbench/tracer.py) can wrap them.
    _enqueue = UplinkEndpoint._enqueue
    _flush = UplinkEndpoint._flush
    _heartbeat = UplinkEndpoint._heartbeat
    _on_control = UplinkEndpoint._on_control

    def __init__(
        self,
        build: BuildResult,
        host_name: str,
        worker_hosts: Sequence[str],
        targets: Sequence[PollTarget],
        root_ip: IPv4Address,
        poll_interval: float,
        poll_jitter: float,
        seed: int,
        heartbeat_interval: Optional[float] = None,
        batch_linger: Optional[float] = None,
        max_batch: int = 32,
        resend_buffer: int = 32,
        poll_mode: str = "bulk",
        pipeline_window: int = 8,
        keyframe_every: int = 16,
    ) -> None:
        super().__init__(
            build, host_name, root_ip, poll_interval, heartbeat_interval,
            batch_linger, max_batch, resend_buffer, keyframe_every,
        )
        # The shard: a full fault-tolerant plane over this leaf's
        # workers, aggregating into its own rate table; samples accepted
        # there chain straight into the uplink shipper.  No report task
        # (the root reports), no integrity (the root inspects once, so
        # shipped samples face exactly the same gauntlet as in the flat
        # plane), no telemetry registry of its own.
        self.dm = DistributedMonitor(
            build,
            coordinator_host=host_name,
            worker_hosts=list(worker_hosts),
            poll_interval=poll_interval,
            poll_jitter=poll_jitter,
            seed=seed,
            telemetry=False,
            integrity=False,
            max_batch=max_batch,
            resend_buffer=resend_buffer,
            poll_mode=poll_mode,
            pipeline_window=pipeline_window,
            keyframe_every=keyframe_every,
            targets=list(targets),
            emit_reports=False,
            adopt_streams=True,
        )
        self.dm.on_sample = self._enqueue
        self.poller = _PoolView(self.dm)  # root reads poller.targets
        self._open_sockets()

    # -- root-facing worker surface --------------------------------------
    @property
    def requests_sent(self) -> int:
        """Total SNMP requests issued by this shard's workers."""
        return sum(w.requests_sent for w in self.dm.workers.values())

    @property
    def window_peak(self) -> int:
        """Deepest pipeline occupancy any of this shard's workers hit."""
        return max(
            (w.poller.window_peak for w in self.dm.workers.values()), default=0
        )

    # -- lifecycle: the shard plane lives and dies with the leaf ---------
    def start(self, at: Optional[float] = None) -> None:
        self.dm.start(at=at)
        super().start(at)

    def stop(self) -> None:
        super().stop()
        self.dm.stop()

    def crash(self) -> None:
        """The leaf coordinator *process* dies.  Its workers -- separate
        hosts -- keep polling and shipping into the void; only the
        shard-local ingest, the uplink and the control listener go."""
        super().crash()
        self.dm.suspend()

    def _reopen(self) -> None:
        # The fresh shard ingest *adopts* the workers' mid-flight streams.
        self._open_sockets()
        self.dm.resume()

    def _adopt(self, version: int, targets: List[PollTarget]) -> None:
        logger.info(
            "leaf %s applied shard v%d: %d targets",
            self.name, version, len(targets),
        )
        self.dm.set_target_pool(targets)


class HierarchicalMonitor(DistributedMonitor):
    """The root of the coordinator tree.

    ``plan`` is :func:`repro.experiments.scale.hierarchy_plan` output:
    it names the root host, each shard's leaf coordinator host, the
    worker hosts inside each shard, and each shard's *member* nodes
    (the affinity map: a target's home shard is the pod it lives in, so
    monitoring traffic stays inside the pod until aggregation).  Leaves
    are driven through the inherited flat-plane machinery -- leases,
    ARQ, versioned ``assign`` messages -- and ship delta-encoded sample
    streams; the root's report surface is the flat coordinator's.
    """

    def __init__(
        self,
        build: BuildResult,
        plan: Dict[str, object],
        poll_interval: float = 2.0,
        poll_mode: str = "bulk",
        pipeline_window: int = 8,
        keyframe_every: int = 16,
        max_batch: int = 32,
        **kwargs,
    ) -> None:
        shards = plan["shards"]
        if not shards:
            raise ValueError("plan has no shards")
        self.plan = plan
        self._shard_workers: Dict[str, List[str]] = {
            leaf: list(shard["workers"]) for leaf, shard in shards.items()
        }
        self._shard_of: Dict[str, str] = {
            member: leaf
            for leaf, shard in shards.items()
            for member in shard["members"]
        }
        super().__init__(
            build,
            coordinator_host=plan["root"],
            worker_hosts=list(shards),
            poll_interval=poll_interval,
            poll_mode=poll_mode,
            pipeline_window=pipeline_window,
            keyframe_every=keyframe_every,
            max_batch=max_batch,
            **kwargs,
        )

    # -- hooks into the flat machinery ------------------------------------
    def _affinity(self, target: PollTarget) -> Optional[str]:
        return self._shard_of.get(target.node)

    def _make_worker(
        self, name: str, targets: List[PollTarget], index: int
    ) -> LeafCoordinator:
        return LeafCoordinator(
            self.build,
            name,
            self._shard_workers[name],
            targets,
            self.coordinator.primary_ip,
            self.poll_interval,
            self.poll_jitter,
            seed=self.seed + 1000 * (index + 1),
            heartbeat_interval=self.heartbeat_interval,
            max_batch=self.max_batch,
            resend_buffer=self.resend_buffer,
            poll_mode=self.poll_mode,
            pipeline_window=self.pipeline_window,
            keyframe_every=self.keyframe_every,
        )

    # -- introspection ------------------------------------------------------
    @property
    def leaves(self) -> Dict[str, LeafCoordinator]:
        return self.workers

    def stats(self) -> Dict[str, float]:
        """Flat counters plus per-shard poll/uplink economics."""
        out = super().stats()
        out["shards"] = float(len(self.workers))
        for name, leaf in self.workers.items():
            out[f"per_shard_exchanges.{name}"] = float(leaf.requests_sent)
            out[f"per_shard_keyframes.{name}"] = float(
                leaf.shipper.keyframes_shipped
            )
            out[f"per_shard_window_peak.{name}"] = float(leaf.window_peak)
        return out
