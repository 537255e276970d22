"""CI gate for the refactored poll path at 1000-host campus scale.

A four-pod hierarchical campus (4 pods x 5 switches x 50 hosts = 1000
end hosts, agents on the 21 switches) runs the two-level coordinator
tree with the full refactored path: GetBulk batching, pipelined
scheduling inside each shard, and delta-encoded uplinks.  Acceptance
properties from the refactor issue:

- **Exchange economy >= 5x.**  The bulk+pipelined plane must issue at
  least 5x fewer SNMP exchanges per poll cycle than the same plane in
  per-varbind mode (measured over a short baseline window -- per-varbind
  at this scale is ~4000 exchanges per cycle, which is the point).
- **Bounded cycle wall-time.**  Simulating a steady poll cycle of the
  full plane must stay under a fixed wall-clock ceiling, so the
  benchmark itself proves the scheduling pipeline doesn't collapse at
  scale.
- **>= 80 % uplink traffic reduction, quiescent.**  With no offered
  load, shard uplinks ship deltas (ADVANCE/CHANGED records) whose byte
  cost is at most a fifth of what the same batches cost in the JSON
  encoding of ``tests/oracles/json_batch.py`` (priced from the batches
  each leaf actually shipped).
- **Leaf failover re-coverage <= 3 cycles.**  Killing a leaf
  coordinator mid-run must leave every watched path in its shard back
  to trusted reports within three poll intervals.

Writes ``BENCH_distributed.json`` for the CI artifact upload.
"""

import json
import time
from pathlib import Path

import pytest

from repro.core.hierarchy import HierarchicalMonitor
from repro.experiments.scale import hierarchy_plan, scale_spec
from repro.simnet.faults import WorkerCrash
from repro.spec.builder import build_network
from tests.oracles.json_batch import ShippedBatches

PODS, SWITCHES, HOSTS = 4, 5, 50  # 1000 end hosts, 21 switch agents
POLL = 2.0
STEADY_UNTIL = 30.0  # 15 cycles at t = 0, 2, ..., 28
STEADY_CYCLES = int(STEADY_UNTIL / POLL)
BASELINE_UNTIL = 4.0  # 2 per-varbind cycles are ~9000 exchanges already
BASELINE_CYCLES = int(BASELINE_UNTIL / POLL)
EXCHANGE_RATIO_FLOOR = 5.0
REDUCTION_FLOOR = 0.80
CYCLE_WALL_CEILING_S = 10.0  # generous: CI boxes vary, collapse doesn't
CRASH_AT = 10.0
RECOVER_AT = 25.0
CHAOS_UNTIL = 36.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_distributed.json"


def _plane(poll_mode, **kwargs):
    spec = scale_spec(
        hierarchical=PODS, switches=SWITCHES, hosts_per_switch=HOSTS,
        host_agents=False,
    )
    assert len(spec.hosts()) >= 1000, "benchmark campus too small"
    plan = hierarchy_plan(PODS, switches=SWITCHES, hosts_per_switch=HOSTS)
    build = build_network(spec)
    dm = HierarchicalMonitor(
        build, plan, poll_interval=POLL, poll_jitter=0.0, seed=0,
        poll_mode=poll_mode, max_batch=256, **kwargs,
    )
    return build, dm


def _exchanges(dm):
    return sum(leaf.requests_sent for leaf in dm.leaves.values())


@pytest.fixture(scope="module")
def steady_run():
    """The refactored plane, quiescent, 15 cycles; also wall-timed."""
    build, dm = _plane("bulk")
    meters = [ShippedBatches(leaf.shipper) for leaf in dm.leaves.values()]
    dm.start()
    t0 = time.perf_counter()
    build.network.run(STEADY_UNTIL)
    wall = time.perf_counter() - t0
    shipped = sum(l.shipper.bytes_shipped for l in dm.leaves.values())
    assert shipped == sum(m.bytes_shipped for m in meters)
    baseline = sum(m.bytes_baseline for m in meters)
    out = {
        "stats": dm.stats(),
        "exchanges_per_cycle": _exchanges(dm) / STEADY_CYCLES,
        "wall_s_per_cycle": wall / STEADY_CYCLES,
        "uplink_bytes_shipped": shipped,
        "uplink_bytes_baseline": baseline,
        "uplink_reduction": 1.0 - shipped / baseline,
    }
    dm.stop()
    return out


@pytest.fixture(scope="module")
def per_varbind_run():
    """The naive baseline: same plane, one GET per varbind, no window."""
    build, dm = _plane("per-varbind", pipeline_window=0)
    dm.start()
    build.network.run(BASELINE_UNTIL)
    out = {"exchanges_per_cycle": _exchanges(dm) / BASELINE_CYCLES}
    dm.stop()
    return out


def _merge_results(update):
    results = {}
    if RESULTS_PATH.exists():
        results = json.loads(RESULTS_PATH.read_text())
    results.update(update)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return results


def test_bench_scale_exchange_economy(steady_run, per_varbind_run):
    bulk = steady_run["exchanges_per_cycle"]
    naive = per_varbind_run["exchanges_per_cycle"]
    ratio = naive / bulk
    print(f"\nSNMP exchanges per cycle over 1000 hosts / 21 agents: "
          f"{naive:.0f} per-varbind vs {bulk:.0f} bulk+pipelined "
          f"({ratio:.1f}x fewer)")
    assert steady_run["stats"]["samples_received"] > 0
    assert ratio >= EXCHANGE_RATIO_FLOOR
    _merge_results({
        "hosts": PODS * SWITCHES * HOSTS,
        "switch_agents": PODS * SWITCHES + 1,
        "shards": PODS,
        "poll_interval_s": POLL,
        "per_varbind_exchanges_per_cycle": naive,
        "bulk_exchanges_per_cycle": bulk,
        "exchange_ratio": ratio,
    })


def test_bench_scale_cycle_wall_time(steady_run):
    wall = steady_run["wall_s_per_cycle"]
    print(f"\n{wall:.2f}s wall per simulated poll cycle "
          f"(ceiling {CYCLE_WALL_CEILING_S:.0f}s)")
    assert wall < CYCLE_WALL_CEILING_S
    _merge_results({"wall_s_per_cycle": wall})


def test_bench_scale_quiescent_delta_reduction(steady_run):
    reduction = steady_run["uplink_reduction"]
    stats = steady_run["stats"]
    keyframes = sum(
        v for k, v in stats.items() if k.startswith("per_shard_keyframes.")
    )
    print(f"\nuplink bytes quiescent: "
          f"{steady_run['uplink_bytes_shipped']:.0f} delta vs "
          f"{steady_run['uplink_bytes_baseline']:.0f} JSON baseline "
          f"({reduction:.1%} reduction, {keyframes:.0f} keyframes)")
    assert stats["decode_errors"] == 0.0
    assert keyframes >= 1
    assert reduction >= REDUCTION_FLOOR
    _merge_results({
        "uplink_bytes_shipped": steady_run["uplink_bytes_shipped"],
        "uplink_bytes_baseline": steady_run["uplink_bytes_baseline"],
        "uplink_reduction": reduction,
    })


def test_bench_scale_leaf_failover_recoverage(benchmark):
    def chaos():
        build, dm = _plane("bulk")
        dm.watch_path("p0h0_0", f"p0h{SWITCHES - 1}_{HOSTS - 1}")
        reports = []
        dm.subscribe(reports.append)
        WorkerCrash(build.network.sim, dm.leaves["mon0"],
                    at=CRASH_AT, until=RECOVER_AT)
        dm.start()
        build.network.run(CHAOS_UNTIL)
        stats = dm.stats()
        dm.stop()
        return reports, stats

    reports, stats = benchmark.pedantic(chaos, rounds=1, iterations=1)
    assert stats["failovers"] >= 1.0 and stats["rebalances"] >= 1.0
    deadline = CRASH_AT + 3 * POLL
    settled = [r for r in reports if deadline <= r.time < RECOVER_AT]
    assert settled, "no reports emitted after the re-coverage deadline"
    assert all(r.trusted for r in settled), (
        "shard not re-covered within 3 poll cycles of the leaf crash: "
        + ", ".join(f"{r.time:.1f}s={r.status}" for r in settled if not r.trusted)
    )
    gap_window = [r for r in reports if CRASH_AT + 1.0 <= r.time <= deadline]
    degraded = [r for r in gap_window if not r.trusted]
    recovered = min(r.time for r in reports if r.time > CRASH_AT and r.trusted)
    print(f"\nfirst trusted report {recovered - CRASH_AT:.1f}s after the leaf "
          f"crash (deadline {3 * POLL:.1f}s); "
          f"{len(degraded)}/{len(gap_window)} gap-window reports degraded")
    late = [r for r in reports if r.time >= RECOVER_AT + 3 * POLL]
    assert late and all(r.trusted for r in late)
    _merge_results({
        "leaf_crash_recoverage_s": recovered - CRASH_AT,
        "recoverage_deadline_s": 3 * POLL,
        "failovers": stats["failovers"],
    })
