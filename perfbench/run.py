"""The repository benchmark: steady poll-cycle cost, set-up and report trust.

Run from the repository root::

    python3 perfbench/run.py --workload campus-quiet --seed 1 --seconds 12 --trace 0

``--trace 0`` is the timed run.  It builds the workload ``SETUP_REPEATS``
times, each with the package's module-level caches emptied, and
reports the median set-up time, then runs a fixed number of
steady cycles (``CYCLES_PER_SECOND[workload] * --seconds``, the same work
on every commit) and reports per-cycle time, throughput, peak memory and
report trust.  Times are wall clock rescaled by a fixed reference loop
timed next to each cycle and set-up (see :func:`reference_s`), so they
read as seconds on a host where that loop takes ``REFERENCE_NOMINAL_S``;
the uncalibrated figures are printed beside them.

``--trace 1`` is the separate traced run.  It runs an untraced replay of
the same seed in a child process under another ``PYTHONHASHSEED``, then
the same cycles with the span tracer of ``tracer.py`` installed, and
reports the per-layer metrics.

Both modes check that the outputs are correct and fail (exit 1,
``"correct": false``, no metrics) on any miss.  Human-readable lines go
first; the last line of standard output is one JSON object.  Spans
(gzipped), digests and exact counts are written to ``.perfbench_out/`` in
the working directory.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")

SETUP_REPEATS = 5
# Cycles after the first report before timing starts.  pod-stream's
# significance filter passes every change while it learns its deadbands
# (about the first ten publishes), a one-time cost, not the steady cycle.
WARMUP_CYCLES = {"campus-quiet": 2, "campus-loaded": 2, "pod-stream": 8}
DIGEST_CYCLES = 10  # steady cycles behind the digest, counts and trace
MIN_CYCLES = 20
# Steady cycles per second of --seconds: the cycle count is fixed by the
# benchmark, so every commit measures the same simulated work.
CYCLES_PER_SECOND = {"campus-quiet": 100 / 12, "campus-loaded": 5, "pod-stream": 50 / 12}
USED_ERR_TOLERANCE = 0.05  # bound on used_err.p50 (the paper's Table 2 check)
STEP_GUARD_S = 0.1  # a sample window this close to a rate step straddles it
SCALING_HOSTS_PER_SWITCH = (6, 12, 24)  # campus-quiet at 120, 240, 480 hosts
SCALING_CYCLES = 10
CHILD_TIMEOUT_S = 170
REFERENCE_ITERATIONS = 20000
REFERENCE_NOMINAL_S = 0.003  # calibrated times are seconds at this loop time


def _fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
class Checks:
    """Named pass/fail checks; the run is correct only if all pass."""

    def __init__(self) -> None:
        self.items: List[Tuple[str, bool, str]] = []
        self.attempted = 0  # steady reports due
        self.failed = 0  # of those, not delivered or not trusted

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.items)

    def lines(self) -> List[str]:
        return [
            f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else "")
            for name, ok, detail in self.items
        ]


def used_errors(inst, reports) -> List[float]:
    """Relative error of each loaded access connection's reported
    ``used_bps`` against the wire rate its generators put on it, one value
    per (connection, report time), skipping windows that straddle a step.

    Only the access links of flow endpoints count: uplinks also carry the
    monitor's own SNMP and shipping traffic, whose rate no generator
    states, and beside a small-payload flow it would swamp the check."""
    from workloads import expected_wire

    crossing = expected_wire(inst)
    hub_legs = _hub_legs(inst)
    endpoints = {f.src for f in inst.flows} | {f.dst for f in inst.flows}
    seen = set()
    errors: List[float] = []
    for report in reports:
        for m in report.connections:
            if m.rule not in ("switch", "hub") or m.sample_time is None:
                continue
            conn = m.connection
            if conn.end_a.node not in endpoints and conn.end_b.node not in endpoints:
                continue
            key = (m.connection.endpoints(), report.time)
            if key in seen:
                continue
            seen.add(key)
            end = m.sample_time
            start = end - (m.sample_interval or 0.0)
            if m.rule == "hub":
                flows = [(f, len(hub_legs[h] & _conn_keys(f))) for h in
                         _hubs_of(m.connection, hub_legs) for f in inst.flows]
            else:
                flows = [(f, 1) for f in crossing.get(m.connection.endpoints(), [])]
            flows = [(f, k) for f, k in flows if k]
            if not flows:
                continue
            if any(start - STEP_GUARD_S <= t <= end + STEP_GUARD_S
                   for f, _ in flows for t in f.schedule.breakpoints):
                continue
            expected = sum(f.wire_rate(end) * k for f, k in flows)
            if expected <= 0:
                continue
            errors.append(abs(m.used_bps - expected) / expected)
    return errors


def _conn_keys(flow) -> set:
    return {conn.endpoints() for conn in flow.path}


def _hub_legs(inst) -> Dict[str, set]:
    """Per hub, the endpoint keys of its host-facing connections."""
    from repro.topology.model import DeviceKind

    spec = inst.build.spec
    legs: Dict[str, set] = {}
    for conn in spec.connections:
        a, b = conn.end_a.node, conn.end_b.node
        for hub, other in ((a, b), (b, a)):
            if (spec.node(hub).kind is DeviceKind.HUB
                    and spec.node(other).kind is DeviceKind.HOST):
                legs.setdefault(hub, set()).add(conn.endpoints())
    return legs


def _hubs_of(conn, hub_legs) -> List[str]:
    return [n for n in (conn.end_a.node, conn.end_b.node) if n in hub_legs]


def check_reports(checks: Checks, inst, per_cycle: List[list]) -> Dict[str, float]:
    """Delivery, trust, decode-error, queue-bound and accuracy checks shared
    by both modes; sets the run's attempted and failed report counts and
    returns the trust and accuracy figures."""
    due = len(per_cycle) * len(inst.watches)
    reports = [r for cycle in per_cycle for r in cycle]
    short = [i for i, cycle in enumerate(per_cycle) if len(cycle) != len(inst.watches)]
    checks.add("every steady report delivered", not short,
               f"{len(reports)}/{due} reports")
    untrusted = sum(1 for r in reports if not r.trusted)
    checks.add("every steady report trusted", untrusted == 0,
               f"{untrusted} untrusted of {len(reports)}")
    errors = inst.decode_errors()
    checks.add("shipping decode errors zero", errors == 0, f"{errors}")
    over = [s.name for s in inst.subscriptions
            if len(s) > s.bound or s.high_watermark > s.bound]
    checks.add("stream queues within bound", not over,
               f"{len(inst.subscriptions)} subscribers" + (f", over: {over[:5]}" if over else ""))
    checks.attempted = due
    checks.failed = due - len(reports) + untrusted
    out = {"reports": len(reports), "untrusted": untrusted}
    if inst.flows:
        from stats import median

        errs = used_errors(inst, reports)
        checks.add("used_err samples present", len(errs) > 0, f"{len(errs)} samples")
        if errs:
            out["used_err.p50"] = median(errs)
            out["used_err.samples"] = len(errs)
            checks.add("used_err.p50 within tolerance",
                       out["used_err.p50"] <= USED_ERR_TOLERANCE,
                       f"{out['used_err.p50']:.4f} <= {USED_ERR_TOLERANCE}")
    return out


def code_fingerprint() -> str:
    """SHA-256 over the program and benchmark sources (``src/**/*.py`` and
    ``perfbench/*.py``, by relative path): the code an exact-count record
    belongs to."""
    import hashlib

    h = hashlib.sha256()
    root = Path.cwd().resolve()
    files = sorted(list((root / "src").rglob("*.py")) + list(BENCH_DIR.glob("*.py")))
    for path in files:
        rel = path.relative_to(root) if path.is_relative_to(root) else path.name
        h.update(f"{rel}\0".encode())
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def check_record(checks: Checks, workload: str, seed: int, key: str, value) -> None:
    """Exact-count record: the first run of a (workload, seed) on this code
    writes it, later runs of the same code in the same checkout must match
    it exactly.  Changed code starts a fresh record."""
    OUT_DIR.mkdir(exist_ok=True)
    code = code_fingerprint()
    path = OUT_DIR / f"record-{workload}-{seed}-{code[:16]}.json"
    record = json.loads(path.read_text()) if path.exists() else {"code": code}
    if key in record:
        same = record[key] == value
        checks.add(f"{key} repeats the recorded run", same,
                   "" if same else _diff(record[key], value))
    else:
        record[key] = value
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def _diff(old, new) -> str:
    if isinstance(old, dict) and isinstance(new, dict):
        keys = sorted(k for k in set(old) | set(new) if old.get(k) != new.get(k))
        return ", ".join(f"{k}: {old.get(k)} -> {new.get(k)}" for k in keys[:6])
    return f"{old} -> {new}"


def counts_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: after[k] - before[k] for k in after}


# ----------------------------------------------------------------------
# Driving a workload
# ----------------------------------------------------------------------
def set_up(workload: str, seed: int, hosts_per_switch: Optional[int] = None):
    """Build and run to the first delivered report; returns the instance."""
    import workloads

    inst = workloads.build(workload, seed, hosts_per_switch)
    for _ in range(4):
        inst.run_cycle()
        if inst.reports:
            inst.take_reports()
            return inst
    raise RuntimeError(f"{workload}: no report within four poll intervals")


def warm_up(inst) -> None:
    for _ in range(WARMUP_CYCLES[inst.name]):
        inst.run_cycle()
        inst.take_reports()
        inst.drain_subscriptions()


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop (no repository code): the
    host's current speed.  On a shared 2-vCPU VM the speed of identical
    Python work was seen to drift by up to ~1.8x over tens of seconds, so
    every timing is rescaled by the loop timed next to it
    (``stats.calibrate``) to seconds at ``REFERENCE_NOMINAL_S``.  Of the
    loops tried (dict updates, a cache-missing object walk, allocation),
    this one tracked the workloads' drift best."""
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = i % 503
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


def clear_global_caches() -> int:
    """Empty every module-level ``functools`` cache of the ``repro``
    package (the OID codec's memo, for one), so each timed set-up pays
    what a fresh monitor process pays, imports aside.  Returns how many
    caches were cleared."""
    cleared = 0
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for obj in list(vars(module).values()):
            if (getattr(obj, "__module__", None) == name
                    and callable(getattr(obj, "cache_clear", None))):
                obj.cache_clear()
                cleared += 1
    return cleared


def timed_setup(workload: str, seed: int) -> Tuple[object, float, float]:
    """One set-up: (instance, wall seconds, reference seconds around it)."""
    refs = [reference_s() for _ in range(3)]
    t0 = time.perf_counter()
    inst = set_up(workload, seed)
    wall = time.perf_counter() - t0
    refs += [reference_s() for _ in range(3)]
    from stats import median

    return inst, wall, median(refs)


@dataclass
class Steady:
    """What a run of steady cycles leaves for the metrics and checks."""

    walls: List[float]
    refs: List[float]  # reference loop, mean of one before and one after each cycle
    per_cycle: List[list]
    digest_counts: Dict[str, int]  # public counts after DIGEST_CYCLES
    dirty_pairs: int  # matrix dirty pairs summed over the cycles

    @property
    def calibrated(self) -> List[float]:
        from stats import calibrate

        return calibrate(self.walls, self.refs, REFERENCE_NOMINAL_S)


def steady(inst, cycles: int, on_cycle=None) -> Steady:
    """Run ``cycles`` timed cycles; only ``run_cycle`` is inside the timer,
    report collection and queue draining (the consumers' work) are not.
    ``on_cycle`` is told the cycle index before each timed part and None
    after it."""
    out = Steady([], [], [], {}, 0)
    matrix = inst.publisher.matrix if inst.publisher else None
    for k in range(cycles):
        before = reference_s()
        if on_cycle is not None:
            on_cycle(k)
        t0 = time.perf_counter()
        inst.run_cycle()
        out.walls.append(time.perf_counter() - t0)
        if on_cycle is not None:
            on_cycle(None)
        out.refs.append((before + reference_s()) / 2)
        out.per_cycle.append(inst.take_reports())
        inst.drain_subscriptions()
        if matrix is not None:
            out.dirty_pairs += matrix.dirty_pairs_last
        if k + 1 == DIGEST_CYCLES:
            out.digest_counts = inst.public_counts()
    return out


def digest_of(per_cycle: List[list]) -> str:
    from stats import ReportDigest

    digest = ReportDigest()
    for cycle in per_cycle[:DIGEST_CYCLES]:
        digest.extend(cycle)
    return digest.hexdigest()


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# --trace 0: the timed run
# ----------------------------------------------------------------------
def timed_run(workload: str, seed: int, seconds: int) -> Tuple[Checks, Dict, List[str]]:
    from stats import exchange_fail_frac, fraction, median, tail_percentile

    cycles = max(MIN_CYCLES, round(CYCLES_PER_SECOND[workload] * seconds))
    setups: List[float] = []  # calibrated
    setup_walls: List[float] = []
    inst = None
    for _ in range(SETUP_REPEATS):
        if inst is not None:
            inst.stop()
            inst = None
        gc.collect()
        clear_global_caches()
        inst, wall, ref = timed_setup(workload, seed)
        setup_walls.append(wall)
        setups.append(wall * REFERENCE_NOMINAL_S / ref)
    warm_up(inst)
    before = inst.public_counts()
    run = steady(inst, cycles)
    window = counts_delta(inst.public_counts(), before)
    inst.stop()

    checks = Checks()
    trust = check_reports(checks, inst, run.per_cycle)
    digest = digest_of(run.per_cycle)
    check_record(checks, workload, seed, "digest", digest)
    check_record(checks, workload, seed, "public_counts",
                 counts_delta(run.digest_counts, before))
    cal = run.calibrated
    tail_pct, tail = tail_percentile(cal)
    exchanges = window["snmp_requests"] - window["snmp_retransmissions"]
    checks.add("no SNMP exchange failed", window["snmp_timeouts"] == 0,
               f"{window['snmp_timeouts']} of {exchanges} timed out")
    metrics = {
        "setup_s": (median(setups), "s", f"median of {len(setups)} set-ups"),
        "cycle_s.p50": (median(cal), "s", f"{len(cal)} steady cycles"),
        "cycle_s.tail": (tail, "s", f"p{tail_pct} of {len(cal)} cycles"),
        "cycles_per_s": (len(cal) / sum(cal), "1/s",
                         f"{len(cal)} cycles at {inst.hosts} hosts"),
        "rss_peak_mb": (rss_peak_mb(), "MB", "peak resident set of the run"),
        "untrusted_frac": (fraction(trust["untrusted"], trust["reports"]), "ratio",
                           f"{trust['reports']} steady reports"),
        "exchange_fail_frac": (
            exchange_fail_frac(window["snmp_requests"], window["snmp_retransmissions"],
                               window["snmp_timeouts"]),
            "ratio", f"{exchanges} SNMP exchanges"),
    }
    if "used_err.p50" in trust:
        metrics["used_err.p50"] = (trust["used_err.p50"], "ratio",
                                   f"{trust['used_err.samples']} connection samples")
    lines = [f"{workload} seed={seed} hosts={inst.hosts} watches={len(inst.watches)} "
             f"flows={len(inst.flows)} subscribers={len(inst.subscriptions)}"]
    lines += [f"  {name:<20} {value:>14.6f} {unit:<6} ({note})"
              for name, (value, unit, note) in metrics.items()]
    lines.append(f"  uncalibrated: setup {median(setup_walls):.6f} s, cycle p50 "
                 f"{median(run.walls):.6f} s, reference loop p50 "
                 f"{median(run.refs) * 1e3:.3f} ms (nominal "
                 f"{REFERENCE_NOMINAL_S * 1e3:.3f} ms)")
    lines.append(f"  digest {digest} over {DIGEST_CYCLES} cycles")
    return checks, {k: (v, u) for k, (v, u, _) in metrics.items()}, lines


def replay(workload: str, seed: int) -> Dict:
    """Untraced set-up, warm-up and ``DIGEST_CYCLES`` cycles (the child of
    a traced run)."""
    from stats import median

    inst = set_up(workload, seed)
    warm_up(inst)
    before = inst.public_counts()
    run = steady(inst, DIGEST_CYCLES)
    inst.stop()
    return {
        "digest": digest_of(run.per_cycle),
        "public_counts": counts_delta(run.digest_counts, before),
        "cycle_s.p50": median(run.calibrated),
    }


# ----------------------------------------------------------------------
# --trace 1: the traced run
# ----------------------------------------------------------------------
# The layers that should dominate each workload's traced cycle, and how:
# "half" -- their summed self-time share exceeds 0.5; "largest" -- it
# exceeds every other single layer's.  Printed, not gated: a later
# optimisation may legitimately move them.
PREDICTIONS = {
    "campus-quiet": (("snmp_agent", "snmp_codec", "snmp_manager", "integrity"), "half"),
    "campus-loaded": (("simnet",), "largest"),
    "pod-stream": (("calculator", "matrix", "stream", "history"), "largest"),
}


def run_child(workload: str, seed: int) -> Dict:
    """The untraced replay, in a child process under another
    ``PYTHONHASHSEED`` than this one."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") != "1" else "2"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--replay"],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"untraced replay failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["hash_seed"] = env["PYTHONHASHSEED"]
    return result


@dataclass
class Traced:
    tracer: object
    inst: object
    run: Steady
    before: Dict[str, int]
    window: Dict[str, int]  # public counts over the traced cycles
    setup_events: int
    tallies: Dict[str, object]  # tracer tallies over the traced cycles
    live_objects: int  # GC-tracked objects right after the traced cycles


def traced_cycles(workload: str, seed: int, cycles: int,
                  hosts_per_switch: Optional[int] = None) -> Traced:
    """Install the tracer, then set up, warm up and run ``cycles`` traced
    cycles.  Set-up spans carry cycle -1, warm-up -2, and the benchmark's
    own work between timed cycles -3."""
    from tracer import SpanTracer

    tracer = SpanTracer()
    tracer.install()
    try:
        inst = set_up(workload, seed, hosts_per_switch)
        setup_events = inst.sim.events_processed
        tracer.cycle = -2
        warm_up(inst)
        before = inst.public_counts()
        start = tracer.tallies()
        first_rtt = len(tracer.rtts)

        def mark(k: Optional[int]) -> None:
            tracer.cycle = -3 if k is None else k

        run = steady(inst, cycles, on_cycle=mark)
        live_objects = len(gc.get_objects())
        tallies = {k: v - start[k] for k, v in tracer.tallies().items()}
        tallies["rtts"] = tracer.rtts[first_rtt:]
        window = counts_delta(inst.public_counts(), before)
    finally:
        tracer.uninstall()
    inst.stop()
    return Traced(tracer, inst, run, before, window, setup_events, tallies,
                  live_objects)


def layer_self_times(tracer, cycles: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(per-cycle self seconds per layer over the traced cycles, self
    seconds per layer during set-up).  Both include the ``unattributed``
    bucket beside :data:`tracer.LAYERS`."""
    from stats import self_times
    from tracer import LAYERS, UNATTRIBUTED, layer_of

    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    layer_ids = [layer_of(name) for name in tracer.names]
    steady_s = {layer: 0.0 for layer in LAYERS + (UNATTRIBUTED,)}
    setup_s = dict(steady_s)
    for name_id, cycle, own in zip(tracer.name_ids, tracer.cycles, selfs):
        if 0 <= cycle < cycles:
            steady_s[layer_ids[name_id]] += own
        elif cycle == -1:
            setup_s[layer_ids[name_id]] += own
    return {k: v / cycles for k, v in steady_s.items()}, setup_s


def traced_run(workload: str, seed: int) -> Tuple[Checks, Dict, List[str]]:
    from stats import fraction, median
    from tracer import LAYERS, UNATTRIBUTED

    child = run_child(workload, seed)
    cycles = DIGEST_CYCLES
    t = traced_cycles(workload, seed, cycles)
    inst, tracer, run, w = t.inst, t.tracer, t.run, t.window
    checks = Checks()
    check_reports(checks, inst, run.per_cycle)
    digest = digest_of(run.per_cycle)
    public = counts_delta(run.digest_counts, t.before)
    checks.add("traced digest equals untraced digest", digest == child["digest"],
               f"untraced under PYTHONHASHSEED={child['hash_seed']}, {digest[:16]}")
    checks.add("traced public counts equal untraced", public == child["public_counts"],
               _diff(child["public_counts"], public))
    check_record(checks, workload, seed, "digest", digest)
    check_record(checks, workload, seed, "public_counts", public)
    span_counts = tracer.counts(range(cycles))
    check_record(checks, workload, seed, "traced_counts", span_counts)

    per_cycle_self, setup_self = layer_self_times(tracer, cycles)
    cycle_wall = sum(run.walls) / cycles
    cycle_cal = sum(run.calibrated) / cycles

    def per(n: float) -> float:
        return n / cycles

    def spans_of(*names: str) -> int:
        return sum(span_counts.get(n, 0) for n in names)

    integrity = inst.monitor.integrity
    inspections = spans_of("integrity:IntegrityPipeline.inspect")
    history = inst.monitor.history.storage_stats()
    pairs = len(inst.publisher.matrix._paths) if inst.publisher else 0
    rtts = t.tallies["rtts"]
    m: Dict[str, Tuple[float, str]] = {
        "simnet.events_per_cycle": (per(w["sim_events"]), "count"),
        "simnet.frames_per_cycle": (per(w["frames"]), "count"),
        "simnet.link_drops": (w["link_drops"], "count"),
        "simnet.setup_events": (t.setup_events, "count"),
        "simnet.setup_self_s": (setup_self["simnet"], "s"),
        "snmp_agent.requests_per_cycle": (per(w["agent_requests"]), "count"),
        "snmp_agent.varbinds_per_cycle": (per(t.tallies["varbinds"]), "count"),
        "snmp_mib.get_next_per_cycle": (per(spans_of("snmp_agent:MibTree.get_next")), "count"),
        "snmp_codec.pdus_per_cycle": (
            per(spans_of("snmp_codec:Pdu.encode", "snmp_codec:Pdu.decode")), "count"),
        "snmp_codec.bytes_per_cycle": (per(t.tallies["codec_bytes"]), "bytes"),
        "snmp_manager.exchanges_per_cycle": (
            per(w["snmp_requests"] - w["snmp_retransmissions"]), "count"),
        "snmp_manager.retransmits_per_cycle": (per(w["snmp_retransmissions"]), "count"),
        "snmp_manager.timeouts_per_cycle": (per(w["snmp_timeouts"]), "count"),
        "snmp_manager.unmatched_per_cycle": (per(w["snmp_unmatched"]), "count"),
        "snmp_manager.rtt_sim_s.p50": (median(rtts) if rtts else 0.0, "sim_s"),
        "poller.samples_per_cycle": (per(w["poll_samples"]), "count"),
        "poller.window_deferred_per_cycle": (per(w["window_deferred"]), "count"),
        "poller.window_overruns_per_cycle": (per(w["window_overruns"]), "count"),
        "integrity.inspections_per_cycle": (per(inspections), "count"),
        "integrity.us_per_inspection": (
            1e6 * per_cycle_self["integrity"] * cycles / inspections if inspections else 0.0,
            "us"),
        "integrity.quarantined": (len(integrity.quarantined_keys()) if integrity else 0,
                                  "count"),
        "shipping.batches_per_cycle": (per(w["batches_shipped"]), "count"),
        "shipping.bytes_per_cycle": (per(w["bytes_shipped"]), "bytes"),
        "shipping.changed_ratio": (
            w["records_changed"] / w["records"] if w["records"] else 0.0, "ratio"),
        "shipping.keyframes_per_cycle": (per(w["keyframes_shipped"]), "count"),
        "shipping.decode_errors": (inst.decode_errors(), "count"),
        "calculator.measure_calls_per_cycle": (
            per(spans_of("calculator:BandwidthCalculator.measure_path")), "count"),
        "calculator.recompute_ratio": (
            fraction(w["calc_recomputes"], w["calc_recomputes"] + w["calc_cache_hits"]),
            "ratio"),
        "matrix.dirty_ratio": (run.dirty_pairs / (cycles * pairs) if pairs else 0.0, "ratio"),
        "stream.delivered_per_cycle": (per(w["stream_delivered"]), "count"),
        "stream.suppressed_per_cycle": (per(w["stream_suppressed"]), "count"),
        "stream.dropped": (w["stream_dropped"], "count"),
        "history.appends_per_cycle": (
            per(spans_of("history:MeasurementHistory.append")), "count"),
        "history.bytes_per_sample": (
            history.nbytes / history.samples if history.samples else 0.0, "bytes"),
        "runtime.gc_full_per_cycle": (per(t.tallies["gc_full"]), "count"),
        "runtime.gc_pause_s_per_cycle": (per_cycle_self["runtime"], "s"),
        "runtime.live_objects": (t.live_objects, "count"),
    }
    for layer in LAYERS + (UNATTRIBUTED,):
        m[f"{layer}.self_share"] = (per_cycle_self[layer] / cycle_wall, "ratio")
    m["traced.cycle_s"] = (cycle_cal, "s")
    # Attributed self time over the whole timed cycle: the engine loop,
    # unwrapped callbacks and any time outside Simulator.run lower it.
    m["traced.coverage"] = (
        sum(per_cycle_self[layer] for layer in LAYERS) / cycle_wall, "ratio")
    m["traced.overhead"] = (median(run.calibrated) / child["cycle_s.p50"], "ratio")
    checks.add("trace covers the cycle", m["traced.coverage"][0] >= 0.9,
               f"{m['traced.coverage'][0]:.3f}")

    share = {layer: per_cycle_self[layer] / cycle_wall for layer in LAYERS}
    group, rule = PREDICTIONS[workload]
    group_share = sum(share[layer] for layer in group)
    threshold = 0.5 if rule == "half" else max(
        share[layer] for layer in LAYERS if layer not in group)
    lines = [f"{workload} seed={seed} traced {cycles} cycles, hosts={inst.hosts}",
             f"  prediction {'holds' if group_share > threshold else 'DOES NOT HOLD'}: "
             f"{'+'.join(group)} share {group_share:.3f} > {threshold:.3f} ({rule})"]
    lines += [f"  {layer + '.self_s_per_cycle':<36} {per_cycle_self[layer]:>14.6f} s "
              f"({per_cycle_self[layer] / cycle_wall:6.1%})"
              for layer in LAYERS + (UNATTRIBUTED,)]
    lines += [f"  {name:<36} {value:>14.6f} {unit}" for name, (value, unit) in m.items()
              if not name.endswith(".self_share")]
    summary = {
        "workload": workload, "seed": seed, "cycles": cycles,
        "metrics": {k: v for k, (v, _) in m.items()},
        "self_s_per_cycle": per_cycle_self, "setup_self_s": setup_self,
        "span_counts": span_counts, "public_counts": public, "digest": digest,
    }
    write_spans(tracer, workload, seed)
    del t, tracer, inst, run
    if workload == "campus-quiet":
        summary["exponents"] = scaling_pass(seed, lines)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{workload}-{seed}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return checks, m, lines


def scaling_pass(seed: int, lines: List[str]) -> Dict[str, Optional[float]]:
    """campus-quiet traced at three fleet sizes; the fitted exponent of each
    layer's per-cycle self time against host count."""
    from stats import fit_exponent, median
    from tracer import LAYERS

    sizes: List[int] = []
    per_size: List[Dict[str, float]] = []
    for hosts_per_switch in SCALING_HOSTS_PER_SWITCH:
        gc.collect()
        t = traced_cycles("campus-quiet", seed, SCALING_CYCLES, hosts_per_switch)
        sizes.append(t.inst.hosts)
        # The sizes run one after another: rescale each to the nominal host
        # speed, or a drift between them would bend every exponent.
        speed = REFERENCE_NOMINAL_S / median(t.run.refs)
        per_size.append({layer: s * speed for layer, s in
                         layer_self_times(t.tracer, SCALING_CYCLES)[0].items()})
        del t
    exponents = {
        layer: fit_exponent(sizes, [p[layer] for p in per_size]) for layer in LAYERS
    }
    lines.append(f"  scaling pass over {sizes} hosts ({SCALING_CYCLES} traced cycles each):")
    for layer, exponent in exponents.items():
        shown = "n/a" if exponent is None else f"{exponent:.2f}"
        lines.append(f"  {layer + '.exponent':<36} {shown:>14}")
    return exponents


def write_spans(tracer, workload: str, seed: int) -> None:
    """The traced cycles' spans, one JSON array per line: name, start, end,
    parent (an index into the whole span list) and cycle."""
    OUT_DIR.mkdir(exist_ok=True)
    with gzip.open(OUT_DIR / f"spans-{workload}-{seed}.jsonl.gz", "wt",
                   compresslevel=1) as fh:
        for i, cycle in enumerate(tracer.cycles):
            if cycle >= 0:
                fh.write(json.dumps(tracer.span(i)) + "\n")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
# The end-to-end metrics in the JSON line.  untrusted_frac,
# exchange_fail_frac and used_err.p50 are printed above it and gated as
# correctness checks: on these fault-free workloads the first two are 0 by
# design, and campus-quiet carries no load to measure used_err against.
E2E_JSON = ("setup_s", "cycle_s.p50", "cycle_s.tail", "cycles_per_s", "rss_peak_mb")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return _fail_setup(f"no repro sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail_setup(f"unknown workload {args.workload!r}; "
                           f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds < 1:
        return _fail_setup("--seconds must be at least 1")
    if args.replay:
        print(json.dumps(replay(args.workload, args.seed)))
        return 0

    if args.trace:
        checks, metrics, lines = traced_run(args.workload, args.seed)
        reported = metrics
    else:
        checks, metrics, lines = timed_run(args.workload, args.seed, args.seconds)
        reported = {k: metrics[k] for k in E2E_JSON}
    for line in lines + checks.lines():
        print(line)
    if not checks.ok:
        print("perfbench: correctness checks failed", file=sys.stderr)
    print(json.dumps({
        "correct": checks.ok,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}
        if checks.ok else {},
    }))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
