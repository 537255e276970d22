"""Unit tests for the MIB tree, MIB-II bindings and the caching view."""

import functools
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.poller import PollTarget
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.sockets import DISCARD_PORT
from repro.snmp.datatypes import Counter32, Gauge32, Integer, OctetString, TimeTicks
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import (
    CachingMibTree,
    DOT1D_STP_PORT_ENTRY,
    DOT1D_TP_FDB_ENTRY,
    FDB_STATUS_LEARNED,
    IF_ENTRY,
    IF_IN_OCTETS,
    IF_NUMBER,
    IF_PHYS_ADDRESS,
    IF_SPEED,
    MibError,
    MibTree,
    SNMP_GROUP,
    SYS_NAME,
    SYS_UPTIME,
    build_mib2,
    DOT1D_TP_FDB_PORT,
)
from repro.snmp.oid import DOT1D_BRIDGE, INTERFACES, MIB2, Oid
from repro.spec.builder import build_network
from repro.spec.parser import parse_spec


class TestMibTree:
    def test_get_registered_scalar(self):
        tree = MibTree()
        tree.register(Oid("1.3.1.0"), Integer(5))
        assert tree.get(Oid("1.3.1.0")) == Integer(5)

    def test_get_missing_returns_none(self):
        assert MibTree().get(Oid("1.3")) is None

    def test_callable_accessor_reads_live(self):
        tree = MibTree()
        box = {"v": 1}
        tree.register(Oid("1.3.1.0"), lambda: Integer(box["v"]))
        assert tree.get(Oid("1.3.1.0")) == Integer(1)
        box["v"] = 2
        assert tree.get(Oid("1.3.1.0")) == Integer(2)

    def test_double_registration_rejected(self):
        tree = MibTree()
        tree.register(Oid("1.3.1.0"), Integer(1))
        with pytest.raises(MibError):
            tree.register(Oid("1.3.1.0"), Integer(2))

    def test_get_next_lexicographic(self):
        tree = MibTree()
        for text in ("1.3.1.0", "1.3.2.0", "1.3.10.0"):
            tree.register(Oid(text), Integer(0))
        hit = tree.get_next(Oid("1.3.1.0"))
        assert hit[0] == Oid("1.3.2.0")
        # 2 < 10 numerically, not as strings
        assert tree.get_next(Oid("1.3.2.0"))[0] == Oid("1.3.10.0")

    def test_get_next_from_prefix(self):
        tree = MibTree()
        tree.register(Oid("1.3.6.1.2.1.1.3.0"), TimeTicks(0))
        assert tree.get_next(Oid("1.3.6.1.2.1.1.3"))[0] == Oid("1.3.6.1.2.1.1.3.0")

    def test_get_next_end_of_mib(self):
        tree = MibTree()
        tree.register(Oid("1.3.1.0"), Integer(0))
        assert tree.get_next(Oid("1.3.1.0")) is None

    def test_walk_all_sorted(self):
        tree = MibTree()
        for text in ("1.3.2.0", "1.3.1.0", "1.4.0"):
            tree.register(Oid(text), Integer(0))
        oids = [oid for oid, _v in tree.walk_all()]
        assert oids == sorted(oids)
        assert len(oids) == 3

    def test_has_subtree(self):
        tree = MibTree()
        tree.register(Oid("1.3.1.5"), Integer(0))
        assert tree.has_subtree(Oid("1.3.1"))
        assert tree.has_subtree(Oid("1.3"))
        assert not tree.has_subtree(Oid("1.4"))


def make_host_net():
    net = Network()
    host = net.add_host("S1", os_label="Solaris 7")
    peer = net.add_host("peer")
    sw = net.add_switch("sw", 4, managed=False)
    net.connect(host, sw)
    net.connect(peer, sw)
    net.announce_hosts()
    return net, host, peer


class TestMib2:
    def test_table1_objects_present(self):
        """Every MIB-II object in the paper's Table 1 must resolve."""
        net, host, _ = make_host_net()
        tree = build_mib2(host, net.sim)
        table1 = [
            "1.3.6.1.2.1.1.3.0",  # sysUpTime
            "1.3.6.1.2.1.2.2.1.5.1",  # ifSpeed
            "1.3.6.1.2.1.2.2.1.10.1",  # ifInOctets
            "1.3.6.1.2.1.2.2.1.11.1",  # ifInUcastPkts
            "1.3.6.1.2.1.2.2.1.16.1",  # ifOutOctets
            "1.3.6.1.2.1.2.2.1.18.1",  # ifOutNUcastPkts
        ]
        for text in table1:
            assert tree.get(Oid(text)) is not None, text

    def test_sysuptime_tracks_clock(self):
        net, host, _ = make_host_net()
        tree = build_mib2(host, net.sim)
        net.run(12.34)
        uptime = tree.get(SYS_UPTIME)
        assert uptime == TimeTicks(1234)

    def test_sysname(self):
        net, host, _ = make_host_net()
        tree = build_mib2(host, net.sim)
        assert tree.get(SYS_NAME) == OctetString(b"S1")

    def test_ifspeed_static(self):
        net, host, _ = make_host_net()
        tree = build_mib2(host, net.sim)
        assert tree.get(IF_SPEED + "1") == Gauge32(100_000_000)

    def test_ifnumber(self):
        net, host, _ = make_host_net()
        tree = build_mib2(host, net.sim)
        assert tree.get(IF_NUMBER) == Integer(1)

    def test_ifphysaddress_is_mac(self):
        net, host, _ = make_host_net()
        tree = build_mib2(host, net.sim)
        got = tree.get(IF_PHYS_ADDRESS + "1")
        assert got == OctetString(host.interfaces[0].mac.to_bytes())

    def test_counters_read_live_and_wrap(self):
        net, host, peer = make_host_net()
        tree = build_mib2(host, net.sim)
        assert tree.get(IF_IN_OCTETS + "1") == Counter32(0)
        peer.create_socket().sendto(972, (host.primary_ip, DISCARD_PORT))
        net.run(1.0)
        after = tree.get(IF_IN_OCTETS + "1")
        assert after.value >= 1000
        # Force a wrap: the MIB must truncate the raw 64-bit counter.
        host.interfaces[0].counters.in_octets = (1 << 32) + 42
        assert tree.get(IF_IN_OCTETS + "1") == Counter32(42)

    def test_ifspeed_clamped_to_gauge32(self):
        net = Network()
        host = net.add_host("fast", speed_bps=10e9)  # 10 Gb/s > 2^32
        tree = build_mib2(host, net.sim)
        assert tree.get(IF_SPEED + "1") == Gauge32((1 << 32) - 1)


class TestBridgeFdb:
    def test_fdb_rows_appear_after_learning(self):
        net = Network()
        a = net.add_host("A")
        b = net.add_host("B")
        sw = net.add_switch("sw", 4, managed=False)
        net.connect(a, sw)
        net.connect(b, sw)
        net.announce_hosts()
        net.run(0.1)
        tree = build_mib2(sw, net.sim)
        # Walk the FDB port column: one row per learned MAC.
        rows = []
        cursor = DOT1D_TP_FDB_PORT
        while True:
            hit = tree.get_next(cursor)
            if hit is None or not hit[0].startswith(DOT1D_TP_FDB_PORT):
                break
            rows.append(hit)
            cursor = hit[0]
        assert len(rows) == 2
        ports = sorted(v.value for _oid, v in rows)
        assert ports == [1, 2]  # A on port1, B on port2

    def test_fdb_get_exact(self):
        net = Network()
        a = net.add_host("A")
        sw = net.add_switch("sw", 4, managed=False)
        net.connect(a, sw)
        net.announce_hosts()
        net.run(0.1)
        tree = build_mib2(sw, net.sim)
        index = ".".join(str(x) for x in a.interfaces[0].mac.to_bytes())
        assert tree.get(DOT1D_TP_FDB_PORT + index) == Integer(1)
        assert tree.get(DOT1D_TP_FDB_PORT + "9.9.9.9.9.9") is None


class TestCachingMibTree:
    def test_counters_stale_between_refreshes(self):
        net, host, peer = make_host_net()
        inner = build_mib2(host, net.sim)
        cached = CachingMibTree(inner, net.sim, refresh_interval=1.0)
        net.run(0.5)  # first snapshot happened at t=0
        host.interfaces[0].counters.in_octets = 5000
        # Still serving the t=0 snapshot:
        assert cached.get(IF_IN_OCTETS + "1") == Counter32(0)
        net.run(1.5)  # snapshot at t=1.0 picked up the new value
        assert cached.get(IF_IN_OCTETS + "1") == Counter32(5000)

    def test_system_group_always_fresh(self):
        net, host, _ = make_host_net()
        cached = CachingMibTree(build_mib2(host, net.sim), net.sim, 10.0)
        net.run(5.0)
        assert cached.get(SYS_UPTIME) == TimeTicks(500)

    def test_non_positive_interval_rejected(self):
        net, host, _ = make_host_net()
        with pytest.raises(MibError):
            CachingMibTree(build_mib2(host, net.sim), net.sim, 0.0)

    def test_get_next_uses_cached_values(self):
        net, host, _ = make_host_net()
        inner = build_mib2(host, net.sim)
        cached = CachingMibTree(inner, net.sim, 1.0)
        net.run(0.2)
        host.interfaces[0].counters.in_octets = 999
        hit = cached.get_next(IF_IN_OCTETS)
        assert hit[0] == IF_IN_OCTETS + "1"
        assert hit[1] == Counter32(0)  # snapshot value, not live


# ----------------------------------------------------------------------
# Successor queries on a switch with both bridge-MIB providers
# ----------------------------------------------------------------------
_STP_SWITCH_SPEC = "\n".join(
    ["network topology bridged {",
     '    host L { snmp community "public"; }',
     '    switch sw { snmp community "public"; ports 50; stp "on"; }',
     '    switch peer { snmp community "public"; ports 4; stp "on"; }',
     "    connect L.eth0 <-> sw.port1;",
     "    connect sw.port49 <-> peer.port1;",
     "    connect sw.port50 <-> peer.port2;"]
    + [f'    host h{i} {{ snmp community "public"; }}\n'
       f"    connect h{i}.eth0 <-> sw.port{i + 2};" for i in range(6)]
    + ["}"]
)


def stp_switch_build():
    """A 50-port spanning-tree switch whose FDB has learned 7 hosts."""
    build = build_network(parse_spec(_STP_SWITCH_SPEC))
    net = build.network
    net.run(3.0)  # the spanning tree has converged: ports forward
    net.announce_hosts()
    net.run(5.0)
    return build


@functools.lru_cache(maxsize=None)
def switch_tree_and_rows():
    """The switch's MIB tree plus a brute-force map of every row in it."""
    sw = stp_switch_build().network.switches["sw"]
    tree = build_mib2(sw, sw.sim)
    # Scalars below, between and above the provider subtrees, so the
    # static candidate sometimes sorts after a provider prefix and the
    # merge, not only the provider skip, decides the answer.
    for text, value in (
        ("1.3.6.1.2.1.17.1.2.0", 50),  # dot1dBaseNumPorts
        ("1.3.6.1.2.1.17.4.2.0", 300),  # dot1dTpAgingTime
        ("1.3.6.1.2.1.31.1.1.1.15.1", 100),  # ifHighSpeed.1
    ):
        tree.register(Oid(text), Integer(value))
    # White-box: the static registry, then each provider's rows built
    # straight from the switch state rather than through the providers.
    rows = {oid: tree.get(oid) for oid in tree._static}
    for mac, port, _age in sw.fdb_entries():
        raw = mac.to_bytes()
        rows[DOT1D_TP_FDB_ENTRY.extend(1, *raw)] = OctetString(raw)
        rows[DOT1D_TP_FDB_ENTRY.extend(2, *raw)] = Integer(port)
        rows[DOT1D_TP_FDB_ENTRY.extend(3, *raw)] = Integer(FDB_STATUS_LEARNED)
    for iface in sw.interfaces:
        i = iface.if_index
        rows[DOT1D_STP_PORT_ENTRY.extend(1, i)] = Integer(i)
        rows[DOT1D_STP_PORT_ENTRY.extend(3, i)] = Integer(sw.stp.port_state_value(i))
    return tree, rows


def _edge_probes():
    """Each provider prefix exactly, and OIDs just below and above it."""
    out = []
    for prefix in (DOT1D_TP_FDB_ENTRY, DOT1D_STP_PORT_ENTRY):
        arcs = prefix.arcs
        out += [
            prefix,
            prefix.parent,
            prefix.extend(0),
            prefix.extend(1),
            prefix.extend(99),
            Oid(arcs[:-1] + (arcs[-1] - 1,)),
            Oid(arcs[:-1] + (arcs[-1] - 1, 2**31 - 1)),
            Oid(arcs[:-1] + (arcs[-1] + 1,)),
        ]
    return out


_ANCHORS = [Oid("1"), MIB2, INTERFACES, IF_ENTRY, SNMP_GROUP, DOT1D_BRIDGE,
            DOT1D_BRIDGE + "4", DOT1D_TP_FDB_ENTRY, DOT1D_STP_PORT_ENTRY,
            MIB2 + "31"]
_PROBES = st.one_of(
    st.lists(st.integers(0, 60), min_size=1, max_size=14).map(Oid),
    st.builds(lambda anchor, tail: anchor.extend(*tail),
              st.sampled_from(_ANCHORS), st.lists(st.integers(0, 60), max_size=8)),
    st.sampled_from(_edge_probes()),
    st.builds(lambda col, row: IF_ENTRY.extend(col, row),
              st.integers(0, 23), st.integers(0, 55)),
)


class TestGetNextAgainstBruteForce:
    @given(_PROBES)
    @settings(max_examples=400, deadline=None)
    def test_get_next_is_the_successor_over_all_rows(self, probe):
        tree, rows = switch_tree_and_rows()
        after = [oid for oid in rows if oid > probe]
        hit = tree.get_next(probe)
        if not after:
            assert hit is None
        else:
            successor = min(after)
            assert hit == (successor, rows[successor])
        assert tree.get(probe) == rows.get(probe)

    def test_full_walk_visits_every_row_in_order(self):
        tree, rows = switch_tree_and_rows()
        assert tree.walk_all() == sorted(rows.items())
        for prefix in (DOT1D_TP_FDB_ENTRY, DOT1D_STP_PORT_ENTRY):
            assert any(oid.startswith(prefix) for oid in rows)


def _agent_reply_digest(walk):
    """SHA-256 over the bytes the switch agent sends while ``walk(manager,
    address, done)`` runs, plus the number of varbinds it delivered."""
    build = stp_switch_build()
    net = build.network
    agent = build.agent("sw")
    sent = []
    send = agent.socket.sendto

    def capture(payload, dst):
        sent.append(payload)
        return send(payload, dst)

    agent.socket.sendto = capture
    manager = SnmpManager(net.hosts["L"], timeout=0.5, retries=1)
    got = []
    walk(manager, net.endpoint("sw").primary_ip, got.append)
    net.run(net.sim.now + 1.0)
    assert len(got) == 1 and isinstance(got[0], list)
    return hashlib.sha256(b"".join(sent)).hexdigest(), len(got[0])


class TestWireGolden:
    """The encoded responses are pinned: skipping providers, bisecting on
    arc tuples and building OIDs without re-validation move CPU work
    only, never a byte."""

    def test_iftable_bulk_walk_bytes(self):
        columns = PollTarget("sw", None, []).columns()
        digest, varbinds = _agent_reply_digest(
            lambda manager, ip, done: manager.poll_interfaces(
                ip, range(1, 51), columns, done, done
            )
        )
        assert varbinds == 1 + 6 * 50
        assert digest == "dd924c3091f87aca01594560a831d01fd9c5e1e62328d1e77c320c17df41d7f5"

    @pytest.mark.parametrize("root, rows, golden", [
        (DOT1D_TP_FDB_ENTRY, 3 * 7,
         "2f3ec8481e11362670f179cef484bdd2285ce769c246ea9a3869b7ceb3200d53"),
        (DOT1D_STP_PORT_ENTRY, 2 * 50,
         "0a36dfb1e104e89ec5c2d93e4c1b9f3ee52c753cb693832b0578b251bdaeaabb"),
    ])
    def test_bridge_table_walk_bytes(self, root, rows, golden):
        digest, varbinds = _agent_reply_digest(
            lambda manager, ip, done: manager.walk(ip, root, done, done, use_bulk=True)
        )
        assert varbinds == rows
        assert digest == golden
