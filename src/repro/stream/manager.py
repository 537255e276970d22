"""Subscription registry and fan-out with per-pair reverse indexing.

The manager owns every subscription and answers the publisher's only
hot-path question -- *who wants this pair?* -- from a reverse index
(pair -> subscriptions) plus a list of wildcard subscribers, so fan-out
cost is O(matching subscribers), never O(all subscribers).  With
thousands of subscribers each watching a handful of pairs, an event on
one pair touches only the few queues that asked for it.

Telemetry: the stream metric families are registered through
:func:`register_stream_metrics` (the monitor calls it unconditionally
so ``stats()`` keys resolve even with streaming disabled), and the
manager keeps them current as events flow.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.stream.events import StreamEvent, pair_key
from repro.stream.subscription import (
    DEFAULT_QUEUE_BOUND,
    OverflowPolicy,
    Subscription,
)

__all__ = ["StreamError", "SubscriptionManager", "register_stream_metrics"]

PairKey = Tuple[str, str]

SUBSCRIBERS_GAUGE = "stream_subscribers"
DELIVERED_TOTAL = "stream_events_delivered_total"
SUPPRESSED_TOTAL = "stream_events_suppressed_total"
DROPPED_TOTAL = "stream_events_dropped_total"


class StreamError(ValueError):
    """Raised for bad subscriptions or unknown subscribers."""


def register_stream_metrics(registry) -> None:
    """Create (get-or-create) the stream metric families."""
    registry.gauge(
        SUBSCRIBERS_GAUGE, "stream subscriptions currently registered"
    )
    registry.counter(
        DELIVERED_TOTAL, "stream events accepted into subscriber queues"
    )
    registry.counter(
        SUPPRESSED_TOTAL,
        "pair changes suppressed at the source by significance filters",
    )
    registry.counter(
        DROPPED_TOTAL,
        "stream events evicted or refused by subscriber queue bounds",
    )


class SubscriptionManager:
    """Registry + reverse-indexed fan-out for stream subscriptions."""

    def __init__(self, telemetry=None) -> None:
        self._subs: Dict[str, Subscription] = {}
        self._by_pair: Dict[PairKey, List[Subscription]] = {}
        self._wildcards: List[Subscription] = []
        # The few subscriptions the publisher must visit every cycle
        # (heartbeats; ``block`` queues that may stall), so a cycle does
        # not scan every subscriber.
        self._heartbeats: Dict[str, Subscription] = {}
        self._blocking: Dict[str, Subscription] = {}
        self.events_suppressed = 0  # publisher reports filter suppressions here
        self._g_subs = None
        self._m_delivered = None
        self._m_suppressed = None
        self._m_dropped = None
        if telemetry is not None:
            registry = telemetry.registry
            register_stream_metrics(registry)
            self._g_subs = registry.gauge(SUBSCRIBERS_GAUGE)
            self._g_subs.set_function(lambda: float(len(self._subs)))
            self._m_delivered = registry.counter(DELIVERED_TOTAL)
            self._m_suppressed = registry.counter(SUPPRESSED_TOTAL)
            self._m_dropped = registry.counter(DROPPED_TOTAL)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def subscribe(
        self,
        name: str,
        pairs: Optional[Iterable[Tuple[str, str]]] = None,
        policy: OverflowPolicy = OverflowPolicy.DROP_OLDEST,
        bound: int = DEFAULT_QUEUE_BOUND,
        callback: Optional[Callable[[StreamEvent], None]] = None,
        deliver_unchanged: bool = False,
    ) -> Subscription:
        """Register one subscriber.

        ``pairs`` are unordered host pairs (order-normalised here);
        ``None`` subscribes to every pair the publisher covers.
        ``deliver_unchanged`` requires explicit pairs -- a per-cycle
        heartbeat over *all* pairs is snapshot polling again.
        """
        if name in self._subs:
            raise StreamError(f"subscription {name!r} already exists")
        normalised: Optional[Set[PairKey]] = None
        if pairs is not None:
            normalised = {pair_key(a, b) for a, b in pairs}
            if not normalised:
                raise StreamError(f"subscription {name!r} selects no pairs")
        if deliver_unchanged and normalised is None:
            raise StreamError(
                "deliver_unchanged needs an explicit pair set: a per-cycle "
                "heartbeat over every pair is snapshot polling again"
            )
        sub = Subscription(
            name,
            pairs=normalised,
            policy=policy,
            bound=bound,
            callback=callback,
            deliver_unchanged=deliver_unchanged,
        )
        self._subs[name] = sub
        if deliver_unchanged:
            self._heartbeats[name] = sub
        if policy is OverflowPolicy.BLOCK:
            self._blocking[name] = sub
        if normalised is None:
            self._wildcards.append(sub)
        else:
            for key in normalised:
                self._by_pair.setdefault(key, []).append(sub)
        return sub

    def unsubscribe(self, name: str) -> None:
        try:
            sub = self._subs.pop(name)
        except KeyError:
            raise StreamError(f"no subscription {name!r}") from None
        self._heartbeats.pop(name, None)
        self._blocking.pop(name, None)
        if sub.pairs is None:
            self._wildcards.remove(sub)
        else:
            for key in sub.pairs:
                bucket = self._by_pair.get(key)
                if bucket is not None:
                    bucket.remove(sub)
                    if not bucket:
                        del self._by_pair[key]

    def get(self, name: str) -> Subscription:
        try:
            return self._subs[name]
        except KeyError:
            raise StreamError(f"no subscription {name!r}") from None

    def subscriptions(self) -> List[Subscription]:
        return [self._subs[name] for name in sorted(self._subs)]

    def heartbeat_subscriptions(self) -> List[Subscription]:
        """The ``deliver_unchanged`` subscriptions, in name order."""
        return [self._heartbeats[name] for name in sorted(self._heartbeats)]

    def stalled_subscriptions(self) -> List[Subscription]:
        """The stalled ``block`` subscriptions, in name order."""
        return [
            self._blocking[name]
            for name in sorted(self._blocking)
            if self._blocking[name].stalled
        ]

    def __len__(self) -> int:
        return len(self._subs)

    def __contains__(self, name: str) -> bool:
        return name in self._subs

    # ------------------------------------------------------------------
    # Fan-out (publisher hot path)
    # ------------------------------------------------------------------
    def subscribers_of(self, pair: PairKey) -> List[Subscription]:
        """Every subscription that wants this pair (indexed + wildcards)."""
        indexed = self._by_pair.get(pair)
        if indexed is None:
            return self._wildcards if self._wildcards else []
        if not self._wildcards:
            return indexed
        return indexed + self._wildcards

    def deliver(self, event: StreamEvent) -> int:
        """Offer one event to every matching subscription.

        Returns the number of queues that accepted it.  Queue-bound
        refusals and evictions are counted into the dropped metric by
        the subscriptions themselves; this aggregates them.
        """
        accepted = 0
        for sub in self.subscribers_of(event.pair):
            if sub.deliver_unchanged:
                continue  # served exclusively by the per-cycle heartbeat
            if self._offer_counted(sub, event):
                accepted += 1
        return accepted

    def deliver_to(self, sub, event: StreamEvent) -> bool:
        """Offer one event to one subscription, with metric bookkeeping.

        The publisher uses this for targeted deliveries that do not fan
        out by pair: query events (owned by one subscriber), per-cycle
        heartbeats, and ``block``-policy resyncs.
        """
        return self._offer_counted(sub, event)

    def _offer_counted(self, sub, event: StreamEvent) -> bool:
        before_dropped = sub.events_dropped
        before_delivered = sub.events_delivered
        accepted = sub.offer(event)
        delivered_delta = sub.events_delivered - before_delivered
        if self._m_delivered is not None and delivered_delta:
            self._m_delivered.inc(delivered_delta)
        if self._m_dropped is not None and sub.events_dropped > before_dropped:
            self._m_dropped.inc(sub.events_dropped - before_dropped)
        return accepted

    def note_suppressed(self, count: int = 1) -> None:
        """The publisher suppressed ``count`` sub-deadband changes."""
        self.events_suppressed += count
        if self._m_suppressed is not None:
            self._m_suppressed.inc(count)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        delivered = sum(s.events_delivered for s in self._subs.values())
        dropped = sum(s.events_dropped for s in self._subs.values())
        return {
            "subscribers": len(self._subs),
            "delivered": delivered,
            "suppressed": self.events_suppressed,
            "dropped": dropped,
            "pending": sum(len(s) for s in self._subs.values()),
            "stalled": sum(1 for s in self._subs.values() if s.stalled),
        }
