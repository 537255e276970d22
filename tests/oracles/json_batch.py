"""The JSON sample-batch encoding, kept as a yardstick for delta shipping.

Rate samples travel only as binary delta batches (``repro.core.deltas``).
Before that format existed they travelled as self-describing JSON
documents, one per batch; pricing the batches a shipper actually sent in
that encoding is how tests and benchmarks measure what delta encoding
saves.

:class:`ShippedBatches` taps a :class:`~repro.core.distributed.SampleShipper`:
it decodes every batch on its first transmission (retransmits repeat a
payload already counted) with a :class:`~repro.core.deltas.DeltaDecoder`
and re-encodes the recovered samples with :func:`encode_batch`.  Because
the delta format is bit-exact, the JSON bytes are exactly what shipping
the same samples as JSON would have cost.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.deltas import DeltaDecoder, is_delta, parse_delta
from repro.core.poller import InterfaceRates


def sample_doc(sample: InterfaceRates) -> Dict[str, object]:
    return {
        "n": sample.node,
        "i": sample.if_index,
        "t": sample.time,
        "d": sample.interval,
        "ib": sample.in_bytes_per_s,
        "ob": sample.out_bytes_per_s,
        "ip": sample.in_pkts_per_s,
        "op": sample.out_pkts_per_s,
    }


def encode_batch(
    worker: str, incarnation: int, seq: int, samples: Sequence[InterfaceRates]
) -> bytes:
    """One sequenced JSON report datagram carrying several samples."""
    return json.dumps(
        {
            "k": "batch",
            "w": worker,
            "inc": incarnation,
            "q": seq,
            "s": [sample_doc(s) for s in samples],
        }
    ).encode()


class ShippedBatches:
    """Record what a shipper sends and what the same batches cost in JSON.

    Install before the shipper's first flush; the shipper's transmit
    function is wrapped, so the datagrams still leave unchanged.  Sends
    are only recorded while the plane runs and priced when a figure is
    read, so a timed run pays for a list append per datagram.
    """

    def __init__(self, shipper) -> None:
        self._send = shipper.send
        shipper.send = self._capture
        self.sent: List[bytes] = []
        self._tallied = 0
        self._seen: Set[Tuple[int, int]] = set()
        self._decoders: Dict[int, DeltaDecoder] = {}
        self._bytes_shipped = 0
        self._bytes_baseline = 0

    def _capture(self, payload: bytes) -> None:
        self.sent.append(payload)
        self._send(payload)

    def _tally(self) -> None:
        for payload in self.sent[self._tallied:]:
            if not is_delta(payload):
                continue  # a control message (``gone``)
            batch = parse_delta(payload)
            key = (batch.incarnation, batch.seq)
            if key in self._seen:
                continue  # a retransmit repeats a batch already priced
            self._seen.add(key)
            decoder = self._decoders.setdefault(batch.incarnation, DeltaDecoder())
            samples = decoder.apply(batch)
            self._bytes_shipped += len(payload)
            self._bytes_baseline += len(
                encode_batch(batch.worker, batch.incarnation, batch.seq, samples)
            )
        self._tallied = len(self.sent)

    @property
    def bytes_shipped(self) -> int:
        """Delta bytes of first transmissions (the shipper's own count)."""
        self._tally()
        return self._bytes_shipped

    @property
    def bytes_baseline(self) -> int:
        """JSON bytes of the same batches."""
        self._tally()
        return self._bytes_baseline

    @property
    def reduction(self) -> float:
        """Fraction of the JSON bytes the delta batches saved."""
        if self.bytes_baseline <= 0:
            return 0.0
        return 1.0 - self.bytes_shipped / self.bytes_baseline
