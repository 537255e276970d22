"""SNMP object identifiers.

An OID is a sequence of non-negative integer arcs, written in dotted
notation (``1.3.6.1.2.1.2.2.1.10.3`` is ``ifInOctets`` for interface 3).
MIB traversal (GETNEXT / walking a table) depends on the *lexicographic*
order of OIDs, which :class:`Oid` implements via plain tuple comparison.

Public construction (``Oid(...)``) parses and validates every arc.  OIDs
derived from already-valid ones -- concatenation, slicing, parents, BER
decode -- go through :func:`oid_from_arcs`, which skips that work: the
poll path builds and compares thousands of them per cycle.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, Tuple, Union

OidLike = Union["Oid", str, Iterable[int]]


class OidError(ValueError):
    """Raised for malformed OID literals."""


@total_ordering
class Oid:
    """Immutable, hashable, lexicographically ordered OID."""

    __slots__ = ("_arcs",)

    def __init__(self, value: OidLike) -> None:
        if isinstance(value, Oid):
            self._arcs: Tuple[int, ...] = value._arcs
            return
        if isinstance(value, str):
            text = value.strip().lstrip(".")
            if not text:
                raise OidError("empty OID string")
            try:
                arcs = tuple(int(part) for part in text.split("."))
            except ValueError as exc:
                raise OidError(f"malformed OID {value!r}") from exc
        else:
            arcs = tuple(int(a) for a in value)
        if not arcs:
            raise OidError("an OID needs at least one arc")
        if any(a < 0 for a in arcs):
            raise OidError(f"negative arc in OID {arcs!r}")
        self._arcs = arcs

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def arcs(self) -> Tuple[int, ...]:
        return self._arcs

    def __len__(self) -> int:
        return len(self._arcs)

    def __iter__(self) -> Iterator[int]:
        return iter(self._arcs)

    def __getitem__(self, index) -> Union[int, "Oid"]:
        if isinstance(index, slice):
            part = self._arcs[index]
            if not part:
                raise OidError("OID slice would be empty")
            return oid_from_arcs(part)
        return self._arcs[index]

    def extend(self, *arcs: int) -> "Oid":
        """A new OID with extra arcs appended (only those are validated)."""
        extra = tuple(int(a) for a in arcs)
        if any(a < 0 for a in extra):
            raise OidError(f"negative arc in {extra!r}")
        return oid_from_arcs(self._arcs + extra)

    def __add__(self, other: OidLike) -> "Oid":
        return oid_from_arcs(self._arcs + _arcs_of(other))

    def startswith(self, prefix: OidLike) -> bool:
        p = _arcs_of(prefix)
        return self._arcs[: len(p)] == p

    def strip_prefix(self, prefix: OidLike) -> Tuple[int, ...]:
        """The arcs after ``prefix`` (raises if not actually a prefix)."""
        p = _arcs_of(prefix)
        if self._arcs[: len(p)] != p:
            raise OidError(f"{self} does not start with {Oid(prefix)}")
        return self._arcs[len(p):]

    @property
    def parent(self) -> "Oid":
        if len(self._arcs) <= 1:
            raise OidError(f"{self} has no parent")
        return oid_from_arcs(self._arcs[:-1])

    # ------------------------------------------------------------------
    # Ordering / identity
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Oid):
            return self._arcs == other._arcs
        return NotImplemented

    def __lt__(self, other: "Oid") -> bool:
        if not isinstance(other, Oid):
            return NotImplemented
        return self._arcs < other._arcs

    def __hash__(self) -> int:
        return hash(self._arcs)

    def __str__(self) -> str:
        return ".".join(str(a) for a in self._arcs)

    def __repr__(self) -> str:
        return f"Oid('{self}')"


def oid_from_arcs(arcs: Tuple[int, ...]) -> Oid:
    """An :class:`Oid` over a non-empty tuple of non-negative ints,
    which the caller guarantees: nothing is parsed or checked."""
    oid = object.__new__(Oid)
    oid._arcs = arcs
    return oid


def _arcs_of(value: OidLike) -> Tuple[int, ...]:
    return value._arcs if isinstance(value, Oid) else Oid(value)._arcs


# Well-known roots used throughout the package.
MIB2 = Oid("1.3.6.1.2.1")
SYSTEM = MIB2 + "1"
INTERFACES = MIB2 + "2"
IF_TABLE_ENTRY = INTERFACES + "2.1"
DOT1D_BRIDGE = MIB2 + "17"
