"""Unit tests for the OID value type."""

import pytest

from repro.snmp.oid import Oid, OidError


class TestConstruction:
    def test_from_string(self):
        assert Oid("1.3.6.1").arcs == (1, 3, 6, 1)

    def test_leading_dot_tolerated(self):
        assert Oid(".1.3.6") == Oid("1.3.6")

    def test_from_iterable(self):
        assert Oid([1, 3, 6]).arcs == (1, 3, 6)
        assert Oid((1, 3)) == Oid("1.3")

    def test_copy(self):
        oid = Oid("1.2.3")
        assert Oid(oid) == oid

    @pytest.mark.parametrize("bad", ["", ".", "1..2", "1.x.2"])
    def test_malformed_strings(self, bad):
        with pytest.raises(OidError):
            Oid(bad)

    def test_negative_arc_rejected(self):
        with pytest.raises(OidError):
            Oid([1, -2])

    def test_empty_iterable_rejected(self):
        with pytest.raises(OidError):
            Oid([])


class TestOrdering:
    def test_lexicographic(self):
        assert Oid("1.3.6.1.2") < Oid("1.3.6.1.3")

    def test_prefix_sorts_before_extension(self):
        """GETNEXT semantics depend on this: parent < parent.child."""
        assert Oid("1.3.6") < Oid("1.3.6.0")

    def test_sorted_table_column_order(self):
        """ifInOctets.1 < ifInOctets.2 < ifOutOctets.1 (column-major)."""
        in1 = Oid("1.3.6.1.2.1.2.2.1.10.1")
        in2 = Oid("1.3.6.1.2.1.2.2.1.10.2")
        out1 = Oid("1.3.6.1.2.1.2.2.1.16.1")
        assert sorted([out1, in2, in1]) == [in1, in2, out1]

    def test_hash_equality(self):
        assert len({Oid("1.2.3"), Oid([1, 2, 3])}) == 1


class TestStructure:
    def test_str_roundtrip(self):
        text = "1.3.6.1.2.1.1.3.0"
        assert str(Oid(text)) == text

    def test_concatenation(self):
        assert Oid("1.3") + "6.1" == Oid("1.3.6.1")
        assert Oid("1.3").extend(6, 1) == Oid("1.3.6.1")

    def test_startswith(self):
        oid = Oid("1.3.6.1.2.1.2.2.1.10.3")
        assert oid.startswith("1.3.6.1.2.1.2")
        assert oid.startswith(oid)
        assert not oid.startswith("1.3.6.1.4")

    def test_strip_prefix(self):
        oid = Oid("1.3.6.1.2.1.2.2.1.10.3")
        assert oid.strip_prefix("1.3.6.1.2.1.2.2.1.10") == (3,)
        with pytest.raises(OidError):
            oid.strip_prefix("9.9")

    def test_parent(self):
        assert Oid("1.3.6").parent == Oid("1.3")
        with pytest.raises(OidError):
            Oid("1").parent

    def test_indexing_and_slicing(self):
        oid = Oid("1.3.6.1")
        assert oid[0] == 1
        assert oid[-1] == 1
        assert oid[:2] == Oid("1.3")
        assert len(oid) == 4
        assert list(oid) == [1, 3, 6, 1]

    def test_empty_slice_rejected(self):
        with pytest.raises(OidError):
            Oid("1.3")[2:2]


class TestValidationBoundary:
    """Derived OIDs skip re-validating arcs that are already valid; the
    public constructor and every new arc still go through the checks."""

    @pytest.mark.parametrize(
        "bad", ["", "  ", ".", "1..2", "1.x.2", "1.-2", [], (), [1, -2], [-1]]
    )
    def test_public_constructor_still_rejects(self, bad):
        with pytest.raises(OidError):
            Oid(bad)

    @pytest.mark.parametrize("bad", ["", "x", "1..2", "-1", [-3]])
    def test_concatenated_part_is_validated(self, bad):
        with pytest.raises(OidError):
            Oid("1.3") + bad

    def test_extended_arcs_are_validated(self):
        with pytest.raises(OidError):
            Oid("1.3").extend(6, -1)
        with pytest.raises(ValueError):
            Oid("1.3").extend("x")

    def test_prefix_arguments_are_validated(self):
        with pytest.raises(OidError):
            Oid("1.3.6").startswith("1..3")
        with pytest.raises(OidError):
            Oid("1.3.6").strip_prefix("")

    def test_derived_oids_equal_public_ones(self):
        base = Oid("1.3.6.1.2.1.2.2.1.10")
        derived = [base + "7", base.extend(7), (base + "7.0").parent,
                   Oid("1.3.6.1.2.1.2.2.1.10.7.9")[:-1]]
        public = Oid("1.3.6.1.2.1.2.2.1.10.7")
        for oid in derived:
            assert type(oid) is Oid
            assert oid == public and hash(oid) == hash(public)
            assert not oid < public and not public < oid
            assert str(oid) == str(public)

    def test_ber_decoded_oid_equals_public_one(self):
        from repro.snmp.ber import decode_oid_content, encode_oid_content

        for text in ("1.3.6.1.2.1.1.3.0", "2.999.3", "0.39"):
            oid = Oid(text)
            decoded = decode_oid_content(encode_oid_content(oid))
            assert type(decoded) is Oid and decoded == oid
