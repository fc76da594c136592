"""Tests for GRAS data descriptions and cross-architecture serialisation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DataDescriptionError
from repro.gras.arch import ARCHITECTURES
from repro.gras.datadesc import (
    ArrayDesc,
    ScalarDesc,
    StringDesc,
    StructDesc,
    datadesc_by_name,
    declare_struct,
)

X86 = ARCHITECTURES["x86"]
X86_64 = ARCHITECTURES["x86_64"]
SPARC = ARCHITECTURES["sparc"]
POWERPC = ARCHITECTURES["powerpc"]
ALL_ARCHS = [X86, X86_64, SPARC, POWERPC]


class TestScalars:
    @pytest.mark.parametrize("type_name,value", [
        ("int8", -5), ("uint8", 200), ("int16", -1234), ("uint16", 65000),
        ("int32", -100000), ("uint32", 4000000000), ("int64", -(2 ** 40)),
        ("uint64", 2 ** 50), ("float", 1.5), ("double", 3.141592653589793),
    ])
    @pytest.mark.parametrize("src", ALL_ARCHS, ids=lambda a: a.name)
    @pytest.mark.parametrize("dst", ALL_ARCHS, ids=lambda a: a.name)
    def test_scalar_roundtrip_across_architectures(self, type_name, value,
                                                   src, dst):
        desc = ScalarDesc(type_name)
        assert desc.roundtrip(value, src, dst) == value
        # An array of the scalar packs in one struct call; its bytes,
        # decoded items and wire size equal the per-element encoding.
        items = [value, 0, value]
        per_element = b"".join(desc.encode(item, src) for item in items)
        fixed = ArrayDesc(desc, fixed_length=3)
        assert fixed.encode(items, src) == per_element
        assert fixed.decode(per_element, src) == (items, len(per_element))
        assert fixed.wire_size(items, src) == len(per_element)
        dynamic = ArrayDesc(desc)
        assert dynamic.encode(items, src) == \
            (3).to_bytes(4, src.byte_order) + per_element
        assert dynamic.roundtrip(items, src, dst) == items

    def test_char_roundtrip(self):
        desc = ScalarDesc("char")
        assert desc.roundtrip("Z", X86, SPARC) == "Z"
        # char arrays take the per-element path (str items convert).
        assert ArrayDesc(desc).roundtrip(["a", b"b"], SPARC, X86) == \
            ["a", "b"]

    def test_wire_size_follows_architecture(self):
        desc = ScalarDesc("long")
        assert desc.wire_size(0, X86) == 4         # 32-bit long
        assert desc.wire_size(0, X86_64) == 8      # 64-bit long

    def test_byte_order_actually_differs(self):
        desc = ScalarDesc("int32")
        little = desc.encode(1, X86)
        big = desc.encode(1, SPARC)
        assert little != big
        assert little == b"\x01\x00\x00\x00"
        assert big == b"\x00\x00\x00\x01"

    def test_unknown_scalar_rejected(self):
        with pytest.raises(DataDescriptionError):
            ScalarDesc("quaternion")

    def test_unencodable_value_rejected(self):
        desc = ScalarDesc("int8")
        with pytest.raises(DataDescriptionError):
            desc.encode(10_000, X86)
        # One out-of-range element fails the whole array, by name.
        for order_arch in (X86, SPARC):
            with pytest.raises(DataDescriptionError, match="10000"):
                ArrayDesc(desc).encode([1, 10_000, 2], order_arch)
        with pytest.raises(DataDescriptionError):
            ArrayDesc(ScalarDesc("uint32")).encode([-1], SPARC)
        with pytest.raises(DataDescriptionError):
            ArrayDesc(ScalarDesc("int32")).encode([1, "x"], X86)


class TestCompositeTypes:
    def test_string_roundtrip(self):
        desc = StringDesc()
        assert desc.roundtrip("héllo wörld", SPARC, X86) == "héllo wörld"

    def test_fixed_array_roundtrip_and_length_check(self):
        desc = ArrayDesc(ScalarDesc("int32"), fixed_length=4)
        assert desc.roundtrip([1, 2, 3, 4], X86, POWERPC) == [1, 2, 3, 4]
        with pytest.raises(DataDescriptionError):
            desc.encode([1, 2, 3], X86)

    def test_dynamic_array_roundtrip(self):
        desc = ArrayDesc(ScalarDesc("double"))
        values = [0.5, -1.25, 3.75]
        assert desc.roundtrip(values, POWERPC, X86) == values
        # A truncated payload is rejected, not silently shortened.
        with pytest.raises(DataDescriptionError):
            desc.decode(desc.encode(values, POWERPC)[:-1], POWERPC)

    def test_struct_roundtrip(self):
        desc = StructDesc("point", [("x", ScalarDesc("double")),
                                    ("y", ScalarDesc("double")),
                                    ("label", StringDesc())])
        value = {"x": 1.0, "y": -2.5, "label": "origin-ish"}
        assert desc.roundtrip(value, SPARC, X86) == value

    def test_nested_struct_and_arrays(self):
        point = StructDesc("pt", [("x", ScalarDesc("int32")),
                                  ("y", ScalarDesc("int32"))])
        polygon = StructDesc("poly", [("name", StringDesc()),
                                      ("points", ArrayDesc(point))])
        value = {"name": "triangle",
                 "points": [{"x": 0, "y": 0}, {"x": 1, "y": 0},
                            {"x": 0, "y": 1}]}
        assert polygon.roundtrip(value, X86, SPARC) == value

    def test_struct_missing_field_rejected(self):
        desc = StructDesc("p", [("x", ScalarDesc("int32"))])
        with pytest.raises(DataDescriptionError):
            desc.encode({}, X86)

    def test_struct_accepts_attribute_objects(self):
        class Point:
            def __init__(self):
                self.x = 7
        desc = StructDesc("p", [("x", ScalarDesc("int32"))])
        data = desc.encode(Point(), X86)
        decoded, _ = desc.decode(data, X86)
        assert decoded == {"x": 7}

    def test_empty_struct_rejected(self):
        with pytest.raises(DataDescriptionError):
            StructDesc("empty", [])


class TestRegistry:
    def test_builtin_types_available(self):
        for name in ("int", "double", "string", "uint32"):
            assert datadesc_by_name(name) is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(DataDescriptionError):
            datadesc_by_name("no-such-type")

    def test_declare_struct_registers_by_name(self):
        declare_struct("test_pair_xy", [("a", "int"), ("b", "double")])
        desc = datadesc_by_name("test_pair_xy")
        value = {"a": 3, "b": 2.5}
        assert desc.roundtrip(value, X86, SPARC) == value

    def test_declare_struct_with_bad_field_rejected(self):
        with pytest.raises(DataDescriptionError):
            declare_struct("bad_struct_field", [("a", 42)])


# ----------------------------------------------------------------------------------
# property-based cross-architecture roundtrips
# ----------------------------------------------------------------------------------

arch_strategy = st.sampled_from(ALL_ARCHS)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
       arch_strategy, arch_strategy)
def test_property_int32_roundtrips_between_any_architectures(value, src, dst):
    desc = ScalarDesc("int32")
    assert desc.roundtrip(value, src, dst) == value


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64),
       arch_strategy, arch_strategy)
def test_property_double_roundtrips_between_any_architectures(value, src, dst):
    desc = ScalarDesc("double")
    assert desc.roundtrip(value, src, dst) == pytest.approx(value, abs=0,
                                                            rel=0) or \
        desc.roundtrip(value, src, dst) == value


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2 ** 16 - 1), max_size=30),
       st.text(max_size=40), arch_strategy, arch_strategy)
def test_property_struct_of_array_and_string_roundtrips(numbers, text, src, dst):
    desc = StructDesc("prop_struct", [
        ("numbers", ArrayDesc(ScalarDesc("uint16"))),
        ("text", StringDesc()),
    ])
    value = {"numbers": numbers, "text": text}
    assert desc.roundtrip(value, src, dst) == value


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255), max_size=50),
       arch_strategy)
def test_property_wire_size_matches_encoded_length(values, arch):
    desc = ArrayDesc(ScalarDesc("uint8"))
    encoded = desc.encode(values, arch)
    assert len(encoded) == desc.wire_size(values, arch)
