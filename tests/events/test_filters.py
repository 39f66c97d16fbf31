"""The filter algebra: matching semantics and spec round-trips."""

import pytest

from repro.core import ids
from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.events.event import ContextEvent
from repro.events.filters import (
    AndFilter,
    AttributeFilter,
    FilterError,
    MatchAll,
    NotFilter,
    OrFilter,
    SourceFilter,
    SubjectFilter,
    TypeFilter,
    filter_from_spec,
)

GUID = GuidFactory(seed=2).mint()


def event(type_name="location", representation="topological",
          subject="bob", value="L10.01", **attributes):
    return ContextEvent(TypeSpec(type_name, representation, subject),
                        value, GUID, 1.0, attributes=attributes)


class TestPrimitives:
    def test_match_all(self):
        assert MatchAll().matches(event())

    def test_type_filter_by_name(self):
        assert TypeFilter("location").matches(event())
        assert not TypeFilter("path").matches(event())

    def test_type_filter_with_representation(self):
        assert TypeFilter("location", "topological").matches(event())
        assert not TypeFilter("location", "geometric").matches(event())

    def test_subject_filter(self):
        assert SubjectFilter("bob").matches(event())
        assert not SubjectFilter("john").matches(event())

    def test_source_filter(self):
        assert SourceFilter(GUID.hex).matches(event())
        assert not SourceFilter("00" * 32).matches(event())

    @pytest.mark.parametrize("spelling", [
        lambda hx: hx.upper(),               # not lowercase
        lambda hx: hx.lstrip("0") or "0",    # not fixed width
        lambda hx: "0x" + hx,                # prefixed
        lambda hx: hx[:4] + "_" + hx[4:],    # int() accepts underscores
        lambda hx: " " + hx,                 # int() accepts padding
        lambda hx: "+" + hx,                 # int() accepts a sign
        lambda hx: hx[:-1] + "g",            # not hex at all
        lambda hx: "",
    ])
    def test_non_canonical_source_hex_never_matches(self, spelling):
        # leading zeros, so the unpadded spelling differs from the canonical
        source = ids.GUID(0xABC << 64)
        text = spelling(source.hex)
        assert text != source.hex
        probe = ContextEvent(TypeSpec("location", "topological", "bob"),
                             "L10.01", source, 1.0)
        assert not SourceFilter(text).matches(probe)
        assert SourceFilter(source.hex).matches(probe)

    def test_non_string_source_never_matches(self):
        assert not SourceFilter(GUID.value).matches(event())
        assert not SourceFilter(None).matches(event())

    def test_attribute_filter_on_attributes(self):
        assert AttributeFilter("floor", "==", 10).matches(event(floor=10))
        assert not AttributeFilter("floor", "==", 9).matches(event(floor=10))

    def test_attribute_filter_on_value(self):
        assert AttributeFilter("value", "==", "L10.01").matches(event())

    def test_attribute_filter_missing_key_no_match(self):
        assert not AttributeFilter("missing", "==", 1).matches(event())

    def test_attribute_filter_comparisons(self):
        hot = event(type_name="temperature", value=30.0)
        assert AttributeFilter("value", ">", 25.0).matches(hot)
        assert AttributeFilter("value", "<=", 30.0).matches(hot)
        assert not AttributeFilter("value", "<", 25.0).matches(hot)

    def test_attribute_filter_contains(self):
        assert AttributeFilter("value", "contains", "10").matches(event())

    def test_attribute_filter_type_error_is_no_match(self):
        assert not AttributeFilter("value", "<", 5).matches(event())  # str < int

    def test_unknown_operator_rejected(self):
        with pytest.raises(FilterError):
            AttributeFilter("value", "~=", 1)


class TestComposition:
    def test_and(self):
        both = TypeFilter("location") & SubjectFilter("bob")
        assert both.matches(event())
        assert not both.matches(event(subject="john"))

    def test_or(self):
        either = SubjectFilter("bob") | SubjectFilter("john")
        assert either.matches(event(subject="john"))
        assert not either.matches(event(subject="eve"))

    def test_not(self):
        negated = ~SubjectFilter("bob")
        assert not negated.matches(event())
        assert negated.matches(event(subject="john"))

    def test_empty_combinators_rejected(self):
        with pytest.raises(FilterError):
            AndFilter([])
        with pytest.raises(FilterError):
            OrFilter([])


class TestSpecRoundTrip:
    @pytest.mark.parametrize("build", [
        lambda: MatchAll(),
        lambda: TypeFilter("location", "topological"),
        lambda: SubjectFilter("bob"),
        lambda: SourceFilter(GUID.hex),
        lambda: AttributeFilter("value", ">=", 5),
        lambda: (TypeFilter("location") & SubjectFilter("bob")) | ~SourceFilter("ff"),
    ])
    def test_round_trip_preserves_matching(self, build):
        original = build()
        restored = filter_from_spec(original.to_spec())
        for sample in (event(), event(subject="john"),
                       event(type_name="temperature", value=7)):
            assert original.matches(sample) == restored.matches(sample)

    def test_malformed_spec_rejected(self):
        with pytest.raises(FilterError):
            filter_from_spec({"op": "bogus"})
        with pytest.raises(FilterError):
            filter_from_spec({})


class TestCanonicalForm:
    def test_and_order_insensitive(self):
        a = AndFilter([TypeFilter("location"), SubjectFilter("bob")])
        b = AndFilter([SubjectFilter("bob"), TypeFilter("location")])
        assert a.canonical_key() == b.canonical_key()
        assert a == b
        assert hash(a) == hash(b)

    def test_nested_same_op_flattens(self):
        nested = AndFilter([AndFilter([TypeFilter("location"),
                                       SubjectFilter("bob")]),
                            SourceFilter("ff")])
        flat = AndFilter([SourceFilter("ff"), SubjectFilter("bob"),
                          TypeFilter("location")])
        assert nested == flat

    def test_duplicate_children_collapse(self):
        doubled = OrFilter([SubjectFilter("bob"), SubjectFilter("bob")])
        assert doubled == SubjectFilter("bob")
        single = AndFilter([TypeFilter("location")])
        assert single == TypeFilter("location")

    def test_and_or_remain_distinct(self):
        parts = [TypeFilter("location"), SubjectFilter("bob")]
        assert AndFilter(parts) != OrFilter(parts)
        assert NotFilter(MatchAll()) != MatchAll()

    def test_scalar_constants_stay_type_distinct(self):
        assert (AttributeFilter("value", "==", 1)
                != AttributeFilter("value", "==", True))
        assert (AttributeFilter("value", "==", 1)
                != AttributeFilter("value", "==", "1"))
        # int/float compare equal as Python values but key differently
        assert (AttributeFilter("value", "==", 1).canonical_key()
                != AttributeFilter("value", "==", 1.0).canonical_key())

    def test_canonicalisation_preserves_matching(self):
        original = AndFilter([OrFilter([SubjectFilter("bob"),
                                        SubjectFilter("bob"),
                                        SubjectFilter("john")]),
                              TypeFilter("location")])
        rebuilt = filter_from_spec(original.canonical_spec())
        for sample in (event(), event(subject="john"), event(subject="eve"),
                       event(type_name="temperature")):
            assert original.matches(sample) == rebuilt.matches(sample)

    def test_wire_spec_keeps_construction_order(self):
        ordered = AndFilter([SubjectFilter("bob"), TypeFilter("location")])
        spec = ordered.to_spec()
        assert [part["op"] for part in spec["parts"]] == ["subject", "type"]
