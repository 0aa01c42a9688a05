"""Tests for the codec registry and document helpers."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.errors import ConfigurationError
from repro.util.serialization import (
    TYPE_KEY,
    CodecRegistry,
    canonical_json,
    deep_merge,
    document_size,
)


@dataclass
class Point:
    x: int
    y: int


def _make_registry() -> CodecRegistry:
    registry = CodecRegistry()
    registry.register(
        "point",
        Point,
        lambda p: {"x": p.x, "y": p.y},
        lambda d: Point(d["x"], d["y"]),
    )
    return registry


class TestCodecRegistry:
    def test_round_trip(self):
        registry = _make_registry()
        document = registry.encode(Point(1, 2))
        assert document[TYPE_KEY] == "point"
        assert registry.decode(document) == Point(1, 2)

    def test_duplicate_registration_rejected(self):
        registry = _make_registry()
        with pytest.raises(ConfigurationError):
            registry.register("point", Point, lambda p: {}, lambda d: None)

    def test_encode_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            _make_registry().encode(object())

    def test_decode_untagged_document_rejected(self):
        with pytest.raises(ConfigurationError):
            _make_registry().decode({"x": 1})

    def test_decode_unknown_tag_rejected(self):
        with pytest.raises(ConfigurationError):
            _make_registry().decode({TYPE_KEY: "mystery"})

    def test_registered_names_sorted(self):
        registry = _make_registry()
        assert registry.registered_names() == ["point"]


class TestDocumentHelpers:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_canonical_json_equality_is_structural(self):
        assert canonical_json({"a": [1, 2]}) == canonical_json({"a": [1, 2]})

    def test_document_size_is_bytes(self):
        assert document_size({}) == 2

    def test_deep_merge_overrides_scalars(self):
        assert deep_merge({"a": 1}, {"a": 2}) == {"a": 2}

    def test_deep_merge_recurses_into_dicts(self):
        base = {"ui": {"color": "red", "font": "mono"}}
        overlay = {"ui": {"color": "blue"}}
        assert deep_merge(base, overlay) == {"ui": {"color": "blue", "font": "mono"}}

    def test_deep_merge_does_not_mutate_inputs(self):
        base = {"a": {"b": 1}}
        deep_merge(base, {"a": {"b": 2}})
        assert base == {"a": {"b": 1}}


class _Opaque:
    """A non-JSON value; the canonical form falls back to ``str()``."""

    def __init__(self, tag: str) -> None:
        self.tag = tag

    def __str__(self) -> str:
        return f"opaque<{self.tag}>"


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(),  # includes non-ASCII and surrogate-free astral characters
    st.text().map(_Opaque),
)
_documents = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


class TestCanonicalEncoderParity:
    """The reused module-level encoder renders exactly what a fresh
    ``json.dumps`` with the canonical options renders."""

    @given(st.dictionaries(st.text(max_size=8), _documents, max_size=5))
    @settings(max_examples=200)
    def test_matches_json_dumps(self, document):
        expected = json.dumps(document, sort_keys=True, separators=(",", ":"), default=str)
        assert canonical_json(document) == expected
        assert document_size(document) == len(expected.encode("utf-8"))

    def test_non_ascii_size_counts_escaped_bytes(self):
        document = {"title": "Zürich — 東京 🎉"}
        expected = json.dumps(document, sort_keys=True, separators=(",", ":"))
        assert document_size(document) == len(expected.encode("utf-8"))
