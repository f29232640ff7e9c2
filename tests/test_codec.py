"""Codec round-trip property tests (FIXTURES.md F3 corpus)."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prom_tsdb_copyer_ray import codec
from prom_tsdb_copyer_ray.codec import (
    decode_chunk,
    decode_timestamps,
    decode_values,
    encode_chunk,
    encode_timestamps,
    encode_timestamps_many,
    encode_timestamps_scalar,
    encode_values,
    encode_values_many,
    encode_values_scalar,
)

BASE_MS = 1_704_067_200_000  # 2024-01-01T00:00:00Z


def roundtrip_ts(ts):
    ts = np.asarray(ts, dtype=np.int64)
    buf = encode_timestamps(ts)
    out = decode_timestamps(buf, len(ts))
    np.testing.assert_array_equal(out, ts)
    return buf


def roundtrip_vals(vals):
    vals = np.asarray(vals, dtype=np.float64)
    buf = encode_values(vals)
    out = decode_values(buf, len(vals))
    # bitwise equality (NaN payloads, -0.0)
    np.testing.assert_array_equal(out.view(np.uint64), vals.view(np.uint64))
    return buf


# --- F3 corpus cases -------------------------------------------------------

def test_empty():
    assert encode_timestamps(np.array([], dtype=np.int64)) == b""
    assert encode_values(np.array([], dtype=np.float64)) == b""
    assert len(decode_timestamps(b"", 0)) == 0
    assert len(decode_values(b"", 0)) == 0


def test_single_sample():
    roundtrip_ts([BASE_MS])
    roundtrip_vals([3.25])


def test_regular_cadence_compresses():
    # 15 s scrape cadence (README.md:62 scenario): after the first two deltas
    # every dod == 0 -> ~1 bit/sample
    ts = BASE_MS + 15_000 * np.arange(500, dtype=np.int64)
    buf = roundtrip_ts(ts)
    assert len(buf) < 8 + 4 + 500 // 8 + 8  # ~first + delta + 1bit/sample


def test_constant_values_compress():
    vals = np.full(500, 42.5)
    buf = roundtrip_vals(vals)
    assert len(buf) < 8 + 500 // 8 + 8


def test_irregular_cadence():
    rng = np.random.RandomState(7)
    deltas = rng.randint(1, 300_000, size=400)
    ts = BASE_MS + np.cumsum(deltas)
    roundtrip_ts(ts.astype(np.int64))


def test_large_deltas():
    roundtrip_ts([0, 1, 2**40, 2**40 + 5, 2**41])


def test_negative_and_zero_ts():
    roundtrip_ts([-1000, -5, 0, 3, 1000])


def test_special_floats():
    roundtrip_vals([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, -1e300])
    # NaN with a payload
    payload_nan = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64)
    roundtrip_vals(np.concatenate([payload_nan, np.array([1.0]), payload_nan]))


def test_ramp_and_split_boundary():
    ts = BASE_MS + 60_000 * np.arange(121, dtype=np.int64)
    vals = np.linspace(0, 1, 121)
    tb, vb = encode_chunk(ts, vals)
    t2, v2 = decode_chunk(tb, vb, 121)
    np.testing.assert_array_equal(t2, ts)
    np.testing.assert_array_equal(v2.view(np.uint64), vals.view(np.uint64))


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        encode_chunk(np.array([1, 2]), np.array([1.0]))


# --- vectorized batch encoders vs scalar reference -------------------------

def test_vectorized_ts_bit_identical_to_scalar():
    rng = np.random.RandomState(3)
    chunks = [
        np.array([], np.int64),
        np.array([BASE_MS], np.int64),
        BASE_MS + 15_000 * np.arange(100, dtype=np.int64),
        np.sort(rng.randint(-(10**6), 10**15, 37)).astype(np.int64),
        np.array([0, 1, 2**40, 2**40 + 5, 2**41], np.int64),
    ]
    concat = np.concatenate(chunks)
    offs = np.cumsum([0] + [len(c) for c in chunks])
    outs = encode_timestamps_many(concat, offs).to_pylist()
    for c, o in zip(chunks, outs):
        assert o == encode_timestamps_scalar(c)
        np.testing.assert_array_equal(decode_timestamps(o, len(c)), c)


def test_vectorized_values_roundtrip_and_decoder_compat():
    """Chunk-global-window streams decode with the same decoder that reads
    the scalar adaptive-window streams (both valid format instances)."""
    rng = np.random.RandomState(4)
    specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, -1e300])
    chunks = [
        np.array([], np.float64),
        np.full(50, 42.5),
        rng.randn(64),
        specials[rng.randint(0, 7, 33)],
        np.where(rng.rand(40) < 0.5, 2.0, rng.randn(40)),
    ]
    concat = np.concatenate(chunks)
    offs = np.cumsum([0] + [len(c) for c in chunks])
    for c, o in zip(chunks, encode_values_many(concat, offs).to_pylist()):
        np.testing.assert_array_equal(
            decode_values(o, len(c)).view(np.uint64), c.view(np.uint64)
        )
        # scalar stream of the same data decodes too (shared decoder)
        sb = encode_values_scalar(c)
        np.testing.assert_array_equal(
            decode_values(sb, len(c)).view(np.uint64), c.view(np.uint64)
        )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-(2**52), max_value=2**52), min_size=0, max_size=40),
        min_size=1,
        max_size=8,
    )
)
def test_many_ts_property_matches_scalar(chunk_deltas):
    chunks = [np.cumsum(np.asarray([BASE_MS] + d, dtype=np.int64)) for d in chunk_deltas]
    concat = np.concatenate(chunks)
    offs = np.cumsum([0] + [len(c) for c in chunks])
    for c, o in zip(chunks, encode_timestamps_many(concat, offs).to_pylist()):
        assert o == encode_timestamps_scalar(c)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), min_size=0, max_size=40),
        min_size=1,
        max_size=8,
    )
)
def test_many_values_property_roundtrip(chunk_vals):
    chunks = [np.asarray(v, dtype=np.float64) for v in chunk_vals]
    concat = np.concatenate(chunks) if chunks else np.empty(0)
    offs = np.cumsum([0] + [len(c) for c in chunks])
    for c, o in zip(chunks, encode_values_many(concat, offs).to_pylist()):
        np.testing.assert_array_equal(
            decode_values(o, len(c)).view(np.uint64), c.view(np.uint64)
        )


# --- hypothesis properties -------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-(2**52), max_value=2**52),
        min_size=0,
        max_size=300,
    )
)
def test_ts_roundtrip_property(deltas):
    ts = np.cumsum(np.asarray([BASE_MS] + deltas, dtype=np.int64))
    roundtrip_ts(ts)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        min_size=0,
        max_size=300,
    )
)
def test_vals_roundtrip_property(vals):
    roundtrip_vals(np.asarray(vals, dtype=np.float64))


# --- word-packed Arrow output ----------------------------------------------

def test_many_returns_binary_arrays_single_returns_bytes():
    from prom_tsdb_copyer_ray.stages.histograms import encode_hist_buckets_many

    ts = BASE_MS + 15_000 * np.arange(10, dtype=np.int64)
    offs = np.array([0, 0, 4, 10])
    for arr in (encode_timestamps_many(ts, offs), encode_values_many(ts * 0.5, offs),
                encode_hist_buckets_many(ts.astype(np.float64), offs, "histogram"),
                encode_hist_buckets_many(ts * 0.5, offs, "float_histogram")):
        assert isinstance(arr, pa.BinaryArray) and len(arr) == 3
        assert arr[0].as_py() == b""
    assert encode_timestamps_many(ts[:0], np.array([0, 0])).to_pylist() == [b""]
    assert encode_values_many(ts[:0] * 0.5, np.array([0])).to_pylist() == []
    assert isinstance(encode_timestamps(ts), bytes)
    assert isinstance(encode_values(ts * 0.5), bytes)


def test_binary_offsets_overflow_is_an_error(monkeypatch):
    """The int32 offsets of a binary array never wrap silently: more encoded
    bytes than the limit raise instead."""
    ts = BASE_MS + 15_000 * np.arange(100, dtype=np.int64)
    offs = np.array([0, 50, 100])
    total = sum(map(len, encode_timestamps_many(ts, offs).to_pylist()))
    monkeypatch.setattr(codec, "MAX_BINARY_BYTES", total - 1)
    with pytest.raises(OverflowError):
        encode_timestamps_many(ts, offs)
    with pytest.raises(OverflowError):
        encode_values_many(np.arange(100, dtype=np.float64), offs)
    monkeypatch.setattr(codec, "MAX_BINARY_BYTES", total)
    assert len(encode_timestamps_many(ts, offs)) == 2


_U64 = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def _windowed_chunk(draw):
    """float64 chunk whose FIRST XOR sets the widest meaningful-bit window
    (its top and bottom bits set) and whose later XORs fit inside it: the
    scalar adaptive-window encoder then reuses that window throughout, so it
    emits the same bits as the chunk-global-window batch encoder."""
    n = draw(st.integers(min_value=0, max_value=12))
    lead = draw(st.integers(min_value=0, max_value=31))
    trail = draw(st.integers(min_value=0, max_value=63 - lead))
    sig = 64 - lead - trail
    mask = (1 << sig) - 1
    first = ((draw(_U64) & mask) | 1 | (1 << (sig - 1))) << trail
    words = [draw(_U64), first] + [
        (draw(_U64) & mask) << trail if draw(st.booleans()) else 0 for _ in range(n)]
    out, cur = [], 0
    for w in words[: draw(st.integers(min_value=0, max_value=len(words)))]:
        cur ^= w
        out.append(cur)
    return np.array(out, dtype=np.uint64).view(np.float64)


@settings(max_examples=150, deadline=None)
@given(st.lists(_windowed_chunk(), min_size=1, max_size=10))
def test_many_values_match_scalar_across_words(chunks):
    """Word packing vs the scalar oracle: raw 64-bit first values, 13 + 64-bit
    headers (a full-width window) and fields at every bit offset, so many
    cross a 64-bit word boundary."""
    concat = np.concatenate(chunks)
    offs = np.cumsum([0] + [len(c) for c in chunks])
    got = encode_values_many(concat, offs).to_pylist()
    assert got == [encode_values_scalar(c) for c in chunks]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-(2**60), max_value=2**60), max_size=20),
                min_size=1, max_size=10))
def test_many_ts_match_scalar_with_64_bit_fields(chunk_ts):
    """Timestamps anywhere in +-2**60: most delta-of-deltas take the '1111' +
    64-bit form, so 64-bit fields land at arbitrary offsets across words."""
    chunks = [np.sort(np.asarray(c, dtype=np.int64)) for c in chunk_ts]
    concat = np.concatenate(chunks)
    offs = np.cumsum([0] + [len(c) for c in chunks])
    got = encode_timestamps_many(concat, offs).to_pylist()
    assert got == [encode_timestamps_scalar(c) for c in chunks]
