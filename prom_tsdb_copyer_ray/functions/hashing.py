"""Deterministic hashing primitives: shingles, rolling hashes, MinHash, SimHash.

All hashes are deterministic across processes/nodes (no Python ``hash()``,
no ``PYTHONHASHSEED`` dependence): byte-level polynomial rolling hashes with
uint64 wraparound arithmetic, vectorized with NumPy.  These feed the
dedup/similarity stages (stages/dedup.py), which are part of the engine's
training-data-pipeline surface (exact dedup, MinHash+LSH, SimHash, n-gram
Jaccard).
"""

from __future__ import annotations

import hashlib

import numpy as np

_B = np.uint64(1000003)  # polynomial base (odd -> invertible mod 2^64)
_INV_B = np.uint64(pow(1000003, -1, 2**64))
_SEED = np.uint64(0x9E3779B97F4A7C15)


def stable_hash64(data: bytes | str) -> int:
    """Deterministic 64-bit hash of bytes/str (blake2b-8)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def char_ngram_hashes(text: str, n: int = 5) -> np.ndarray:
    """uint64 rolling hashes of all char n-grams (UTF-8 byte level), vectorized.

    Karp–Rabin polynomial hash with natural uint64 wraparound; O(len) via a
    sliding-window recurrence.  Short texts (< n bytes) hash as one window.
    """
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    if len(b) == 0:
        return np.empty(0, dtype=np.uint64)
    if len(b) <= n:
        h = np.uint64(0)
        with np.errstate(over="ignore"):
            for x in b:
                h = h * _B + x + _SEED
        return np.array([h], dtype=np.uint64)
    with np.errstate(over="ignore"):
        # prefix[i] = hash of b[:i] = sum_{j<i} (b[j]+SEED) * B^(i-1-j), all
        # mod 2^64 (wraparound).  B is odd, hence invertible mod 2^64, so the
        # scan vectorizes: prefix[i] = B^(i-1) * cumsum((b[j]+SEED) * B^-j).
        m = len(b)
        powers = np.empty(m + 1, dtype=np.uint64)
        powers[0] = np.uint64(1)
        np.multiply.accumulate(np.full(m, _B, dtype=np.uint64), out=powers[1:])
        inv_powers = np.empty(m, dtype=np.uint64)
        inv_powers[0] = np.uint64(1)
        np.multiply.accumulate(np.full(m - 1, _INV_B, dtype=np.uint64), out=inv_powers[1:])
        scaled = (b + _SEED) * inv_powers
        csum = np.cumsum(scaled, dtype=np.uint64)
        prefix = np.empty(m + 1, dtype=np.uint64)
        prefix[0] = np.uint64(0)
        prefix[1:] = csum * powers[:m]
        # hash(window starting at i, length n) = prefix[i+n] - prefix[i] * B^n
        return prefix[n:] - prefix[:-n] * powers[n]


def word_ngram_hashes(text: str, n: int = 3) -> np.ndarray:
    """uint64 hashes of word n-grams (whitespace tokens)."""
    words = text.split()
    if not words:
        return np.empty(0, dtype=np.uint64)
    if len(words) < n:
        grams = [" ".join(words)]
    else:
        grams = [" ".join(words[i : i + n]) for i in range(len(words) - n + 1)]
    return np.array([stable_hash64(g) for g in grams], dtype=np.uint64)


class MinHasher:
    """k-permutation MinHash over uint64 shingle hashes (vectorized).

    sig_i = min over shingles s of (a_i * h(s) + b_i) in uint64 wraparound.
    Stateful-stage material: build once per actor, reuse per batch.
    """

    def __init__(self, num_perm: int = 128, seed: int = 7) -> None:
        rng = np.random.RandomState(seed)
        # odd multipliers -> bijective maps mod 2^64
        self.a = (rng.randint(1, 2**62, size=num_perm).astype(np.uint64) << np.uint64(1)) | np.uint64(1)
        self.b = rng.randint(0, 2**62, size=num_perm).astype(np.uint64)
        self.num_perm = num_perm

    def signature(self, shingle_hashes: np.ndarray) -> np.ndarray:
        if len(shingle_hashes) == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        with np.errstate(over="ignore"):
            m = shingle_hashes[:, None] * self.a[None, :] + self.b[None, :]
        return m.min(axis=0)

    # NOTE: a whole-batch signature matrix via minimum.reduceat was tried and
    # measured 2-40x SLOWER than the per-doc loop (reduceat over axis 0 is
    # strided; even the contiguous-axis variant loses to the cache-resident
    # per-doc (n_shingles x num_perm) blocks).  The per-doc numpy loop IS the
    # vectorized form here.

    def band_hashes(self, sig: np.ndarray, num_bands: int) -> list[int]:
        """LSH band keys: blake2b over each band's bytes (rows = k/bands)."""
        r = self.num_perm // num_bands
        return [
            stable_hash64(sig[band * r : (band + 1) * r].tobytes())
            for band in range(num_bands)
        ]


def simhash64(shingle_hashes: np.ndarray) -> int:
    """64-bit SimHash: sign of per-bit vote sums over shingle hashes."""
    if len(shingle_hashes) == 0:
        return 0
    bits = np.unpackbits(shingle_hashes.view(np.uint8).reshape(-1, 8)[:, ::-1], axis=1)
    votes = bits.sum(axis=0, dtype=np.int64) * 2 - len(shingle_hashes)  # (+1/-1 vote sums)
    out = 0
    for j in range(64):
        if votes[j] > 0:
            out |= 1 << (63 - j)
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard of two uint64 shingle-hash sets."""
    sa, sb = np.unique(a), np.unique(b)
    if len(sa) == 0 and len(sb) == 0:
        return 1.0
    inter = len(np.intersect1d(sa, sb, assume_unique=True))
    return inter / (len(sa) + len(sb) - inter)


_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (8-bit LUT; numpy<2 has no
    ``bitwise_count``).  Returns int64 counts."""
    x = np.ascontiguousarray(x, dtype=np.uint64)
    return _POPCOUNT8[x.view(np.uint8)].reshape(len(x), 8).sum(axis=1).astype(np.int64)


def poly_hash_column(col, fold63: bool = True) -> np.ndarray:
    """Vectorized :func:`text_fingerprint` over an Arrow string column.

    Hashes every row of a string/large_string column in O(total_bytes) NumPy
    work directly on the column's contiguous UTF-8 data buffer — no per-row
    Python.  Returns uint64 (or 63-bit-folded, matching ``text_fingerprint``)
    hashes; nulls hash as "".

    Identity: for every row, ``poly_hash_column(col)[i] ==
    text_fingerprint(col[i])`` (prefix-hash window formula over the shared
    buffer equals the standalone Horner evaluation).

    Note on dedup use: any 64-bit hash (this one or blake2b-8) sees birthday
    collisions around ~2^32 distinct documents, so exact-dedup keys pair this
    with a cheap independent discriminator (byte length) — see
    ``stages/dedup.exact_dedup``.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    if not pa.types.is_large_string(col.type) and not pa.types.is_large_binary(col.type):
        col = pc.cast(col, pa.large_string())
        if isinstance(col, pa.ChunkedArray):  # cast may re-chunk
            col = col.combine_chunks()
    n = len(col)
    off0 = col.offset
    offsets = np.frombuffer(col.buffers()[1], dtype=np.int64)[off0 : off0 + n + 1]
    data_buf = col.buffers()[2]
    data = (
        np.frombuffer(data_buf, dtype=np.uint8)
        if data_buf is not None
        else np.empty(0, dtype=np.uint8)
    )
    s0 = int(offsets[0]) if n else 0
    e0 = int(offsets[-1]) if n else 0
    b = data[s0:e0].astype(np.uint64)
    offs = (offsets - s0).astype(np.int64)
    h = poly_hash_windows(b, offs)
    if fold63:
        h = h & np.uint64((1 << 63) - 1)
    return h


def poly_hash_windows(vals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """uint64 polynomial hash of each window ``vals[offsets[i]:offsets[i+1]]``.

    Vectorized prefix-hash trick (invertible odd base mod 2^64): one cumsum
    over all values, then per-window hash = prefix[end] - prefix[start] *
    B^len.  ``vals`` is any array castable to uint64; ``offsets`` has
    ``n_windows + 1`` entries."""
    vals = np.ascontiguousarray(vals, dtype=np.uint64)
    offsets = np.asarray(offsets, dtype=np.int64)
    m = len(vals)
    with np.errstate(over="ignore"):
        powers = np.empty(m + 1, dtype=np.uint64)
        powers[0] = np.uint64(1)
        if m:
            np.multiply.accumulate(np.full(m, _B, dtype=np.uint64), out=powers[1:])
        prefix = np.empty(m + 1, dtype=np.uint64)
        prefix[0] = np.uint64(0)
        if m:
            inv_powers = np.empty(m, dtype=np.uint64)
            inv_powers[0] = np.uint64(1)
            if m > 1:
                np.multiply.accumulate(
                    np.full(m - 1, _INV_B, dtype=np.uint64), out=inv_powers[1:]
                )
            prefix[1:] = np.cumsum((vals + _SEED) * inv_powers, dtype=np.uint64) * powers[:m]
        starts, ends = offsets[:-1], offsets[1:]
        return prefix[ends] - prefix[starts] * powers[ends - starts]


def text_fingerprint(text: str) -> int:
    """Rolling-hash document fingerprint -> int64 (stable, order-sensitive).

    Full-document Karp–Rabin polynomial hash folded to 63 bits (non-negative
    int64 so it round-trips through Arrow/DuckDB BIGINT).
    """
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    m = len(b)
    if m == 0:
        return 0
    with np.errstate(over="ignore"):
        inv_powers = np.empty(m, dtype=np.uint64)
        inv_powers[0] = np.uint64(1)
        if m > 1:
            np.multiply.accumulate(np.full(m - 1, _INV_B, dtype=np.uint64), out=inv_powers[1:])
        acc = np.uint64(np.sum((b + _SEED) * inv_powers, dtype=np.uint64))
        power = np.uint64(1)
        base = _B
        e = m - 1
        while e:  # B^(m-1) by square-and-multiply (wraparound)
            if e & 1:
                power = power * base
            base = base * base
            e >>= 1
        acc = acc * power
    return int(acc & np.uint64((1 << 63) - 1))


def _spread_bits2(x: np.ndarray) -> np.ndarray:
    """Spread the low 31 bits of x so bit i lands at position 2i (the
    classic magic-number Morton dilation; mirrors the SQL oracle's
    shift/mask sequence literally)."""
    x = x.astype(np.uint64) & np.uint64(0x7FFFFFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def morton2d(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Z-order (Morton) interleave of two 31-bit non-negative ints —
    the lakehouse Z-ORDER layout key: sorting by it clusters BOTH
    dimensions, so per-file min/max zone maps prune on either column.
    Returns int64 (<= 62 bits set)."""
    m = _spread_bits2(np.asarray(x)) | (_spread_bits2(np.asarray(y)) << np.uint64(1))
    return m.astype(np.int64)
