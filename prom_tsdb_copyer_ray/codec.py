"""Chunk codecs: delta-of-delta timestamps + Gorilla XOR float values.

Built from scratch on the published scheme of the Gorilla paper (Pelkonen et
al., "Gorilla: A Fast, Scalable, In-Memory Time Series Database", VLDB 2015),
which is also what the reference engine delegates to its storage library for
(chunk encoding behind ``tsdb.NewBlockWriter`` / ``chunkenc``, reference
``copyer.go:82,157`` and ``compact.go:20``).  The bit-level layout here is our
own (this engine is block-format-free; chunks live as ``binary`` columns in
Parquet), but follows the same ideas:

Timestamps (``encode_timestamps``): first timestamp raw 64-bit; every later
sample stores the delta-of-delta (``dod``) of millisecond timestamps with a
prefix-coded bucket ladder::

    dod == 0                 -> '0'
    fits in 14 bits signed   -> '10'   + 14-bit two's complement
    fits in 17 bits signed   -> '110'  + 17-bit two's complement
    fits in 20 bits signed   -> '1110' + 20-bit two's complement
    else                     -> '1111' + 64-bit two's complement

(The second sample's "previous delta" is defined as 0, so its delta is encoded
through the same ladder.)

Values (``encode_values``): first value raw 64-bit IEEE754; every later value
XORs with the previous:

    xor == 0                                    -> '0'
    leading/trailing zeros fit previous window  -> '10' + meaningful bits
    else -> '11' + 5-bit leading-zero count (capped at 31)
                 + 6-bit meaningful-bit count (64 encoded as 0)
                 + meaningful bits

Round-trip is exact (bit-for-bit, including NaN payloads, +/-Inf and -0.0).
The sample count is NOT stored in the byte stream; callers persist it in the
``n_samples`` column of the chunk schema (SURVEY.md §1.2).

Encoding is **batch-vectorized** (:func:`encode_timestamps_many` /
:func:`encode_values_many`): all chunks of a rollup group are encoded in ONE
NumPy pass — classification, bit-offset computation and packing are array
ops over the concatenated samples; no per-sample (or even per-chunk) Python
arithmetic.  Packing is word-level: each field is shifted into place in a
``uint64`` word and OR-ed in (``np.bitwise_or.at``); a field that crosses a
word boundary spills its low bits into the next word; one big-endian
``astype`` then yields the MSB-first byte stream.  Chunks start byte-aligned,
so the stream plus the chunk byte offsets IS an Arrow ``binary`` array:
the batch encoders return a ``pa.BinaryArray`` built on those two buffers
(``pa.Array.from_buffers``), with no per-chunk Python ``bytes``.

Value-stream layout note: the vectorized encoder uses ONE XOR window per
chunk (min leading / min trailing over the chunk's nonzero XORs, emitted as
a single '11' header; later changed values use the '10' reuse code) instead
of the sample-adaptive window of the scalar encoder.  Both are valid
instances of the same format — :func:`decode_values` decodes either — the
chunk-global window is simply what a data-parallel encoder can emit in one
pass (the tradeoff is a few bits/sample on streams whose magnitude drifts
within one chunk).  Timestamp bytes are bit-identical to the scalar
encoder's (pytest cross-checks).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_MASK64 = (1 << 64) - 1


class BitWriter:
    """Append-only MSB-first bit stream over a bytearray."""

    __slots__ = ("out", "acc", "nbits")

    def __init__(self) -> None:
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, bits: int) -> None:
        # value must already fit in `bits` (unsigned)
        self.acc = (self.acc << bits) | value
        self.nbits += bits
        while self.nbits >= 8:
            self.nbits -= 8
            self.out.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def getvalue(self) -> bytes:
        if self.nbits:
            # pad final partial byte with zero bits on the right
            return bytes(self.out) + bytes([(self.acc << (8 - self.nbits)) & 0xFF])
        return bytes(self.out)


class BitReader:
    """MSB-first bit reader mirroring :class:`BitWriter`.  A read past the
    end of the buffer (a truncated chunk) raises ``ValueError``."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf) -> None:
        # an element of an encode_*_many array reads as its bytes
        self.buf = buf.as_py() if isinstance(buf, pa.Scalar) else buf
        self.pos = 0  # bit position

    def read(self, bits: int) -> int:
        pos = self.pos
        end = pos + bits
        if end > len(self.buf) * 8:
            raise ValueError(
                f"read of {bits} bits at bit {pos} runs past the end of a "
                f"{len(self.buf)}-byte buffer")
        first_byte = pos >> 3
        last_byte = (end + 7) >> 3
        chunk = int.from_bytes(self.buf[first_byte:last_byte], "big")
        total_bits = (last_byte - first_byte) * 8
        chunk >>= total_bits - (end - first_byte * 8)
        self.pos = end
        return chunk & ((1 << bits) - 1)


def _to_signed(value: int, bits: int) -> int:
    if value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


_DOD_LADDER = (
    # (control value, control bits, payload bits)
    (0b10, 2, 14),
    (0b110, 3, 17),
    (0b1110, 4, 20),
)


def encode_timestamps_scalar(ts: np.ndarray) -> bytes:
    """Scalar reference implementation of the timestamp encoder (BitWriter
    loop).  Kept as the cross-check oracle for the vectorized
    :func:`encode_timestamps_many` (bit-identical output, pytest-verified)."""
    ts = np.asarray(ts, dtype=np.int64)
    n = len(ts)
    w = BitWriter()
    if n == 0:
        return b""
    vals = ts.tolist()
    w.write(vals[0] & _MASK64, 64)
    prev = vals[0]
    prev_delta = 0
    for t in vals[1:]:
        delta = t - prev
        dod = delta - prev_delta
        prev = t
        prev_delta = delta
        if dod == 0:
            w.write(0, 1)
            continue
        for ctrl, cbits, pbits in _DOD_LADDER:
            lo = -(1 << (pbits - 1))
            hi = (1 << (pbits - 1)) - 1
            if lo <= dod <= hi:
                w.write(ctrl, cbits)
                w.write(dod & ((1 << pbits) - 1), pbits)
                break
        else:
            w.write(0b1111, 4)
            w.write(dod & _MASK64, 64)
    return w.getvalue()


def decode_timestamps(buf: bytes, n: int) -> np.ndarray:
    """Inverse of :func:`encode_timestamps`; ``n`` from the n_samples column."""
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    r = BitReader(buf)
    first = _to_signed(r.read(64), 64)
    out[0] = first
    prev = first
    prev_delta = 0
    for i in range(1, n):
        if r.read(1) == 0:
            dod = 0
        else:
            if r.read(1) == 0:  # '10'
                dod = _to_signed(r.read(14), 14)
            elif r.read(1) == 0:  # '110'
                dod = _to_signed(r.read(17), 17)
            elif r.read(1) == 0:  # '1110'
                dod = _to_signed(r.read(20), 20)
            else:  # '1111'
                dod = _to_signed(r.read(64), 64)
        prev_delta += dod
        prev += prev_delta
        out[i] = prev
    return out


def encode_values_scalar(values: np.ndarray) -> bytes:
    """Scalar adaptive-window value encoder (BitWriter loop).  Kept as a
    format reference and decoder-compat test case; production encoding is
    the vectorized chunk-global-window :func:`encode_values_many`."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    w = BitWriter()
    if n == 0:
        return b""
    bits = values.view(np.uint64).tolist()
    w.write(bits[0], 64)
    prev = bits[0]
    prev_leading = 0xFF  # sentinel: no previous window yet
    prev_sigbits = 0
    for cur in bits[1:]:
        xor = prev ^ cur
        prev = cur
        if xor == 0:
            w.write(0, 1)
            continue
        leading = 64 - xor.bit_length()
        if leading > 31:
            leading = 31
        trailing = (xor & -xor).bit_length() - 1
        sigbits = 64 - leading - trailing
        if (
            prev_leading != 0xFF
            and leading >= prev_leading
            and trailing >= 64 - prev_leading - prev_sigbits
        ):
            # '10': reuse previous meaningful-bit window
            w.write(0b10, 2)
            prev_trailing = 64 - prev_leading - prev_sigbits
            w.write((xor >> prev_trailing) & ((1 << prev_sigbits) - 1), prev_sigbits)
        else:
            # '11': new window
            w.write(0b11, 2)
            w.write(leading, 5)
            w.write(sigbits & 0x3F, 6)  # 64 encoded as 0
            w.write(xor >> trailing, sigbits)
            prev_leading = leading
            prev_sigbits = sigbits
    return w.getvalue()


def decode_values(buf: bytes, n: int) -> np.ndarray:
    """Inverse of :func:`encode_values`."""
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return out.view(np.float64)
    r = BitReader(buf)
    prev = r.read(64)
    out[0] = prev
    leading = 0
    sigbits = 0
    for i in range(1, n):
        if r.read(1) == 0:
            out[i] = prev
            continue
        if r.read(1) == 1:  # '11' new window
            leading = r.read(5)
            sigbits = r.read(6)
            if sigbits == 0:
                sigbits = 64
        trailing = 64 - leading - sigbits
        xor = r.read(sigbits) << trailing
        prev ^= xor
        out[i] = prev
    return out.view(np.float64)


# ---------------------------------------------------------------------------
# Vectorized batch encoders
# ---------------------------------------------------------------------------

_U1 = np.uint64(1)


def bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized bit_length of uint64 (0 -> 0): MSB-smear then popcount."""
    from .functions.hashing import popcount64

    y = x.astype(np.uint64, copy=True)
    for s in (1, 2, 4, 8, 16, 32):
        y |= y >> np.uint64(s)
    return popcount64(y)


def trailing_zeros_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized count-trailing-zeros of uint64 (0 -> 64)."""
    from .functions.hashing import popcount64

    x = x.astype(np.uint64, copy=False)
    with np.errstate(over="ignore"):
        low = x & (np.uint64(0) - x)  # isolate lowest set bit (two's compl.)
    return np.where(x == 0, 64, popcount64(low - _U1)).astype(np.int64)


def _pack_fields(vals: np.ndarray, nbits: np.ndarray, offs: np.ndarray,
                 total_bits: int) -> np.ndarray:
    """The ``total_bits // 8``-byte stream holding the ``nbits[i]`` low bits
    of ``vals[i]`` MSB-first at bit offset ``offs[i]``; bits no field covers
    are 0 (1-bit zero codes are dropped by callers for that reason).

    Word-level: field i lands in ``uint64`` word ``offs[i] // 64``, shifted
    so it ends at bit ``(offs[i] % 64) + nbits[i]``; a field that ends past
    the word (``nbits <= 64``, so at most one boundary) spills its low bits
    into the next word.  Fields never overlap, so OR-ing every piece in
    (``np.bitwise_or.at``, which handles repeated word indices) builds the
    stream; the big-endian ``astype`` puts each word's MSB first in memory.
    """
    n_words = (total_bits + 63) // 64
    words = np.zeros(n_words + 1, dtype=np.uint64)  # +1: the last spill
    word = offs >> 6
    shift = 64 - (offs & 63) - nbits  # < 0: the field spills
    spill = shift < 0
    head = np.where(spill, vals >> np.maximum(-shift, 0).astype(np.uint64),
                    vals << np.maximum(shift, 0).astype(np.uint64))
    np.bitwise_or.at(words, word, head)
    np.bitwise_or.at(words, word[spill] + 1, vals[spill] << (64 + shift[spill]).astype(np.uint64))
    return words[:n_words].astype(">u8").view(np.uint8)[: total_bits // 8]


# pa.binary() offsets are int32: one array holds at most this many bytes
MAX_BINARY_BYTES = 2**31 - 1


def _binary_array(data: np.ndarray, chunk_byte_off: np.ndarray) -> pa.BinaryArray:
    """Chunk ``c`` = ``data[chunk_byte_off[c]:chunk_byte_off[c+1]]``, as one
    ``pa.BinaryArray`` over ``data`` (no copy per chunk).  Raises
    ``OverflowError`` rather than let the int32 offsets wrap."""
    if chunk_byte_off[-1] > MAX_BINARY_BYTES:
        raise OverflowError(
            f"{int(chunk_byte_off[-1])} encoded bytes exceed the {MAX_BINARY_BYTES}-byte "
            "int32 offsets of a binary array; encode fewer chunks per call")
    return pa.Array.from_buffers(
        pa.binary(), len(chunk_byte_off) - 1,
        [None, pa.py_buffer(chunk_byte_off.astype(np.int32)), pa.py_buffer(data)])


def _chunk_layout(lens: np.ndarray, starts: np.ndarray, counts: np.ndarray):
    """Per-position global bit offsets with byte-aligned chunk starts.

    ``lens[p]`` is the bit length of position p's field(s); returns
    (pos_off, chunk_byte_off) where chunk c's bytes live at
    ``[chunk_byte_off[c], chunk_byte_off[c+1])`` in the packed stream."""
    prefix = np.concatenate([[0], np.cumsum(lens)])  # exclusive prefix
    chunk_bits = prefix[starts + counts] - prefix[starts]
    padded = (chunk_bits + 7) // 8 * 8
    chunk_bit_off = np.concatenate([[0], np.cumsum(padded)])
    chunk_idx = np.repeat(np.arange(len(starts), dtype=np.int64), counts)
    pos_off = chunk_bit_off[chunk_idx] + (prefix[:-1] - prefix[starts][chunk_idx])
    return pos_off, (chunk_bit_off // 8).astype(np.int64), int(chunk_bit_off[-1])


def encode_timestamps_many(ts: np.ndarray, offsets: np.ndarray) -> pa.BinaryArray:
    """Encode MANY timestamp chunks in one vectorized pass.

    ``ts`` is the concatenation of all chunks' int64 ms timestamps (each
    chunk sorted); ``offsets`` (n_chunks + 1) delimits chunks.  Returns a
    ``pa.BinaryArray`` with one element per chunk, each bit-identical to
    :func:`encode_timestamps_scalar`.
    """
    ts = np.asarray(ts, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(ts)
    starts, counts = offsets[:-1], (offsets[1:] - offsets[:-1])
    if n == 0:
        return _binary_array(np.empty(0, np.uint8), np.zeros(len(offsets), np.int64))
    is_first = np.zeros(n, dtype=bool)
    is_first[starts[counts > 0]] = True

    # dod per position (invalid at chunk firsts, fixed at second positions)
    dod = np.zeros(n, dtype=np.int64)
    if n > 1:
        deltas = ts[1:] - ts[:-1]
        dod[1:] = deltas
        dod[2:] -= deltas[:-1]
        second = starts[counts > 1] + 1
        dod[second] = ts[second] - ts[second - 1]

    # classification: 0 -> '0'; 1..3 ladder; 4 -> '1111'+64
    cls = np.full(n, 4, dtype=np.int8)
    for k, (_ctrl, _cbits, pbits) in enumerate(_DOD_LADDER[::-1]):
        lo, hi = -(1 << (pbits - 1)), (1 << (pbits - 1)) - 1
        cls[(dod >= lo) & (dod <= hi)] = len(_DOD_LADDER) - k
    cls[dod == 0] = 0
    cls[is_first] = -1

    CLS_BITS = np.array([64, 1, 16, 20, 24, 68], dtype=np.int64)  # [-1]=first
    lens = CLS_BITS[cls + 1]
    pos_off, chunk_byte_off, total_bits = _chunk_layout(lens, starts, counts)

    dod_u = dod.astype(np.uint64)

    f_vals, f_bits, f_offs = [], [], []
    f_vals.append(ts[is_first].view(np.uint64))
    f_bits.append(np.full(int(is_first.sum()), 64, dtype=np.int64))
    f_offs.append(pos_off[is_first])
    # cls == 0 emits a single '0' bit — already zero in the pre-zeroed array
    for k, (ctrl, cbits, pbits) in enumerate(_DOD_LADDER, start=1):
        mk = cls == k
        code = (np.uint64(ctrl) << np.uint64(pbits)) | (
            dod_u[mk] & np.uint64((1 << pbits) - 1)
        )
        f_vals.append(code)
        f_bits.append(np.full(int(mk.sum()), cbits + pbits, dtype=np.int64))
        f_offs.append(pos_off[mk])
    m4 = cls == 4
    n4 = int(m4.sum())
    f_vals.append(np.full(n4, 0b1111, dtype=np.uint64))
    f_bits.append(np.full(n4, 4, dtype=np.int64))
    f_offs.append(pos_off[m4])
    f_vals.append(dod_u[m4])
    f_bits.append(np.full(n4, 64, dtype=np.int64))
    f_offs.append(pos_off[m4] + 4)

    data = _pack_fields(np.concatenate(f_vals), np.concatenate(f_bits),
                        np.concatenate(f_offs), total_bits)
    return _binary_array(data, chunk_byte_off)


def encode_values_many(values: np.ndarray, offsets: np.ndarray) -> pa.BinaryArray:
    """Encode MANY float64 value chunks in one vectorized pass.

    Chunk-global XOR window (see module docstring): one '11' header per
    chunk carrying (min leading, 64 - min leading - min trailing over the
    chunk's nonzero XORs); later changed values emit '10' + window bits;
    unchanged values emit '0'.  Decodable by :func:`decode_values`
    unmodified; round-trip is bit-exact.  Returns a ``pa.BinaryArray``, one
    element per chunk.
    """
    values = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(values)
    starts, counts = offsets[:-1], (offsets[1:] - offsets[:-1])
    if n == 0:
        return _binary_array(np.empty(0, np.uint8), np.zeros(len(offsets), np.int64))
    u = values.view(np.uint64)
    is_first = np.zeros(n, dtype=bool)
    is_first[starts[counts > 0]] = True

    xor = np.zeros(n, dtype=np.uint64)
    if n > 1:
        xor[1:] = u[1:] ^ u[:-1]
    xor[is_first] = 0
    nz = (xor != 0) & ~is_first

    lead = np.full(n, 64, dtype=np.int64)
    trail = np.full(n, 64, dtype=np.int64)
    if nz.any():
        xnz = xor[nz]
        lead_nz = 64 - bit_length_u64(xnz)
        np.minimum(lead_nz, 31, out=lead_nz)  # 5-bit field cap, as scalar
        lead[nz] = lead_nz
        trail[nz] = trailing_zeros_u64(xnz)

    # per-chunk window over nonzero XORs (sentinel 64 where zero/first)
    ne = counts > 0
    gl = np.full(len(starts), 64, dtype=np.int64)
    gt = np.full(len(starts), 64, dtype=np.int64)
    if ne.any():
        gl[ne] = np.minimum.reduceat(lead, starts[ne])
        gt[ne] = np.minimum.reduceat(trail, starts[ne])
    # np.minimum.reduceat semantics: slice [starts[i], starts[i+1]) for the
    # passed index list — but we pass only non-empty starts, whose natural
    # next boundary in the FULL array is correct because empty chunks
    # contribute no positions.
    sig = 64 - gl - gt  # valid only where the chunk has any nz

    chunk_idx = np.repeat(np.arange(len(starts), dtype=np.int64), counts)
    # first nz per chunk gets the 13-bit header
    nz_pos = np.flatnonzero(nz)
    first_nz = np.zeros(n, dtype=bool)
    if len(nz_pos):
        c_of = chunk_idx[nz_pos]
        uniq_first = np.unique(c_of, return_index=True)[1]
        first_nz[nz_pos[uniq_first]] = True
    later_nz = nz & ~first_nz

    sig_pos = np.zeros(n, dtype=np.int64)
    sig_pos[nz] = sig[chunk_idx[nz]]
    lens = np.ones(n, dtype=np.int64)  # zero-xor -> 1 bit
    lens[is_first] = 64
    lens[first_nz] = 13 + sig_pos[first_nz]
    lens[later_nz] = 2 + sig_pos[later_nz]

    pos_off, chunk_byte_off, total_bits = _chunk_layout(lens, starts, counts)

    gt_pos = np.zeros(n, dtype=np.int64)
    gt_pos[nz] = gt[chunk_idx[nz]]
    payload = xor >> gt_pos.astype(np.uint64)

    f_vals, f_bits, f_offs = [], [], []
    f_vals.append(u[is_first])
    f_bits.append(np.full(int(is_first.sum()), 64, dtype=np.int64))
    f_offs.append(pos_off[is_first])
    # zero-xor positions emit a single '0' bit — already zero in the array
    # headers: '11' + 5-bit leading + 6-bit (sig & 63); merge header+payload
    # into one <=64-bit field when it fits (sig <= 51), else split
    hl = gl[chunk_idx[first_nz]].astype(np.uint64)
    hs = sig_pos[first_nz].astype(np.uint64)
    hdr = (np.uint64(0b11) << np.uint64(11)) | (hl << np.uint64(6)) | (hs & np.uint64(0x3F))
    s_f = sig_pos[first_nz]
    fit_f = s_f <= 51
    f_vals.append((hdr[fit_f] << s_f[fit_f].astype(np.uint64)) | payload[first_nz][fit_f])
    f_bits.append(13 + s_f[fit_f])
    f_offs.append(pos_off[first_nz][fit_f])
    nf = ~fit_f
    f_vals.append(hdr[nf])
    f_bits.append(np.full(int(nf.sum()), 13, dtype=np.int64))
    f_offs.append(pos_off[first_nz][nf])
    f_vals.append(payload[first_nz][nf])
    f_bits.append(s_f[nf])
    f_offs.append(pos_off[first_nz][nf] + 13)
    # later nz: '10' + payload; merged when 2 + sig <= 64
    s_l = sig_pos[later_nz]
    fit_l = s_l <= 62
    f_vals.append(
        (np.uint64(0b10) << s_l[fit_l].astype(np.uint64)) | payload[later_nz][fit_l]
    )
    f_bits.append(2 + s_l[fit_l])
    f_offs.append(pos_off[later_nz][fit_l])
    nl = ~fit_l
    f_vals.append(np.full(int(nl.sum()), 0b10, dtype=np.uint64))
    f_bits.append(np.full(int(nl.sum()), 2, dtype=np.int64))
    f_offs.append(pos_off[later_nz][nl])
    f_vals.append(payload[later_nz][nl])
    f_bits.append(s_l[nl])
    f_offs.append(pos_off[later_nz][nl] + 2)

    data = _pack_fields(np.concatenate(f_vals), np.concatenate(f_bits),
                        np.concatenate(f_offs), total_bits)
    return _binary_array(data, chunk_byte_off)


def encode_timestamps(ts: np.ndarray) -> bytes:
    """Delta-of-delta encode one int64 ms timestamp array (sorted); the
    single-chunk convenience wrapper over :func:`encode_timestamps_many`."""
    ts = np.asarray(ts, dtype=np.int64)
    return encode_timestamps_many(ts, np.array([0, len(ts)]))[0].as_py()


def encode_values(values: np.ndarray) -> bytes:
    """Gorilla-XOR encode one float64 array (bit-exact round-trip); the
    single-chunk convenience wrapper over :func:`encode_values_many`."""
    values = np.asarray(values, dtype=np.float64)
    return encode_values_many(values, np.array([0, len(values)]))[0].as_py()


def encode_chunk(ts: np.ndarray, values: np.ndarray) -> tuple[bytes, bytes]:
    """Encode one (timestamps, values) chunk -> (ts_bytes, val_bytes)."""
    if len(ts) != len(values):
        raise ValueError(f"length mismatch: {len(ts)} timestamps vs {len(values)} values")
    return encode_timestamps(ts), encode_values(values)


def decode_chunk(ts_bytes: bytes, val_bytes: bytes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode one chunk back to (int64 ms timestamps, float64 values)."""
    return decode_timestamps(ts_bytes, n), decode_values(val_bytes, n)
