"""Bit-exact binary arithmetic codec driven by a sequential coder.

Integer range coder with a 62-bit state and 32-bit probability
quantization; encoder and decoder quantize identically, so round trips
are exact for any coder and any input.  Codeword length is at most
ceil(-log2 q(x)) + 2 bits (the classic renormalization argument; the
quantization loss is far below a bit at the lengths this library
handles).

Encoding knows the whole sequence, so it takes every conditional at
once from `coder.conditionals(bits)` and runs the range coder on plain
ints.  Decoding is sequential, one prob_one()/push() per bit, and its
range decoder runs on plain ints too: the code bits come from one list,
the decoded bits go to a bytearray.  A read deeper than any valid code of
that length reaches (a truncated stream, or the wrong coder) raises
CodecError.

Streams carry an 8-byte header (magic, version, depth, length) followed
by the code bits packed big-endian; the sequence length travels in the
header rather than in the code.
"""

from __future__ import annotations

import numpy as np

from .coders import SequentialCoder
from .source import as_bits

__all__ = ["CodecError", "encode", "decode", "pack_stream", "unpack_stream", "MAGIC", "VERSION"]

_STATE_BITS = 62
_FULL = 1 << _STATE_BITS
_HALF = _FULL >> 1
_QUARTER = _FULL >> 2
_THREEQ = _HALF + _QUARTER
_TOTAL_BITS = 32
_TOTAL = 1 << _TOTAL_BITS

MAGIC = b"MD"
VERSION = 1


class CodecError(ValueError):
    """Malformed or corrupted stream."""


_PAST_THE_END = "read past the end of the code: stream truncated or decoded with the wrong coder"


def _quantize(p1: np.ndarray) -> np.ndarray:
    """P(bit = 1) as a count out of _TOTAL, clipped to [1, _TOTAL - 1]; decode
    quantizes each conditional with the same float operations."""
    return np.clip((p1 * _TOTAL + 0.5).astype(np.int64), 1, _TOTAL - 1)


def encode(coder: SequentialCoder, x) -> np.ndarray:
    """Arithmetic-encode x under the coder's model; returns code bits.

    The sequence is known, so every conditional comes from one
    `coder.conditionals` call and the range-coder loop runs on plain ints.
    """
    bits = as_bits(x)
    c0s = _TOTAL - _quantize(coder.conditionals(bits))
    low, high = 0, _FULL - 1
    pending = 0
    out: list[int] = []
    for bit, c0 in zip(bits.tolist(), c0s.tolist()):
        split = low + ((high - low + 1) * c0 >> _TOTAL_BITS)  # first value of the 1-region
        if bit:
            low = split
        else:
            high = split - 1
        while True:
            if high < _HALF:
                out.append(0)
                if pending:
                    out += [1] * pending
                    pending = 0
            elif low >= _HALF:
                out.append(1)
                if pending:
                    out += [0] * pending
                    pending = 0
                low -= _HALF
                high -= _HALF
            elif low >= _QUARTER and high < _THREEQ:
                pending += 1
                low -= _QUARTER
                high -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
    last = 0 if low < _QUARTER else 1
    out.append(last)
    out += [last ^ 1] * (pending + 1)
    return np.array(out, dtype=np.uint8)


def decode(coder: SequentialCoder, code_bits, n: int) -> np.ndarray:
    """Invert encode(): n bits from the code under the same coder model.

    Decoding is sequential: each conditional comes from prob_one() after
    the bits decoded so far were pushed.  Bits past the end of the code are
    read as zeros, which the encoder's termination makes safe.  The
    decoder reads 62 bits, then one per encoder shift, and a code holds
    one bit per shift plus two, so decoding a valid code reads at most
    len(code) + 60 bits (exactly that many unless the code was padded to
    whole bytes); a read past that means a truncated stream or the wrong
    coder, and raises CodecError.
    """
    if n < 0:
        raise ValueError(f"cannot decode a negative length {n}")
    # the code plus the zeros a valid decode may read past its end; one read
    # past this list is one read past the limit
    code = as_bits(code_bits).tolist()
    code += [0] * (_STATE_BITS - 2)
    limit = len(code)
    if limit < _STATE_BITS:
        raise CodecError(_PAST_THE_END)
    value = 0
    for b in code[:_STATE_BITS]:
        value = (value << 1) | b
    pos = _STATE_BITS
    prob_one, push = coder.prob_one, coder.push
    coder.reset()
    low, high = 0, _FULL - 1
    out = bytearray()
    for _ in range(n):
        c1 = int(prob_one() * _TOTAL + 0.5)
        c1 = 1 if c1 < 1 else _TOTAL - 1 if c1 >= _TOTAL else c1
        split = low + ((high - low + 1) * (_TOTAL - c1) >> _TOTAL_BITS)
        if value >= split:
            bit = 1
            low = split
        else:
            bit = 0
            high = split - 1
        out.append(bit)
        push(bit)
        while True:
            if high < _HALF:
                pass
            elif low >= _HALF:
                low -= _HALF
                high -= _HALF
                value -= _HALF
            elif low >= _QUARTER and high < _THREEQ:
                low -= _QUARTER
                high -= _QUARTER
                value -= _QUARTER
            else:
                break
            if pos == limit:
                raise CodecError(_PAST_THE_END)
            low <<= 1
            high = (high << 1) | 1
            value = (value << 1) | code[pos]
            pos += 1
    coder.reset()
    return np.frombuffer(out, np.uint8)


# ---------------------------------------------------------------------------
# stream container
# ---------------------------------------------------------------------------


def pack_stream(code_bits, depth: int, n: int) -> bytes:
    """8-byte header (magic, version, depth, n) + big-endian packed bits."""
    if not 0 <= depth < 256:
        raise CodecError(f"depth {depth} does not fit the header")
    if not 0 <= n < 1 << 32:
        raise CodecError(f"length {n} does not fit the header")
    header = MAGIC + bytes([VERSION, depth]) + int(n).to_bytes(4, "big")
    payload = np.packbits(as_bits(code_bits)).tobytes()
    return header + payload


def unpack_stream(data: bytes) -> tuple[np.ndarray, int, int]:
    """Validate a stream and return (code_bits, depth, n)."""
    if len(data) < 8:
        raise CodecError("stream shorter than its 8-byte header")
    if data[:2] != MAGIC:
        raise CodecError(f"bad magic {data[:2]!r}")
    if data[2] != VERSION:
        raise CodecError(f"unsupported stream version {data[2]}")
    depth = data[3]
    n = int.from_bytes(data[4:8], "big")
    payload = np.frombuffer(data[8:], dtype=np.uint8)
    if n > 0 and payload.size == 0:
        raise CodecError("stream truncated: no code bits for a non-empty sequence")
    return np.unpackbits(payload), depth, n
