import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdelta.codec import CodecError, decode, encode, pack_stream, unpack_stream
from mdelta.coders import KTCoder, MixtureCoder, NMLCoder, SourceCoder
from mdelta.source import MarkovSource, full_tree, random_hypercube_source


def all_sequences(n):
    for xi in range(1 << n):
        yield np.array([(xi >> (n - 1 - i)) & 1 for i in range(n)], np.uint8)


def roundtrip_ok(coder, x):
    code = encode(coder, x)
    back = decode(coder, code, len(x))
    return np.array_equal(back, np.asarray(x, np.uint8)), len(code)


def test_exhaustive_roundtrip_and_length_bound():
    for n in (1, 4, 7):
        coders = [
            KTCoder(0),
            KTCoder(1, past="0"),
            MixtureCoder(0, horizon=n),
            SourceCoder(MarkovSource(full_tree(0), {"": 0.8}), past=""),
        ]
        for coder in coders:
            for x in all_sequences(n):
                ok, nbits = roundtrip_ok(coder, x)
                assert ok
                assert nbits <= math.ceil(-coder.log2_prob(x)) + 2


def test_uniform_coder_length_bound():
    n = 8
    uniform = SourceCoder(MarkovSource(full_tree(0), {"": 0.5}), past="")
    for x in all_sequences(n):
        ok, nbits = roundtrip_ok(uniform, x)
        assert ok
        assert nbits <= n + 2


def test_nml_coder_roundtrip():
    coder = NMLCoder(1, past="0", horizon=8)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.integers(0, 2, 8).astype(np.uint8)
        ok, nbits = roundtrip_ok(coder, x)
        assert ok
        assert nbits <= math.ceil(-coder.log2_prob(x)) + 2


def test_seeded_random_roundtrips():
    rng = np.random.default_rng(123)
    for trial in range(100):
        ell = int(rng.integers(0, 5))
        n = int(rng.integers(1, 400))
        src = random_hypercube_source(ell, 0.2, rng=rng)
        past = "0" * max(ell, 1)
        x = src.sample(past, n, rng=rng)
        coder = KTCoder(ell, past=past)
        ok, nbits = roundtrip_ok(coder, x)
        assert ok
        assert nbits <= math.ceil(-coder.log2_prob(x)) + 2


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=0, max_size=60), st.integers(0, 2))
def test_roundtrip_property(blob, ell):
    bits = np.frombuffer(blob, np.uint8) % 2
    coder = KTCoder(ell, past="00")
    ok, _ = roundtrip_ok(coder, bits)
    assert ok


def test_stream_container_roundtrip():
    coder = KTCoder(2, past="00")
    x = np.array([1, 0, 1, 1, 0, 0, 1], np.uint8)
    code = encode(coder, x)
    stream = pack_stream(code, 2, len(x))
    unpacked, depth, n = unpack_stream(stream)
    assert depth == 2 and n == 7
    assert np.array_equal(decode(coder, unpacked, n), x)


def test_stream_length_outside_header_raises_codec_error():
    code = encode(KTCoder(0), "1011")
    for n in (-1, 1 << 32):
        with pytest.raises(CodecError, match="does not fit the header"):
            pack_stream(code, 0, n)
    assert unpack_stream(pack_stream(code, 0, (1 << 32) - 1))[2] == (1 << 32) - 1


def test_stream_corruption_detected():
    coder = KTCoder(0)
    stream = pack_stream(encode(coder, "1011"), 0, 4)
    with pytest.raises(CodecError):
        unpack_stream(b"XX" + stream[2:])  # magic
    with pytest.raises(CodecError):
        unpack_stream(stream[:2] + bytes([99]) + stream[3:])  # version
    with pytest.raises(CodecError):
        unpack_stream(stream[:6])  # truncated header
    with pytest.raises(CodecError):
        unpack_stream(stream[:8])  # missing payload
