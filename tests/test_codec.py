import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdelta import _kernels
from mdelta.codec import MAGIC, VERSION, CodecError, decode, encode, pack_stream, unpack_stream
from mdelta.coders import KTCoder, MixtureCoder, NMLCoder, SourceCoder
from mdelta.source import MarkovSource, full_tree, state_code


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
        # a hypercube source and its sample, both drawn from the one rng
        src = MarkovSource(full_tree(ell), (0.5 + rng.uniform(-0.2, 0.2, size=1 << ell)).tolist())
        past = "0" * max(ell, 1)
        x = _kernels.sample_batch(src.state_theta, state_code(past, ell), ell, rng.random((1, n)))[0]
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


# Recorded from the per-bit prob_one/push encoder, before encode took every
# conditional at once: each coder's streams stay byte-identical.
PINNED_STREAMS = {
    "kt": "a4cf11377beaf49e4e452fc4b9e3e25d40babfd50c71061ea91f72b1ec40879f",
    "mixture": "88d85dea6c35577fa2cb85f544137fc1b07b7229157a521241b206bc4fdeec36",
    "source": "0a309c6b9385c50e7dd3c84d64f7eeba529d7a7d4c316a2bb729b396f45a5588",
    "nml": "ace2df9e606598804d21ed157e02b14cbc748e66690b55e0a5b83c7be9c22d78",
}


def _coder(kind, depth, past, n, src):
    if kind == "kt":
        return KTCoder(depth, past)
    if kind == "mixture":
        return MixtureCoder(depth, past, horizon=max(n, 1))
    if kind == "source":
        return SourceCoder(src, past)
    return NMLCoder(depth, past, horizon=max(n, 1))


@pytest.mark.parametrize("kind", sorted(PINNED_STREAMS))
def test_encoded_streams_are_pinned(kind):
    digest = hashlib.sha256()
    for depth in range(5):
        src = MarkovSource(full_tree(depth), np.random.default_rng(depth).uniform(0.02, 0.98, 1 << depth))
        past = "10" * depth
        for n in (0, 1, 7, 513, 4096):
            if kind == "nml" and n > 7:
                continue  # past the enumeration cap
            code = encode(_coder(kind, depth, past, n, src), src.sample(past, n, seed=1000 + n))
            digest.update(len(code).to_bytes(4, "big") + np.packbits(code).tobytes())
    assert digest.hexdigest() == PINNED_STREAMS[kind]


def test_encode_past_the_mixture_horizon_raises():
    with pytest.raises(IndexError):
        encode(MixtureCoder(1, past="0", horizon=4), "10110")


SKEWED_2 = MarkovSource(full_tree(2), [0.1, 0.7, 0.4, 0.9])


def _kt_stream():
    x = SKEWED_2.sample("00", 200, seed=3)
    return x, pack_stream(encode(KTCoder(2, "00"), x), 2, len(x))


def test_valid_streams_never_read_past_their_end():
    # a read past the code's end raises, so every valid stream must stop short of it
    rng = np.random.default_rng(11)
    for ell in range(5):
        for n in (0, 1, 2, 63, 600):
            src = MarkovSource(full_tree(ell), rng.uniform(0.05, 0.95, 1 << ell))
            past = "1" * ell
            x = src.sample(past, n, seed=n)
            for coder in (KTCoder(ell, past), MixtureCoder(ell, past, horizon=max(n, 1)), SourceCoder(src, past)):
                code = encode(coder, x)
                assert np.array_equal(decode(coder, code, n), x)
                unpacked, _, _ = unpack_stream(pack_stream(code, ell, n))
                assert np.array_equal(decode(coder, unpacked, n), x)
    skewed = MarkovSource(full_tree(0), [0.9999])
    x = skewed.sample("", 5000, seed=1)
    coder = SourceCoder(skewed, "")
    assert np.array_equal(decode(coder, encode(coder, x), len(x)), x)


def test_the_read_limit_is_tight():
    # bits past the end read as zeros, so a code that ends in 0 decodes along
    # the same path without its last bit and must then run one read too deep
    rng = np.random.default_rng(12)
    checked = 0
    for n in range(1, 60):
        x = rng.integers(0, 2, n).astype(np.uint8)
        code = encode(KTCoder(1, "0"), x)
        if code[-1] == 0:
            checked += 1
            with pytest.raises(CodecError, match="past the end of the code"):
                decode(KTCoder(1, "0"), code[:-1], n)
    assert checked >= 10


@pytest.mark.parametrize("n", [0, 5])
def test_an_empty_code_reads_past_its_end_in_the_start_fill(n):
    # the 62-bit start fill alone reads two bits past an empty code's limit
    with pytest.raises(CodecError, match="past the end of the code"):
        decode(KTCoder(1, "0"), np.empty(0, np.uint8), n)


def test_truncated_stream_raises_codec_error():
    x, stream = _kt_stream()
    code, _, n = unpack_stream(stream[:9])
    with pytest.raises(CodecError, match="past the end of the code"):
        decode(KTCoder(2, "00"), code, n)


def test_stream_decoded_with_the_wrong_coder_raises_codec_error():
    x, stream = _kt_stream()
    code, _, n = unpack_stream(stream)
    assert np.array_equal(decode(KTCoder(2, "00"), code, n), x)
    with pytest.raises(CodecError, match="past the end of the code"):
        decode(MixtureCoder(2, "00", horizon=n), code, n)


def test_huge_length_header_on_a_short_payload_raises_codec_error():
    code, _, n = unpack_stream(MAGIC + bytes([VERSION, 0]) + ((1 << 32) - 1).to_bytes(4, "big") + b"\xf6")
    with pytest.raises(CodecError, match="past the end of the code"):
        decode(KTCoder(0), code, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4096), st.binary(min_size=0, max_size=64), st.sampled_from(["kt", "mixture", "source"]))
def test_random_payloads_decode_or_raise_codec_error(n, payload, kind):
    stream = MAGIC + bytes([VERSION, 2]) + n.to_bytes(4, "big") + payload
    try:
        code, _, n_read = unpack_stream(stream)
        bits = decode(_coder(kind, 2, "00", n, SKEWED_2), code, n_read)
    except CodecError:
        return
    assert bits.shape == (n,) and bits.dtype == np.uint8
