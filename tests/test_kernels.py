import math

import numpy as np
import pytest

from mdelta import _kernels

needs_numba = pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba unavailable")


@pytest.fixture
def both_backends():
    """Yield a runner that evaluates a kernel call under each backend."""
    if not _kernels.HAVE_NUMBA:
        pytest.skip("numba unavailable")
    previous = _kernels.active_backend()

    def run(fn, *args):
        out = {}
        for name in ("numpy", "numba"):
            _kernels.set_backend(name)
            out[name] = fn(*args)
        return out["numpy"], out["numba"]

    yield run
    _kernels.set_backend(previous)


def test_seed_splitting_is_stable():
    assert _kernels.splitmix64(0) == 16294208416658607535
    a = _kernels.child_seed(7, "task-a")
    assert a == _kernels.child_seed(7, "task-a")
    assert a != _kernels.child_seed(7, "task-b")
    assert a != _kernels.child_seed(8, "task-a")
    assert 0 <= a < 2**64


def test_kt_tables_prefix_sums():
    g, h = _kernels.kt_tables(50)
    assert g[0] == 0.0 and h[0] == 0.0
    assert g[3] == pytest.approx(math.log2(0.5) + math.log2(1.5) + math.log2(2.5), abs=1e-12)
    assert h[4] == pytest.approx(math.log2(24), abs=1e-12)


def test_kt_tables_growth_is_thread_safe(monkeypatch):
    import sys
    import threading

    want = [t[:301].copy() for t in _kernels.kt_tables(300)]
    errors = []

    def work():
        g, h = _kernels.kt_tables(300)
        if not (np.array_equal(g[:301], want[0]) and np.array_equal(h[:301], want[1])):
            errors.append((len(g), len(h)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            monkeypatch.setattr(_kernels, "_KT_TABLES", (np.zeros(1), np.zeros(1)))
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_backend_controls():
    assert _kernels.active_backend() in _kernels.available_backends()
    with pytest.raises(ValueError):
        _kernels.set_backend("fortran")


def test_sample_bits_identical_across_backends(both_backends):
    theta = np.array([0.2, 0.5, 0.7, 0.9])
    u = np.random.default_rng(0).random((8, 200))
    a, b = both_backends(_kernels.sample_batch, theta, 3, 2, u)
    assert np.array_equal(a, b)


def test_counts_identical_across_backends(both_backends):
    bits = np.random.default_rng(1).integers(0, 2, (6, 300)).astype(np.uint8)
    (occ_a, ones_a), (occ_b, ones_b) = both_backends(_kernels.count_batch, bits, 5, 3)
    assert np.array_equal(occ_a, occ_b)
    assert np.array_equal(ones_a, ones_b)
    assert (occ_a.sum(axis=1) == 300).all()


def test_log_prob_close_across_backends(both_backends):
    rng = np.random.default_rng(2)
    theta = rng.uniform(0.2, 0.8, 8)
    lt1, lt0 = np.log2(theta), np.log2(1 - theta)
    bits = rng.integers(0, 2, (5, 400)).astype(np.uint8)
    a, b = both_backends(_kernels.log2_prob_batch, lt1, lt0, 2, 3, bits)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-9)


def test_enumeration_kernels_close_across_backends(both_backends):
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.3, 0.7, 4)
    lt1, lt0 = np.log2(theta), np.log2(1 - theta)
    a, b = both_backends(_kernels.enum_source_log2, lt1, lt0, 1, 2, 10)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-9)
    a, b = both_backends(_kernels.enum_ml_log2, 2, 1, 10)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-9)
    a, b = both_backends(_kernels.enum_kt_log2, 2, 1, 10)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-9)


def test_domination_identical_across_backends(both_backends):
    a, b = both_backends(_kernels.domination_dist, 10, 0.3, 12345, True)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)


def test_azuma_identical_across_backends(both_backends):
    u = np.random.default_rng(4).random((5000, 64))
    for kind in (0, 1, 2):
        a, b = both_backends(_kernels.azuma_failures, u, 2.0, kind)
        assert a == b


def test_enum_orders_sequences_lexicographically():
    # sequence 0b101 at n=3 must see contexts roll 1 -> 0 -> 1
    theta = np.array([0.25, 0.75])
    lt1, lt0 = np.log2(theta), np.log2(1 - theta)
    out = _kernels.enum_source_log2(lt1, lt0, 0, 1, 3)
    by_hand = math.log2(0.25) + math.log2(1 - 0.75) + math.log2(0.25)
    assert out[0b101] == pytest.approx(by_hand, abs=1e-12)


# ---------------------------------------------------------------------------
# reference checks: the plain-Python kernel bodies, run uncompiled, against
# the numpy backend (these run whether or not numba is installed)
# ---------------------------------------------------------------------------


@pytest.fixture
def numpy_backend():
    previous = _kernels.active_backend()
    _kernels.set_backend("numpy")
    yield
    _kernels.set_backend(previous)


def all_sequences(n):
    """The 2^n length-n bit rows in lexicographic order (first bit = MSB)."""
    seq = np.arange(1 << n)[:, None]
    return ((seq >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


def chain_rule_log2(lt1, lt0, state0, ell, row):
    mask = (1 << ell) - 1
    s, acc = state0, 0.0
    for b in row.tolist():
        acc += lt1[s] if b else lt0[s]
        s = ((s << 1) | b) & mask
    return acc


COUNT_CASES = [
    # (trials, n, depth, state0)
    (1, 0, 3, 5),  # empty sequence
    (1, 1, 3, 5),  # single bit
    (1, 2, 4, 11),  # n < depth: the past fills most contexts
    (1, 4096, 4, 9),
    (5, 300, 3, 5),
    (4, 64, 0, 0),  # depth 0: one context
    (3, 1, 0, 0),
    (6, 3, 5, 31),  # T > 1 with n < depth
    (2, 500, 7, 77),
]


@pytest.mark.parametrize("trials,n,depth,state0", COUNT_CASES)
def test_counts_match_python_reference(numpy_backend, trials, n, depth, state0):
    bits = np.random.default_rng(n + depth).integers(0, 2, (trials, n)).astype(np.uint8)
    occ, ones = _kernels.count_batch(bits, state0, depth)
    ref_occ, ref_ones = _kernels._py_count_batch(bits, state0, depth)
    assert occ.dtype == ones.dtype == np.int64
    assert np.array_equal(occ, ref_occ)
    assert np.array_equal(ones, ref_ones)
    assert (occ.sum(axis=1) == n).all()


@pytest.mark.parametrize("trials,n,depth,state0", COUNT_CASES)
def test_log_prob_matches_chain_rule(numpy_backend, trials, n, depth, state0):
    rng = np.random.default_rng(100 + n + depth)
    theta = rng.uniform(0.05, 0.95, 1 << depth)
    lt1, lt0 = np.log2(theta), np.log2(1 - theta)
    bits = rng.integers(0, 2, (trials, n)).astype(np.uint8)
    out = _kernels.log2_prob_batch(lt1, lt0, state0, depth, bits)
    ref = [chain_rule_log2(lt1, lt0, state0, depth, row) for row in bits]
    assert out.shape == (trials,)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-9)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_enumeration_matches_python_reference(numpy_backend, depth):
    state0 = (1 << depth) - 1 if depth else 0
    gtab, htab = _kernels.kt_tables(12)
    for n in (0, 1, 3, 12):
        occ, ones = _kernels._np_enum_counts(depth, state0, n)
        ref_occ, ref_ones = _kernels._py_count_batch(all_sequences(n), state0, depth)
        assert np.array_equal(occ, ref_occ)
        assert np.array_equal(ones, ref_ones)
        # same counts; the reference sums contexts in another order, so the
        # floats may differ in the last place
        np.testing.assert_allclose(
            _kernels.enum_ml_log2(depth, state0, n), _kernels._py_enum_ml_log2(depth, state0, n),
            rtol=0, atol=1e-12,
        )
        np.testing.assert_allclose(
            _kernels.enum_kt_log2(depth, state0, n),
            _kernels._py_enum_kt_log2(depth, state0, n, gtab, htab),
            rtol=0, atol=1e-12,
        )
