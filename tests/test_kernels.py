import math

import numpy as np
import pytest

import mdelta
from mdelta import _kernels

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


def test_active_backend_is_numpy():
    assert mdelta.active_backend() == _kernels.active_backend() == "numpy"


def test_enum_orders_sequences_lexicographically():
    # sequence 0b101 at n=3 must see contexts roll 1 -> 0 -> 1
    theta = np.array([0.25, 0.75])
    lt1, lt0 = np.log2(theta), np.log2(1 - theta)
    out = _kernels.enum_source_log2(lt1, lt0, 0, 1, 3)
    by_hand = math.log2(0.25) + math.log2(1 - 0.75) + math.log2(0.25)
    assert out[0b101] == pytest.approx(by_hand, abs=1e-12)


# ---------------------------------------------------------------------------
# reference checks: the kernels against plain-Python loops, one sequence and
# one position at a time
# ---------------------------------------------------------------------------


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


def _py_count_batch(bits, state0, depth):
    T, n = bits.shape
    m = 1 << depth
    mask = m - 1 if depth > 0 else 0
    occ = np.zeros((T, m), np.int64)
    ones = np.zeros((T, m), np.int64)
    for t in range(T):
        s = state0
        for i in range(n):
            b = bits[t, i]
            occ[t, s] += 1
            ones[t, s] += b
            s = ((s << 1) | b) & mask
    return occ, ones


def _py_enum_ml_log2(depth, state0, n):
    N = 1 << n
    m = 1 << depth
    mask = m - 1 if depth > 0 else 0
    out = np.empty(N)
    occ = np.zeros(m, np.int64)
    ones = np.zeros(m, np.int64)
    for x in range(N):
        for j in range(m):
            occ[j] = 0
            ones[j] = 0
        s = state0
        for i in range(n):
            b = (x >> (n - 1 - i)) & 1
            occ[s] += 1
            ones[s] += b
            s = ((s << 1) | b) & mask
        acc = 0.0
        for j in range(m):
            nw = occ[j]
            if nw > 0:
                a = ones[j]
                c = nw - a
                if a > 0:
                    acc += a * (math.log2(a) - math.log2(nw))
                if c > 0:
                    acc += c * (math.log2(c) - math.log2(nw))
        out[x] = acc
    return out


def _py_enum_kt_log2(depth, state0, n, gtab, htab):
    N = 1 << n
    m = 1 << depth
    mask = m - 1 if depth > 0 else 0
    out = np.empty(N)
    occ = np.zeros(m, np.int64)
    ones = np.zeros(m, np.int64)
    for x in range(N):
        for j in range(m):
            occ[j] = 0
            ones[j] = 0
        s = state0
        for i in range(n):
            b = (x >> (n - 1 - i)) & 1
            occ[s] += 1
            ones[s] += b
            s = ((s << 1) | b) & mask
        acc = 0.0
        for j in range(m):
            if occ[j] > 0:
                a = ones[j]
                acc += gtab[a] + gtab[occ[j] - a] - htab[occ[j]]
        out[x] = acc
    return out


def _py_azuma_failures(u, gamma, kind):
    # kind: 0 fixed horizon, 1 first passage over gamma*sqrt(k), 2 zero return
    T, n = u.shape
    fails = 0
    for t in range(T):
        s = 0
        if kind == 0:
            for i in range(n):
                s += 1 if u[t, i] < 0.5 else -1
            if abs(s) >= gamma * math.sqrt(n):
                fails += 1
        elif kind == 1:
            for i in range(n):
                s += 1 if u[t, i] < 0.5 else -1
                if abs(s) >= gamma * math.sqrt(i + 1.0):
                    fails += 1
                    break
        else:
            tau = n
            for i in range(n):
                s += 1 if u[t, i] < 0.5 else -1
                if i + 1 >= 10 and s == 0:
                    tau = i + 1
                    break
            if abs(s) >= gamma * math.sqrt(tau):
                fails += 1
    return fails


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
def test_counts_match_python_reference(trials, n, depth, state0):
    bits = np.random.default_rng(n + depth).integers(0, 2, (trials, n)).astype(np.uint8)
    occ, ones = _kernels.count_batch(bits, state0, depth)
    ref_occ, ref_ones = _py_count_batch(bits, state0, depth)
    assert occ.dtype == ones.dtype == np.int64
    assert np.array_equal(occ, ref_occ)
    assert np.array_equal(ones, ref_ones)
    assert (occ.sum(axis=1) == n).all()


@pytest.mark.parametrize("trials,n,depth,state0", COUNT_CASES)
def test_log_prob_matches_chain_rule(trials, n, depth, state0):
    rng = np.random.default_rng(100 + n + depth)
    theta = rng.uniform(0.05, 0.95, 1 << depth)
    lt1, lt0 = np.log2(theta), np.log2(1 - theta)
    bits = rng.integers(0, 2, (trials, n)).astype(np.uint8)
    out = _kernels.log2_prob_batch(lt1, lt0, state0, depth, bits)
    ref = [chain_rule_log2(lt1, lt0, state0, depth, row) for row in bits]
    assert out.shape == (trials,)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-9)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_enumeration_matches_python_reference(depth):
    state0 = (1 << depth) - 1 if depth else 0
    gtab, htab = _kernels.kt_tables(12)
    for n in (0, 1, 3, 12):
        occ, ones = np.divmod(_kernels._np_enum_codes(depth, state0, n), n + 1)
        ref_occ, ref_ones = _py_count_batch(all_sequences(n), state0, depth)
        assert np.array_equal(occ, ref_occ)
        assert np.array_equal(ones, ref_ones)
        # same counts; the reference sums contexts in another order, so the
        # floats may differ in the last place
        np.testing.assert_allclose(
            _kernels.enum_ml_log2(depth, state0, n), _py_enum_ml_log2(depth, state0, n),
            rtol=0, atol=1e-12,
        )
        np.testing.assert_allclose(
            _kernels.enum_kt_log2(depth, state0, n),
            _py_enum_kt_log2(depth, state0, n, gtab, htab),
            rtol=0, atol=1e-12,
        )


AZUMA_CASES = [
    # (trials, n, gamma); n = 9 never reaches kind 2's return after ten
    # steps, n = 10 can only return at the last step
    (5000, 64, 2.0),
    (300, 9, 1.0),
    (300, 10, 1.0),
    (200, 257, 0.5),
    (1, 1, 1.0),
]


@pytest.mark.parametrize("trials,n,gamma", AZUMA_CASES)
def test_azuma_matches_python_reference(trials, n, gamma):
    u = np.random.default_rng(4 + n).random((trials, n))
    for kind in (0, 1, 2):
        assert _kernels.azuma_failures(u, gamma, kind) == _py_azuma_failures(u, gamma, kind)


# ---------------------------------------------------------------------------
# bit-identity checks: the numpy kernels against per-position numpy loops
# over all rows (the form they had before walking the prefix tree level by
# level), compared with ==
# ---------------------------------------------------------------------------


def loop_sample(theta, state0, ell, u):
    T, n = u.shape
    mask = (1 << ell) - 1
    out = np.empty((T, n), np.uint8)
    s = np.full(T, state0, np.int64)
    for i in range(n):
        b = (u[:, i] < theta[s]).astype(np.uint8)
        out[:, i] = b
        s = ((s << 1) | b) & mask
    return out


def loop_enum_source(lt1, lt0, state0, ell, n):
    seq = np.arange(1 << n, dtype=np.int64)
    mask = (1 << ell) - 1
    s = np.full(1 << n, state0, np.int64)
    acc = np.zeros(1 << n)
    for i in range(n):
        b = (seq >> (n - 1 - i)) & 1
        acc += np.where(b == 1, lt1[s], lt0[s])
        s = ((s << 1) | b) & mask
    return acc


def loop_enum_counts(depth, state0, n):
    seq = np.arange(1 << n, dtype=np.int64)
    mask = (1 << depth) - 1
    s = np.full(1 << n, state0, np.int64)
    occ = np.zeros((1 << n, 1 << depth), np.int32)
    ones = np.zeros((1 << n, 1 << depth), np.int32)
    for i in range(n):
        b = (seq >> (n - 1 - i)) & 1
        occ[seq, s] += 1
        ones[seq, s] += b
        s = ((s << 1) | b) & mask
    return occ, ones


def loop_domination(n, q, seed, randomized):
    seq = np.arange(1 << n, dtype=np.int64)
    prob = np.ones(1 << n)
    ones = np.zeros(1 << n, np.int64)
    node = np.ones(1 << n, np.int64)
    for i in range(n):
        b = (seq >> (n - 1 - i)) & 1
        if randomized:
            with np.errstate(over="ignore"):
                u = _kernels._np_mix_unit(seed ^ (node.astype(np.uint64) * _kernels._SM3))
            p1 = q + (1.0 - q) * u
        else:
            p1 = np.full(1 << n, q)
        prob *= np.where(b == 1, p1, 1.0 - p1)
        ones += b
        node = node * 2 + b
    return np.bincount(ones, weights=prob, minlength=n + 1)


ENUM_NS = (0, 1, 2, 5, 12, 16)


def pasts(depth):
    """Context codes of all-zero, all-one and mixed pasts at this depth."""
    return sorted({0, (1 << depth) - 1, 0b101 & ((1 << depth) - 1)})


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_enum_source_bit_identical_to_position_loop(depth):
    rng = np.random.default_rng(40 + depth)
    theta = rng.uniform(0.05, 0.95, 1 << depth)
    lt1, lt0 = np.log2(theta), np.log2(1 - theta)
    for n in ENUM_NS:
        for state0 in pasts(depth):
            out = _kernels.enum_source_log2(lt1, lt0, state0, depth, n)
            assert np.array_equal(out, loop_enum_source(lt1, lt0, state0, depth, n))


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_enum_ml_kt_bit_identical_to_position_loop(depth):
    gtab, htab = _kernels.kt_tables(max(ENUM_NS))
    for n in ENUM_NS:
        for state0 in pasts(depth):
            occ, ones = loop_enum_counts(depth, state0, n)
            codes = _kernels._np_enum_codes(depth, state0, n)
            assert codes.dtype == np.int16
            assert np.array_equal(codes, occ * (n + 1) + ones)
            assert np.array_equal(
                _kernels.enum_ml_log2(depth, state0, n), _kernels._ml_log2(occ, ones)
            )
            assert np.array_equal(
                _kernels.enum_kt_log2(depth, state0, n),
                _kernels._kt_log2(occ, ones, gtab, htab),
            )


@pytest.mark.parametrize("randomized", [False, True])
def test_domination_bit_identical_to_position_loop(randomized):
    for n in (0, 1, 2, 5, 12):
        for q, seed in ((0.1, 0), (0.3, 12345), (0.5, 2**63 + 11)):
            out = _kernels.domination_dist(n, q, seed, randomized)
            assert np.array_equal(out, loop_domination(n, q, np.uint64(seed), randomized))


ROWS = _kernels._ROW_LOOP_ROWS


@pytest.mark.parametrize("trials", [1, ROWS - 1, ROWS, ROWS + 1, 48])
def test_sample_bit_identical_to_position_loop(trials):
    rng = np.random.default_rng(trials)
    for ell, n in ((0, 300), (1, 257), (3, 2), (4, 0), (6, 1000)):
        theta = rng.uniform(0.05, 0.95, 1 << ell)
        u = rng.random((trials, n))
        for state0 in pasts(ell):
            out = _kernels.sample_batch(theta, state0, ell, u)
            assert out.dtype == np.uint8
            assert np.array_equal(out, loop_sample(theta, state0, ell, u))
