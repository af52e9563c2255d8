import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdelta
from mdelta import _kernels

def test_seed_splitting_is_stable():
    assert _kernels.splitmix64(0) == 16294208416658607535
    a = _kernels.child_seed(7, "task-a")
    assert a == _kernels.child_seed(7, "task-a")
    assert a != _kernels.child_seed(7, "task-b")
    assert a != _kernels.child_seed(8, "task-a")
    assert 0 <= a < 2**64
    assert _kernels.child_seed(2**64 - 1, "task-a") != a
    for root in (-1, 2**64, 7 + 2**64):  # masking would alias 7 + 2**64 to 7
        with pytest.raises(ValueError, match="outside 0..2\\^64-1"):
            _kernels.child_seed(root, "task-a")


@pytest.mark.parametrize("root", [0, 2**64 - 1])
def test_prefix_derived_seeds_equal_child_seed(root):
    # the label prefix is hashed once and carried on into each suffix
    prefix = "domination-q0.3-proc"
    seeds = _kernels._child_seeds(root, prefix, 200)
    assert seeds == [_kernels.child_seed(root, f"{prefix}{p}") for p in range(200)]
    assert _kernels._child_seeds(root, prefix, 0) == []


@pytest.mark.parametrize("root", [-1, 2**64, 7 + 2**64])
def test_prefix_derived_seeds_reject_roots_out_of_range(root):
    with pytest.raises(ValueError, match="outside 0..2\\^64-1"):
        _kernels._child_seeds(root, "domination-q0.3-proc", 3)


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


def half_walk_codes(depth, state0, n):
    """Whole-sequence packed codes rebuilt from the two half walks: each
    prefix's code plus the code of every suffix walked from its end state."""
    prefix, end, starts, suffix = _kernels._np_half_codes(depth, state0, n)
    assert prefix.dtype == suffix.dtype == np.int16
    assert np.array_equal(starts, np.unique(end))
    return (prefix[:, None] + suffix[np.searchsorted(starts, end)]).reshape(-1, 1 << depth)


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
    # plain Python ints and lists, so no bit width can wrap the state
    m = 1 << depth
    mask = m - 1 if depth > 0 else 0
    occ, ones = [], []
    for row in bits.tolist():
        occ_t, ones_t = [0] * m, [0] * m
        s = state0
        for b in row:
            occ_t[s] += 1
            ones_t[s] += b
            s = ((s << 1) | b) & mask
        occ.append(occ_t)
        ones.append(ones_t)
    shape = (len(bits), m)
    return np.array(occ, np.int64).reshape(shape), np.array(ones, np.int64).reshape(shape)


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


def _pasts(depth):
    # the all-zeros past, the all-ones past and a mixed one
    return sorted({0, (1 << depth) - 1, 0b0110 & ((1 << depth) - 1)})


# shapes the bit-plane count serves: every depth it takes, rows on both
# sides of a word edge and with padding, each batch just over the rule
PLANE_CASES = [
    (-(-_kernels._PLANE_POSITIONS // n), n, depth, state0)
    for depth in range(_kernels._PLANE_DEPTH + 1)
    for n in (_kernels._PLANE_ROW + k for k in (0, 63, 64, 65, 3 * _kernels._PLANE_ROW + 1))
    for state0 in _pasts(depth)
]


@pytest.mark.parametrize("trials,n,depth,state0", COUNT_CASES + PLANE_CASES)
def test_counts_match_python_reference(trials, n, depth, state0):
    bits = np.random.default_rng(n + depth).integers(0, 2, (trials, n)).astype(np.uint8)
    occ, ones = _kernels.count_batch(bits, state0, depth)
    ref_occ, ref_ones = _py_count_batch(bits, state0, depth)
    assert occ.dtype == ones.dtype == np.int64
    assert np.array_equal(occ, ref_occ)
    assert np.array_equal(ones, ref_ones)
    assert (occ.sum(axis=1) == n).all()


def test_count_takes_the_bit_planes_only_inside_its_rule(monkeypatch):
    taken = []
    for path in ("_count_planes", "_count_codes"):
        real = getattr(_kernels, path)
        monkeypatch.setattr(_kernels, path, lambda *a, p=path, f=real: taken.append(p) or f(*a))
    row, top = _kernels._PLANE_ROW, _kernels._PLANE_DEPTH
    rows = _kernels._PLANE_POSITIONS // row
    cases = {
        (rows, row, top): "_count_planes",
        (1, _kernels._PLANE_POSITIONS, 0): "_count_planes",
        (rows, row, top + 1): "_count_codes",  # deeper contexts
        (rows - 1, row, 2): "_count_codes",  # a batch too small
        (4 * rows, row - 1, 2): "_count_codes",  # rows too short
        (1, 0, 2): "_count_codes",
    }
    for (T, n, depth), path in cases.items():
        taken.clear()
        bits = np.zeros((T, n), np.uint8)
        _kernels.count_batch(bits, 0, depth)
        _kernels.log2_prob_batch(np.zeros(1 << depth), np.zeros(1 << depth), 0, depth, bits)
        assert taken == [path, path], (T, n, depth)


@pytest.mark.parametrize("depth", range(_kernels._PLANE_DEPTH + 1))
def test_plane_count_matches_python_reference_at_word_edges(depth):
    # called directly, since the rule sends rows this short to bincount: a
    # row inside one word, one word short, exact and one over, and a long
    # row with padding, in batches of one row and of several
    rng = np.random.default_rng(200 + depth)
    for n in (0, 1, 63, 64, 65, 4097):
        for trials in (1, 3):
            bits = rng.integers(0, 2, (trials, n)).astype(np.uint8)
            for state0 in _pasts(depth):
                occ, ones = _kernels._count_planes(bits, state0, depth)
                ref_occ, ref_ones = _py_count_batch(bits, state0, depth)
                assert occ.dtype == ones.dtype == np.int64
                assert np.array_equal(occ, ref_occ)
                assert np.array_equal(ones, ref_ones)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40), st.integers(0, 2000), st.integers(0, 6),
    st.integers(0, 2**6 - 1), st.integers(0, 2**32 - 1),
)
def test_count_paths_agree(trials, n, depth, state0, seed):
    # the bit-plane and bincount counts are the same integers at any shape
    state0 &= (1 << depth) - 1
    bits = np.random.default_rng(seed).integers(0, 2, (trials, n)).astype(np.uint8)
    planes = _kernels._count_planes(bits, state0, depth)
    codes = _kernels._count_codes(bits, state0, depth)
    assert np.array_equal(planes[0], codes[0])
    assert np.array_equal(planes[1], codes[1])


@pytest.mark.parametrize("depth", [7, 8, 15, 16])
def test_counts_match_python_reference_at_code_width_edges(depth):
    # codes (context << 1) | bit need depth + 1 bits: uint8 up to depth 7,
    # uint16 up to 15, uint32 at 16; all-one rows after an all-one past
    # reach the largest code.  Row blocks split 240 rows of 300 positions
    # at depths 7 and 8, and hold one row each at 15 and 16
    rng = np.random.default_rng(90 + depth)
    top = (1 << depth) - 1
    for trials in (1, 3, 240) if depth < 9 else (1, 3):
        for n in sorted({0, 1, depth - 1, 300}):
            bits = rng.integers(0, 2, (trials, n)).astype(np.uint8)
            bits[0] = 1
            for state0 in (top, 0b1011):
                occ, ones = _kernels.count_batch(bits, state0, depth)
                ref_occ, ref_ones = _py_count_batch(bits, state0, depth)
                assert occ.dtype == ones.dtype == np.int64
                assert np.array_equal(occ, ref_occ)
                assert np.array_equal(ones, ref_ones)


@pytest.mark.parametrize("trials,n,depth,state0", COUNT_CASES + [(32, 1024, 2, 3), (8, 4097, 4, 6)])
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
        occ, ones = np.divmod(half_walk_codes(depth, state0, n), n + 1)
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


def test_azuma_walk_width_holds_the_longest_walks():
    # a walk of n < 2**15 steps fits int16; one more step needs int64
    for n in ((1 << 15) - 1, 1 << 15):
        u = np.full((3, n), 0.25)  # every step +1
        u[1] = 0.75  # every step -1
        u[2] = np.random.default_rng(n).random(n)
        for kind in (0, 1, 2):
            for gamma in (1.0, 0.999 * math.sqrt(n)):
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


def mix_unit(z):
    """splitmix64 of each uint64, its top 53 bits as a unit float."""
    with np.errstate(over="ignore"):
        z = z + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) / 2.0**53


def test_mix_unit_is_splitmix64():
    x = np.random.default_rng(3).integers(0, 2**64, 50, dtype=np.uint64)
    expect = [(_kernels.splitmix64(int(v)) >> 11) / 2.0**53 for v in x]
    assert mix_unit(x).tolist() == expect


def loop_domination(n, q, seeds, randomized):
    """One row per seed: each path's weight multiplied up position by
    position, then each row's paths added up in lexicographic order."""
    seeds = np.asarray(seeds, np.uint64).reshape(-1, 1)
    seq = np.arange(1 << n, dtype=np.int64)
    prob = np.ones((len(seeds), 1 << n))
    ones = np.zeros(1 << n, np.int64)
    node = np.ones(1 << n, np.int64)
    for i in range(n):
        b = (seq >> (n - 1 - i)) & 1
        if randomized:
            u = mix_unit(seeds ^ (node.astype(np.uint64) * np.uint64(0x94D049BB133111EB)))
            p1 = q + (1.0 - q) * u
        else:
            p1 = np.full((len(seeds), 1 << n), q)
        prob *= np.where(b == 1, p1, 1.0 - p1)
        ones += b
        node = node * 2 + b
    return np.array([np.bincount(ones, weights=row, minlength=n + 1) for row in prob])


ENUM_NS = (0, 1, 2, 5, 12, 16)


def pasts(depth):
    """Context codes of all-zero, all-one and mixed pasts at this depth."""
    return sorted({0, (1 << depth) - 1, 0b101 & ((1 << depth) - 1)})


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, 5, 6])
def test_enum_source_bit_identical_to_position_loop(depth):
    # at depths 4-6 the small ENUM_NS end before the context fills;
    # n = 17 at depth 4 adds an odd number of levels after it fills
    rng = np.random.default_rng(40 + depth)
    theta = rng.uniform(0.05, 0.95, 1 << depth)
    lt1, lt0 = np.log2(theta), np.log2(1 - theta)
    for n in ENUM_NS + ((17,) if depth == 4 else ()):
        for state0 in pasts(depth):
            out = _kernels.enum_source_log2(lt1, lt0, state0, depth, n)
            assert np.array_equal(out, loop_enum_source(lt1, lt0, state0, depth, n))


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_enum_ml_kt_bit_identical_to_position_loop(depth):
    gtab, htab = _kernels.kt_tables(max(ENUM_NS))
    for n in ENUM_NS:
        for state0 in pasts(depth):
            occ, ones = loop_enum_counts(depth, state0, n)
            assert np.array_equal(half_walk_codes(depth, state0, n), occ * (n + 1) + ones)
            assert np.array_equal(
                _kernels.enum_ml_log2(depth, state0, n), _kernels._ml_log2(occ, ones)
            )
            assert np.array_equal(
                _kernels.enum_kt_log2(depth, state0, n),
                _kernels._kt_log2(occ, ones, gtab, htab),
            )


# ---------------------------------------------------------------------------
# the ML and KT enumerations against the whole-tree walk they replaced: every
# sequence's packed code row built level by level, each code's context term
# gathered and summed over the context axis, compared with ==
# ---------------------------------------------------------------------------


def tree_enum_codes(depth, state0, n):
    m = 1 << depth
    mask = m - 1
    s = np.full(1, state0, np.int64)
    codes = np.zeros((1, m), np.int16)
    for t in range(n):
        parent, bit = np.repeat(s, 2), np.arange(2 << t, dtype=np.int64) & 1
        codes = np.repeat(codes, 2, axis=0)
        codes.reshape(-1)[np.arange(0, codes.size, m) + parent] += (bit + (n + 1)).astype(np.int16)
        s = ((parent << 1) | bit) & mask
    return codes


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
def test_enum_ml_kt_bit_identical_to_whole_tree_walk(depth):
    for n in (0, 1, 2, 5, 12, 16, 17) + ((20,) if depth <= 2 else ()):
        gtab, htab = _kernels.kt_tables(n)
        occ, ones = _kernels._code_table(n)
        for state0 in pasts(depth):
            codes = tree_enum_codes(depth, state0, n)
            ml = _kernels._ml_log2(occ, ones)[codes].sum(axis=-1)
            assert np.array_equal(_kernels.enum_ml_log2(depth, state0, n), ml)
            kt = _kernels._kt_log2(occ, ones, gtab, htab)[codes].sum(axis=-1)
            assert np.array_equal(_kernels.enum_kt_log2(depth, state0, n), kt)


# one sha256 over the ML and KT enumerations, recorded before the
# enumeration plans were kept: every past of each shape but the three
# slowest (depth 5 at n = 16, depth 6 at n = 12 and 16), which take the
# pasts above, each shape called twice, its second call after the next
# shape's first
ENUM_DIGEST = "94494e67d693e23bed2bb90c3acec512e1665ef91f57a5fca01390cda2b87f0e"


def enum_digest_shapes():
    shapes = []
    for depth in range(7):
        for n in (1, 5, 12, 16):
            every = depth <= 4 or n <= 5 or (depth, n) == (5, 12)
            shapes += [(depth, s, n) for s in (range(1 << depth) if every else pasts(depth))]
    order = [shapes[0]]
    for i in range(1, len(shapes)):
        order += [shapes[i], shapes[i - 1]]
    return order + [shapes[-1]]


def test_enum_ml_kt_match_their_recorded_digest():
    h = hashlib.sha256()
    for depth, state0, n in enum_digest_shapes():
        h.update(_kernels.enum_ml_log2(depth, state0, n).tobytes())
        h.update(_kernels.enum_kt_log2(depth, state0, n).tobytes())
    assert h.hexdigest() == ENUM_DIGEST


def test_enum_result_is_fresh_and_plans_are_read_only(monkeypatch):
    monkeypatch.setattr(_kernels, "_enum_plans", {})
    first = _kernels.enum_ml_log2(2, 1, 12)
    want = first.copy()
    first[:] = 0.0  # as shtarkov_sum exponentiates in place
    assert np.array_equal(_kernels.enum_ml_log2(2, 1, 12), want)
    assert list(_kernels._enum_plans) == [(2, 1, 12)]
    for entry in _kernels._enum_plan(2, 1, 12):
        for part in entry:
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part.reshape(-1)[0] = 1


@pytest.mark.parametrize("depth, n, refused", [
    (2, 16, False), (16, 12, False), (10, 19, False), (9, 20, False),
    (10, 20, True), (16, 14, True), (16, 20, True),
])
def test_enum_plan_refuses_shapes_over_the_row_limit(monkeypatch, depth, n, refused):
    # the check runs before the walks: a shape it admits reaches them
    def walk(*args):
        raise LookupError("walked")

    monkeypatch.setattr(_kernels, "_enum_plans", {})
    monkeypatch.setattr(_kernels, "_np_half_codes", walk)
    with pytest.raises(ValueError if refused else LookupError):
        _kernels._enum_plan(depth, 0, n)


def test_enum_plans_keep_a_fixed_number(monkeypatch):
    monkeypatch.setattr(_kernels, "_enum_plans", {})
    # depth 0 from n = 4 on: below that a plan outweighs the result
    shapes = [(0, 0, n) for n in range(4, 17)]
    for depth, state0, n in shapes:
        _kernels.enum_kt_log2(depth, state0, n)
    assert list(_kernels._enum_plans) == shapes[-_kernels._ENUM_PLANS :]


def test_enum_from_threads_equals_serial_calls(monkeypatch):
    # verify all runs its tasks on a thread pool, and they share the plans
    shapes = [(2, s, n) for s in range(4) for n in (9, 12)] * 3
    shapes += [(4, 5, 12), (0, 0, 16)] * 3
    monkeypatch.setattr(_kernels, "_enum_plans", {})
    serial = [_kernels.enum_ml_log2(*shape) for shape in shapes]
    monkeypatch.setattr(_kernels, "_ENUM_PLANS", 3)  # so that threads also evict
    monkeypatch.setattr(_kernels, "_enum_plans", {})
    with ThreadPoolExecutor(max_workers=4) as pool:
        pooled = list(pool.map(lambda shape: _kernels.enum_ml_log2(*shape), shapes))
    assert all(np.array_equal(a, b) for a, b in zip(pooled, serial))
    assert len(_kernels._enum_plans) <= 3


def traced_kept(call):
    """tracemalloc bytes still held after one call, its result dropped."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_enum_keeps_no_plan_larger_than_its_result(monkeypatch):
    # a plan is kept only while it takes no more than one 8 * 2**n byte
    # result: about 17 KB at depth 2, n = 16, but 2.3 MB at depth 6, n = 16
    # and 2.2 MB at depth 8, n = 12, against results of 512 and 32 KB.
    # A first enumeration in the process keeps memory of its own: it grows
    # the shared add-half tables (about 16.6 KB) and fills numpy's cache of
    # small buffers (about 6 KB); one call of another past, whose plan is
    # not kept either, does both before any call is measured
    monkeypatch.setattr(_kernels, "_enum_plans", {})
    _kernels.enum_kt_log2(6, 1, 16)
    for shape in ((6, 0, 16), (8, 0, 12)):
        assert traced_kept(lambda: _kernels.enum_kt_log2(*shape)) < 4096
        assert traced_kept(lambda: _kernels.enum_ml_log2(*shape)) < 4096
    assert not _kernels._enum_plans
    kept = traced_kept(lambda: _kernels.enum_ml_log2(2, 1, 16))
    assert 10_000 < kept <= 8 << 16


def test_distinct_rows_match_unique():
    rng = np.random.default_rng(9)
    for shape in ((1, 1), (7, 1), (300, 4), (64, 16)):
        rows = rng.integers(0, 3, shape).astype(np.int16)
        distinct, index = _kernels._distinct_rows(rows)
        ref, ref_index = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(distinct, ref)
        assert np.array_equal(index, ref_index.reshape(-1))
        assert np.array_equal(distinct[index], rows)


def test_enumeration_does_not_import_numpy_ma():
    # np.unique(axis=0) imports numpy.ma, which costs about 1 MB of RSS
    code = (
        "import sys\n"
        "from mdelta import coders, redundancy, source\n"
        "src = source.random_hypercube_source(2, 0.1, seed=1)\n"
        "coders.shtarkov_sum(2, '01', 12)\n"
        "redundancy.exact_avg_redundancy(src, '01', coders.KTCoder(2, '01'), 12)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def traced_peak(call):
    """tracemalloc peak in bytes of one call, after a warm call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_source_enumeration_peak_memory():
    # one level array and its parent, not a handful of 2**n-row temporaries
    # per level (3.6 MB at this shape before the strided level writes)
    from mdelta import coders, redundancy, source

    theta = np.random.default_rng(4).uniform(0.05, 0.95, 16)
    lt1, lt0 = np.log2(theta), np.log2(1 - theta)
    assert traced_peak(lambda: _kernels.enum_source_log2(lt1, lt0, 15, 4, 16)) < 1.25e6
    src = source.random_hypercube_source(4, 0.05, seed=3)
    coder = coders.KTCoder(2, "01")
    assert traced_peak(lambda: redundancy.exact_avg_redundancy(src, "0101", coder, 16)) < 2e6


@pytest.mark.parametrize("shape", [(256, 4096, 4), (48, 16384, 7), (64, 16384, 2), (256, 4096, 3)])
def test_count_peak_memory(shape):
    # row blocks: narrow codes at depth 7, about 0.8 MB, and bit planes at
    # the others, at most 2**4 masks of 2**12 words, where a single (T, n)
    # int64 array of codes or states would take 6-8 MB
    T, n, depth = shape
    bits = (np.random.default_rng(depth).random((T, n)) < 0.5).astype(np.uint8)
    assert traced_peak(lambda: _kernels.count_batch(bits, 1, depth)) < 1.5e6


@pytest.mark.parametrize("randomized", [False, True])
def test_domination_bit_identical_to_position_loop(randomized):
    for n in (0, 1, 2, 5, 12, 13, 14):
        cases = ((0.1, 0), (0.3, 12345), (0.5, 2**63 + 11), (0.0, 7), (1.0, 2**64 - 1))
        for q, seed in cases:
            out = _kernels.domination_dist(n, q, seed, randomized)
            assert out.shape == (n + 1,)
            assert np.array_equal(out, loop_domination(n, q, seed, randomized)[0])
        # seed batches on both sides of a block of processes: one seed, one
        # short of a block, a full block, one more, and two blocks and one
        step = max(1, _kernels._DOMINATION_PATHS >> n)
        seeds = np.random.default_rng(n).integers(0, 2**64, 2 * step + 1, dtype=np.uint64)
        sizes = sorted({1, max(1, step - 1), step, step + 1, 2 * step + 1})
        for batch in [seeds[:k] for k in sizes] + [list(map(int, seeds[:3]))]:
            for q in (0.3, 0.0, 1.0) if len(batch) == step + 1 else (0.3,):
                out = _kernels.domination_dist(n, q, batch, randomized)
                assert out.shape == (len(batch), n + 1)
                assert np.array_equal(out, loop_domination(n, q, batch, randomized))


def test_domination_scratch_memory():
    # five arrays of a block's 2**14 path weights (two hashing uint64 arrays
    # that then take the level weights, p0 and p1, the bincount's bins) and
    # numpy's iterator buffers: about 0.8 MB at n = 12 with 32 seeds, where
    # fresh per-level arrays or arrays of the whole batch would take 1 MB each
    seeds = _kernels._child_seeds(5, "domination-q0.3-proc", 32)
    for randomized in (False, True):
        assert traced_peak(lambda: _kernels.domination_dist(12, 0.3, seeds, randomized)) < 1e6


def test_domination_keeps_plans_only_while_a_process_fits_a_block(monkeypatch):
    monkeypatch.setattr(_kernels, "_domination_plans", {})
    big = _kernels._DOMINATION_PATHS.bit_length()  # 2**big paths: one process outgrows a block
    for n in (3, big - 1, big):
        _kernels.domination_dist(n, 0.3, [1, 2], True)
    assert sorted(_kernels._domination_plans) == [3, big - 1]
    nodes, leaves, ones = _kernels._domination_plans[3]
    # level i in bit-reversed order: level 2 is 4, 6, 5, 7
    assert nodes.tolist() == [(h * int(_kernels._SM3)) % 2**64 for h in (0, 1, 2, 3, 4, 6, 5, 7)]
    assert leaves.tolist() == [0, 4, 2, 6, 1, 5, 3, 7]
    assert ones.tolist() == [0, 1, 1, 2, 1, 2, 2, 3]
    assert not any(part.flags.writeable for part in (nodes, leaves, ones))


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


def counted_row_loop(monkeypatch):
    """Patch the row loop to record the rows of each call it takes."""
    rows, real = [], _kernels._row_loop

    def row_loop(theta, state0, ell, u, out):
        rows.append(len(u))
        return real(theta, state0, ell, u, out)

    monkeypatch.setattr(_kernels, "_row_loop", row_loop)
    return rows


@pytest.mark.parametrize("trials", [1, 2, ROWS - 1])
def test_small_batches_settle_or_fall_back_to_the_row_loop(trials, monkeypatch):
    # under ROWS rows, near-fair theta settles every block (n = 4096 puts
    # 35 rows in blocks of 32 and 3), and wide theta at ell 6, its runs
    # predicted too long, goes to the row loop before any block
    rows = counted_row_loop(monkeypatch)
    rng = np.random.default_rng(90 + trials)
    near_fair, wide = 0.5 + rng.uniform(-1, 1, 64) / 16, rng.uniform(0.01, 0.99, 64)
    u = rng.random((trials, 4096))
    for theta, fallback in ((near_fair, []), (wide, [trials])):
        for state0 in pasts(6):
            rows.clear()
            out = _kernels.sample_batch(theta, state0, 6, u)
            assert out.dtype == np.uint8
            assert np.array_equal(out, loop_sample(theta, state0, 6, u))
            assert rows == fallback


def test_small_batches_of_few_draws_run_row_by_row(monkeypatch):
    # batches under ROWS rows and _SETTLE_FIXED_DRAWS draws, a settle's
    # fixed cost, run row by row whatever theta, equal thetas included;
    # from there on near-fair theta settles
    rows = counted_row_loop(monkeypatch)
    settled, settle = [], _kernels._settle

    def counted_settle(*args):
        settled.append(args[3].shape)
        return settle(*args)

    monkeypatch.setattr(_kernels, "_settle", counted_settle)
    rng = np.random.default_rng(95)
    near_fair = 0.5 + rng.uniform(-1, 1, 8) / 16
    least = _kernels._SETTLE_FIXED_DRAWS
    cases = [(theta, shape, False) for theta in (np.full(8, 0.3), near_fair, rng.uniform(0.01, 0.99, 8))
             for shape in ((1, 1), (1, least - 1), (8, 100), (ROWS - 1, 29))]
    # at exactly the fixed cost a near-fair batch's passes tip it to the row loop
    cases += [(near_fair, shape, shape != (1, least)) for shape in ((1, least), (1, 4096), (2, 1000), (ROWS - 1, 58))]
    for theta, (trials, n), settles in cases:
        u = rng.random((trials, n))
        rows.clear()
        settled.clear()
        assert np.array_equal(_kernels.sample_batch(theta, 5, 3, u), loop_sample(theta, 5, 3, u))
        assert rows == ([] if settles else [trials])
        assert settled == ([(trials, n)] if settles else [])


# batches of at least ROWS rows settle the draws that read their state in
# run order, or fall back to the loop over positions; the thetas below
# drive both paths, on blocks that split T unevenly


def sampler_cases(ell, rng):
    """(theta, uniforms sampler) pairs: near-fair hypercube thetas (which
    settle), wide ones (which may fall back), ties u == theta[s] with 0 and 1
    in theta, and all-equal theta (no draw reads its state)."""
    size = 1 << ell
    grid = np.array([0.0, 0.25, 0.5, 0.75])
    return [
        (0.5 + rng.uniform(-1, 1, size) * 0.03, rng.random),
        (rng.uniform(0.01, 0.99, size), rng.random),
        (rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size), lambda shape: rng.choice(grid, shape)),
        (np.full(size, 0.25), lambda shape: rng.choice(grid, shape)),
    ]


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_sample_settled_blocks_bit_identical_to_position_loop(ell, monkeypatch):
    # 256-draw blocks: n=100 gives 2-row blocks, so every T splits unevenly
    monkeypatch.setattr(_kernels, "_SETTLE_DRAWS", 256)
    rng = np.random.default_rng(60 + ell)
    for theta, draw in sampler_cases(ell, rng):
        for trials in (36, 37, 48, 200):
            for n in sorted({1, ell, 100}):
                u = draw((trials, n))
                for state0 in range(1 << ell):
                    out = _kernels.sample_batch(theta, state0, ell, u)
                    assert out.dtype == np.uint8 and out.shape == (trials, n)
                    assert np.array_equal(out, loop_sample(theta, state0, ell, u))


@pytest.mark.parametrize("ell", [1, 7])
def test_sample_full_blocks_bit_identical_to_position_loop(ell):
    # n=2000 gives 16-row blocks at the real block size
    rng = np.random.default_rng(70 + ell)
    thetas = [theta for theta, _ in sampler_cases(ell, rng)[:2]]
    if ell == 1:
        thetas.append(np.array([0.999, 0.001]))
    for theta in thetas:
        for trials in (37, 200):
            u = rng.random((trials, 2000))
            for state0 in pasts(ell):
                assert np.array_equal(
                    _kernels.sample_batch(theta, state0, ell, u), loop_sample(theta, state0, ell, u)
                )


def longest_run(theta, ell, u):
    """Size of the longest run of ambiguous draws (min theta <= u < max
    theta), each within ell positions of the one before, in any row: a
    run breaks where two ambiguous draws are more than ell apart, and at
    a row's end."""
    lo, hi = theta.min(), theta.max()
    best = 0
    for row in u:
        at = np.flatnonzero((row >= lo) & (row < hi))
        if at.size:
            ends = np.flatnonzero(np.diff(at) > ell)
            best = max(best, int(np.diff(np.concatenate(([-1], ends, [at.size - 1]))).max()))
    return best


def spread_theta(p, ell):
    """A theta whose min and max are p apart about 1/2."""
    return np.linspace(0.5 - p / 2, 0.5 + p / 2, 1 << ell)


@pytest.mark.parametrize(
    "T, n, ell, p, predicted",
    [
        (32, 4096, 2, 1 / 8, 7.5),
        (128, 1024, 4, 1 / 8, 11.4),
        (32, 4096, 2, 0.3, 15.7),
        (512, 256, 2, 0.6, 55.1),
        (8, 4096, 3, 0.6, 108.9),
    ],
)
def test_predicted_longest_run_tracks_the_observed_one(T, n, ell, p, predicted):
    # the longest-run law's prediction for T * n draws, and the longest
    # run observed on three batches of uniforms, each within [0.75, 1.5] of
    # it (observed on five batches each: 6-8, 10-12, 15-18, 51-57 and
    # 100-148)
    got = _kernels._longest_run(T * n, p, ell)
    assert got == pytest.approx(predicted, abs=0.05)
    theta = spread_theta(p, ell)
    rng = np.random.default_rng(int(p * 1000) + ell)
    for _ in range(3):
        assert 0.75 * got <= longest_run(theta, ell, rng.random((T, n))) <= 1.5 * got


def test_longest_run_reads_no_run_without_spread_and_single_draws_without_memory():
    for ell in (0, 1, 6):
        assert _kernels._longest_run(4096, 0.0, ell) == 0.0
    # at ell 0 no draw reads another's bit: every run is one draw, whatever p
    for p in (0.01, 0.5, 1.0):
        assert _kernels._longest_run(4096, p, 0) == 1.0
    # a theta holding 0 and 1 at ell >= 1: every draw is ambiguous, one run
    assert _kernels._longest_run(4096, 1.0, 1) == math.inf


@pytest.mark.parametrize("ell", [0, 1, 6])
def test_fallback_settles_when_no_draw_reads_its_state(ell):
    theta = np.full(1 << ell, 0.3)
    least = _kernels._SETTLE_FIXED_DRAWS
    for T, n in ((1, least + 1), (1, 4096), (ROWS - 1, 1024), (ROWS, 1), (ROWS, 4096), (2048, 100)):
        assert _kernels._fallback(theta, ell, T, n, max(1, _kernels._SETTLE_DRAWS // n)) is None


def test_fallback_takes_the_row_loop_for_one_wide_row_at_ell_6():
    # theta U(.01, .99) over 64 states: p over 0.9, q within 1e-6 of 1, so
    # fewer than one run is expected and the law would predict under one
    # draw; the mean run, longer than the row, sends it to the row loop
    theta = np.random.default_rng(2).uniform(0.01, 0.99, 64)
    p = float(theta.max() - theta.min())
    assert p > 0.9
    assert _kernels._longest_run(4096, p, 6) > 4096
    assert _kernels._fallback(theta, 6, 1, 4096, 32) is _kernels._row_loop


def test_fallback_switches_loops_at_the_row_loop_rows():
    # wide theta falls back to the row loop under ROWS rows and to the loop
    # over positions from there on; near-fair theta settles on both sides
    step = _kernels._SETTLE_DRAWS // 4096
    wide, near_fair = spread_theta(0.9, 4), spread_theta(1 / 16, 4)
    assert _kernels._fallback(wide, 4, ROWS - 1, 4096, step) is _kernels._row_loop
    assert _kernels._fallback(wide, 4, ROWS, 4096, step) is _kernels._sample_loop
    assert _kernels._fallback(near_fair, 4, ROWS - 1, 4096, step) is None
    assert _kernels._fallback(near_fair, 4, ROWS, 4096, step) is None


class LookupCounter(np.ndarray):
    """A theta that counts the states looked up in it."""

    def __getitem__(self, index):
        out = np.asarray(self)[index]
        self.lookups += np.size(out)
        return out


def settle_cases():
    """(name, theta, ell, uniforms): hand-made rows at ell = 2, a block
    with no ambiguous draw, ell = 0, and near-fair runs at ell = 7."""
    rng = np.random.default_rng(82)
    # theta[s] for s = 0 .. 3: u = 0.3 is a 1 unless s = 0, u = 0.5 a 1 when
    # the bit two back is, u = 0.7 a 1 only at s = 3; 0.1 and 0.9 are fixed
    spread = np.array([0.2, 0.4, 0.6, 0.8])
    edges = np.array([
        # a first draw that reads only the past, then a run that ends in
        # the row's last column
        [0.3, 0.5, 0.9, 0.9, 0.9, 0.1, 0.9, 0.9, 0.9, 0.5, 0.3, 0.7],
        # a run that starts in the first column again: it reads the past,
        # not the run that ended the row before
        [0.5, 0.7, 0.3, 0.5, 0.9, 0.9, 0.9, 0.1, 0.1, 0.7, 0.9, 0.5],
        [0.1, 0.9, 0.9, 0.1, 0.1, 0.9, 0.9, 0.9, 0.1, 0.9, 0.1, 0.9],
    ])
    near_fair = 0.5 + rng.uniform(-1, 1, 128) / 16
    # one 300-draw run at ell 1, each draw flipping the next; elsewhere a 0
    # in every state
    long_run = np.full((1, 4096), 0.9995)
    long_run[0, 100:400] = 0.5
    # theta reads only the bit two back; per 13 positions: two fixed 1s,
    # then A, B1, B2 that read their state, then fixed 0s: runs of 3
    stall = np.tile([0.1, 0.1, 0.6, 0.6, 0.6] + [0.9] * 8, (8, 315))
    return [
        ("edges", spread, 2, edges),
        ("none", spread, 2, np.tile(edges[2], (4, 1))),
        ("ell0", np.array([0.3]), 0, rng.random((40, 50))),
        ("ell7", near_fair, 7, rng.random((4, 600))),
        ("run300", np.array([0.999, 0.001]), 1, long_run),
        ("stall", np.array([0.5, 0.5, 0.75, 0.75]), 2, stall),
    ]


@pytest.mark.parametrize("case", settle_cases(), ids=lambda case: case[0])
def test_settle_evaluates_each_ambiguous_draw_once(case):
    _, theta, ell, u = case
    lo, hi = theta.min(), theta.max()
    for state0 in range(1 << ell) if ell < 3 else pasts(ell):
        counted = theta.view(LookupCounter)
        counted.lookups = 0
        bits = _kernels._settle(counted, state0, ell, u)
        assert np.array_equal(bits, loop_sample(theta, state0, ell, u))
        assert counted.lookups == np.count_nonzero((u >= lo) & (u < hi))
        if case[0] == "edges":
            # the first draw of each row reads the past alone
            assert bits[0, 0] == (state0 != 0)
            assert bits[1, 0] == state0 >> 1
        if case[0] in ("run300", "stall"):
            assert longest_run(theta, ell, u) == (300 if case[0] == "run300" else 3)


@pytest.mark.parametrize("rows", [512, 1024])
def test_wide_theta_at_ell_1_settles_every_block(rows, monkeypatch):
    # about 47 % of the draws read their state, in runs of a few dozen at
    # most: settling every block costs no more than the loop over positions
    # (about 0.6x of it at 1024 rows, level at 512; BENCH_settle.json)
    calls = {"settle": 0, "loop": 0}
    settle, loop = _kernels._settle, _kernels._sample_loop

    def counted_settle(*args):
        calls["settle"] += 1
        return settle(*args)

    def counted_loop(*args):
        calls["loop"] += 1
        return loop(*args)

    monkeypatch.setattr(_kernels, "_settle", counted_settle)
    monkeypatch.setattr(_kernels, "_sample_loop", counted_loop)
    theta = np.array([0.26, 0.73])
    u = np.random.default_rng(rows).random((rows, 4096))
    bits = _kernels.sample_batch(theta, 1, 1, u)
    assert calls == {"settle": rows // 32, "loop": 0}
    assert np.array_equal(bits, loop_sample(theta, 1, 1, u))
