import functools
import hashlib
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdelta import _kernels
from mdelta.coders import SourceCoder
from mdelta.delta import DeltaSpec
from mdelta.source import (
    ContextTree,
    ContinuityGenerationError,
    MarkovSource,
    _fold,
    aggregate_moments,
    as_bits,
    bits_to_str,
    check_continuity,
    count_table,
    empirical_aggregate,
    format_source,
    full_tree,
    parse_source,
    random_continuity_source,
    random_hypercube_source,
    state_code,
)

bit_strings = st.text(alphabet="01", min_size=0, max_size=40)


def fair(ell=0):
    tree = full_tree(ell)
    return MarkovSource(tree, {w: 0.5 for w in tree.leaves})


# ---------------------------------------------------------------------------
# trees and context lookup
# ---------------------------------------------------------------------------


def test_context_of_depth_one():
    tree = full_tree(1)
    assert tree.context_of("10") == "0"
    assert tree.context_of("01") == "1"


def test_context_of_uneven_tree():
    tree = ContextTree(["1", "10", "00"])
    assert tree.memory == 2
    assert tree.context_of("001") == "1"
    assert tree.context_of("100") == "00"
    assert tree.context_of("010") == "10"


def test_invalid_trees_rejected():
    with pytest.raises(ValueError, match="word '01' has 2 leaf suffixes"):
        ContextTree(["1", "01", "00"])  # "1" is a suffix of "01"
    with pytest.raises(ValueError, match="word '00' has 0 leaf suffixes"):
        ContextTree(["11", "01"])  # pasts ending in 0 are uncovered
    with pytest.raises(ValueError, match="duplicate leaves"):
        ContextTree(["0", "0", "1"])
    with pytest.raises(ValueError, match="empty leaf set"):
        ContextTree([])
    with pytest.raises(ValueError, match="is not a 0/1 string"):
        ContextTree(["0", "1x"])


def comb(m):
    """The comb tree 1, 10, ..., 10^(m-1), 0^m: memory m with m + 1 leaves."""
    return ["1" + "0" * k for k in range(m)] + ["0" * m]


def test_tree_deeper_than_the_cap_is_refused_before_allocating():
    # its state tables take about 24 * 2**m bytes: 24 MB at m = 20, 24 GB at 30
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^depth must lie in 0\.\.16, got 17$"):
            ContextTree(comb(17))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
    assert ContextTree(comb(16)).memory == 16


def string_state_leaf(leaves, memory):
    """Leaf index of every length-memory word, by suffix matching on strings."""
    words = (format(c, f"0{memory}b") if memory else "" for c in range(1 << memory))
    return [next(i for i, s in enumerate(leaves) if w.endswith(s)) for w in words]


@pytest.mark.parametrize("leaves", [
    [""],
    ["0", "1"],
    ["1", "10", "00"],
    ["1", "10", "000", "100"],
    ["1" + "0" * k for k in range(7)] + ["0" * 7],
    ["00", "10", "001", "101", "11"],
])
def test_state_leaf_index_matches_string_suffixes(leaves):
    tree = ContextTree(leaves)
    want = string_state_leaf(tree.leaves, tree.memory)
    assert tree.state_leaf_index.tolist() == want
    assert not tree.state_leaf_index.flags.writeable


def test_full_tree_is_shared_and_read_only():
    for ell in range(0, 9):
        tree = full_tree(ell)
        assert full_tree(ell) is tree
        assert not tree.state_leaf_index.flags.writeable
        assert tree.leaves == tuple("".join(p) for p in itertools.product("01", repeat=ell))
        assert [int(w, 2) if w else 0 for w in tree.leaves] == list(range(1 << ell))
    with pytest.raises(ValueError):
        full_tree(3).state_leaf_index[0] = 1


def test_theta_looks_up_leaves_and_rejects_others():
    src = MarkovSource(ContextTree(["1", "10", "00"]), {"1": 0.2, "10": 0.4, "00": 0.6})
    assert [src.theta(w) for w in ("1", "10", "00")] == [0.2, 0.4, 0.6]
    with pytest.raises(ValueError, match="'01' is not a leaf"):
        src.theta("01")


def test_theta_is_validated_and_kept_as_python_floats():
    tree = full_tree(2)
    want = (0.125, 0.25, 0.5, 0.75)
    for theta in (list(want), np.array(want), np.array(want, np.float32), iter(want),
                  {"00": 0.125, "01": 0.25, "10": 0.5, "11": 0.75}):
        src = MarkovSource(tree, theta)
        assert src.probs == want and all(type(p) is float for p in src.probs)
    for bad in ([0.5, 0.5, 0.5, 0.0], [0.5, 0.5, 0.5, 1.0], [0.5, 0.5, 0.5, float("nan")], [2.0] * 4):
        with pytest.raises(ValueError, match=r"^every transition probability must lie strictly in \(0, 1\)$"):
            MarkovSource(tree, bad)
    with pytest.raises(ValueError, match="^theta length does not match leaf count$"):
        MarkovSource(tree, [0.5] * 3)
    with pytest.raises(ValueError, match=r"^theta missing for leaves \['11'\]$"):
        MarkovSource(tree, {"00": 0.5, "01": 0.5, "10": 0.5})


def test_history_too_short():
    tree = full_tree(3)
    with pytest.raises(ValueError):
        tree.context_of("01")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**12 - 1))
def test_completeness_every_history_has_one_leaf(code):
    tree = ContextTree(["1", "10", "000", "100"])
    history = format(code, "012b")
    leaf = tree.context_of(history)
    assert history.endswith(leaf)
    assert sum(history.endswith(s) for s in tree.leaves) == 1


def test_completeness_random_histories_full_tree():
    tree = full_tree(4)
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        history = bits_to_str(rng.integers(0, 2, 6))
        leaf = tree.context_of(history)
        assert history.endswith(leaf) and len(leaf) == 4


# ---------------------------------------------------------------------------
# log probabilities
# ---------------------------------------------------------------------------


def test_log_prob_fair_coin():
    assert SourceCoder(fair(), "").log2_prob("0110") == pytest.approx(-4.0, abs=1e-12)


def test_log_prob_memory_one():
    src = MarkovSource(full_tree(1), {"0": 0.25, "1": 0.75})
    assert SourceCoder(src, "0").log2_prob("11") == pytest.approx(math.log2(0.25 * 0.75), abs=1e-12)


def test_log_prob_empty_sequence():
    src = MarkovSource(full_tree(2), {"00": 0.2, "01": 0.4, "10": 0.6, "11": 0.8})
    assert SourceCoder(src, "01").log2_prob("") == 0.0


@settings(max_examples=50, deadline=None)
@given(bit_strings, bit_strings)
def test_chain_rule_consistency(x, y):
    src = MarkovSource(full_tree(2), {"00": 0.2, "01": 0.4, "10": 0.6, "11": 0.8})
    past = "01"
    joint = SourceCoder(src, past).log2_prob(x + y)
    split = SourceCoder(src, past).log2_prob(x) + SourceCoder(src, past + x).log2_prob(y)
    assert joint == pytest.approx(split, abs=1e-10)


def test_brute_force_total_mass():
    src = MarkovSource(full_tree(2), {"00": 0.2, "01": 0.4, "10": 0.6, "11": 0.8})
    for past in ("00", "11", "10"):
        total = np.exp2(SourceCoder(src, past).log2_prob_all(8)).sum()
        assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_deterministic_given_seed():
    src = MarkovSource(full_tree(1), {"0": 0.3, "1": 0.7})
    a = src.sample("0", 64, seed=11)
    b = src.sample("0", 64, seed=11)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, src.sample("0", 64, seed=12))


def test_sample_biased_source_mostly_ones():
    src = MarkovSource(full_tree(0), {"": 0.999})
    bits = src.sample("", 100, seed=5)
    assert bits.sum() >= 95  # P(fewer) is a vanishing binomial tail


def sample_chunks_and_state(src, past, n, trials, seed):
    rng = np.random.default_rng(seed)
    chunks = list(src._sample_chunks(past, n, trials, rng))
    return chunks, rng.bit_generator.state


def one_batch_and_state(src, past, n, trials, seed):
    rng = np.random.default_rng(seed)
    bits = _kernels.sample_batch(src.state_theta, state_code(past, src.memory), src.memory, rng.random((trials, n)))
    return bits, rng.bit_generator.state


# per trial count, the path each chunk of the near-fair and the alternating
# source takes: a single 512-bit row is under a settle's fixed cost; the
# alternating source's runs fill its rows, so from 36 rows on it takes the
# loop over positions and below that the row loop
CHUNK_PATHS = {
    1: (["_row_loop"], ["_row_loop"]),
    35: (["_settle"], ["_row_loop"]),
    36: (["_settle"], ["_sample_loop"]),
    300: (["_settle"] * 3, ["_sample_loop"] * 3),
}


@pytest.mark.parametrize("trials", [1, 35, 36, 300])
def test_sample_chunks_equal_one_sample_batch(trials, monkeypatch):
    # chunks of 120 rows (the last one short), 4096-draw settle blocks of
    # 8 rows; every path gives the bits and leaves the rng where one
    # sample_batch call on rng.random((trials, 512)) does, and the count
    # stream yields each chunk's rows with the tables count_batch gives its
    # bits from the past's code, at depths below, at and above the memory
    from mdelta import source as source_mod

    monkeypatch.setattr(source_mod, "_TRIAL_BUDGET_BYTES", 8 * 512 * 120)
    monkeypatch.setattr(_kernels, "_SETTLE_DRAWS", 4096)
    paths, fallback = [], _kernels._fallback

    def recorded_fallback(*args):
        loop = fallback(*args)
        paths.append("_settle" if loop is None else loop.__name__)
        return loop

    monkeypatch.setattr(_kernels, "_fallback", recorded_fallback)
    near_fair = random_hypercube_source(3, 0.05, seed=4)
    alternating = MarkovSource(full_tree(1), [0.999, 0.001])
    for src, taken in zip((near_fair, alternating), CHUNK_PATHS[trials]):
        past = "10" + "1" * src.memory
        paths.clear()
        chunks, state = sample_chunks_and_state(src, past, 512, trials, 9)
        assert paths == taken
        assert [rows for rows, _ in chunks] == [slice(r, min(r + 120, trials)) for r in range(0, trials, 120)]
        bits, want = one_batch_and_state(src, past, 512, trials, 9)
        assert np.array_equal(np.concatenate([b for _, b in chunks]), bits)
        assert state == want
        for depth in (src.memory - 1, src.memory, src.memory + 2):
            paths.clear()
            rng = np.random.default_rng(9)
            counted = list(src._count_chunks(past, 512, trials, rng, depth))
            assert paths == taken
            assert rng.bit_generator.state == want
            assert [rows for rows, _, _ in counted] == [rows for rows, _ in chunks]
            for (rows, occ, ones), (_, b) in zip(counted, chunks):
                want_occ, want_ones = _kernels.count_batch(b, state_code(past, depth), depth)
                assert np.array_equal(occ, want_occ) and np.array_equal(ones, want_ones)


def test_sample_settled_or_row_by_row_is_the_loop_over_one_row():
    # one n = 4096 row settles on a near-fair source and falls back to the
    # row loop on a wide one; either way it is the loop over positions on
    # default_rng(seed).random((1, n))
    wide = MarkovSource(full_tree(6), np.random.default_rng(2).uniform(0.01, 0.99, 64))
    for src in (random_hypercube_source(6, 1 / 16, seed=1), wide):
        for past in ("000000", "101101"):
            bits = src.sample(past, 4096, seed=17)
            want = np.empty((1, 4096), np.uint8)
            u = np.random.default_rng(17).random((1, 4096))
            _kernels._sample_loop(src.state_theta, state_code(past, 6), 6, u, want)
            assert np.array_equal(bits, want[0])


def test_sample_empty():
    # an empty sample is an empty uint8 row
    for src, past in ((fair(), ""), (random_hypercube_source(3, 0.2, seed=4), "101")):
        bits = src.sample(past, 0, seed=1)
        assert bits.dtype == np.uint8 and bits.shape == (0,)


def test_sample_refuses_a_negative_length():
    with pytest.raises(ValueError, match="^n must be at least 0, got -3$"):
        fair().sample("", -3, seed=1)


def test_empirical_state_frequencies_match_stationary():
    src = random_hypercube_source(2, 1 / 16, seed=3)
    n = 10**6
    bits = src.sample("00", n, seed=4)
    occ, _ = count_table(bits, "00", 2)
    pi = src.stationary
    for code in range(4):
        expect = pi[code] * n
        sigma = math.sqrt(n * pi[code] * (1 - pi[code]))
        assert abs(occ[code] - expect) <= 5 * sigma


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def row(table, w):
    """(n_w, n_w1) of a context given as a bit string."""
    occ, ones = table
    code = state_code(w, len(w))
    return int(occ[code]), int(ones[code])


def test_count_table_depth_one():
    table = count_table("11010", "0", 1)
    assert row(table, "0") == (2, 2)
    assert row(table, "1") == (3, 1)
    assert table[0].sum() == 5


def test_count_table_all_ones():
    table = count_table("1111", "1", 1)
    assert row(table, "1") == (4, 4)
    assert row(table, "0") == (0, 0)


def test_count_table_depth_two():
    # contexts of 0,1,0,1 after past "10" are 10, 00, 01, 10
    table = count_table("0101", "10", 2)
    assert row(table, "10") == (2, 1)
    assert row(table, "00") == (1, 1)
    assert row(table, "01") == (1, 0)
    assert row(table, "11") == (0, 0)


def test_count_table_is_row_zero_of_the_batched_count():
    x = fair().sample("", 300, seed=5)
    for depth in range(4):
        occ, ones = count_table(x, "110", depth)
        batch_occ, batch_ones = _kernels.count_batch(x[None, :], state_code("110", depth), depth)
        assert occ.shape == ones.shape == (1 << depth,)
        assert np.array_equal(occ, batch_occ[0]) and np.array_equal(ones, batch_ones[0])


@settings(max_examples=60, deadline=None)
@given(bit_strings)
def test_count_marginalization(x):
    deep_occ, deep_ones = count_table(x, "101", 3)
    occ, ones = count_table(x, "101", 2)
    assert np.array_equal(_fold(deep_occ, 2), occ)
    assert np.array_equal(_fold(deep_ones, 2), ones)


# ---------------------------------------------------------------------------
# stationary law and aggregation
# ---------------------------------------------------------------------------


def test_stationary_iid_case():
    src = MarkovSource(full_tree(1), {"0": 0.3, "1": 0.3})
    pi = src.stationary
    assert pi[1] == pytest.approx(0.3, abs=1e-11)


def test_stationary_two_state_balance():
    a, b = 0.2, 0.7
    src = MarkovSource(full_tree(1), {"0": a, "1": b})
    pi = src.stationary
    assert pi[1] == pytest.approx(a / (1 + a - b), abs=1e-11)


def test_stationary_is_fixed_point():
    src = random_hypercube_source(3, 0.1, seed=9)
    pi = src.stationary
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    m = pi.size
    th = src.state_theta
    codes = np.arange(m)
    nxt = np.bincount(((codes << 1) | 1) & (m - 1), weights=pi * th, minlength=m)
    nxt += np.bincount((codes << 1) & (m - 1), weights=pi * (1 - th), minlength=m)
    assert np.abs(nxt - pi).sum() <= 1e-12


def test_aggregate_conditional_leaf_and_empty():
    src = MarkovSource(full_tree(2), {"00": 0.2, "01": 0.4, "10": 0.6, "11": 0.8})
    assert src.aggregate_conditional("01") == 0.4
    pi = src.stationary
    expect_one = float((pi * src.state_theta).sum())
    assert src.aggregate_conditional("") == pytest.approx(expect_one, abs=1e-12)


def test_aggregate_conditional_weighted_average():
    src = MarkovSource(full_tree(2), {"00": 0.2, "01": 0.4, "10": 0.6, "11": 0.8})
    pi = src.stationary
    c01, c11 = state_code("01", 2), state_code("11", 2)
    expect = (pi[c01] * 0.4 + pi[c11] * 0.8) / (pi[c01] + pi[c11])
    assert src.aggregate_conditional("1") == pytest.approx(expect, abs=1e-12)


def test_aggregation_mass_consistency():
    src = random_hypercube_source(3, 0.05, seed=2)
    pi = src.stationary
    for w in ("", "1", "01", "10"):
        k = len(w)
        members = [s for s in src.tree.leaves if s.endswith(w)]
        leaf_mass = np.bincount(src.tree.state_leaf_index, weights=src.stationary)
        total = sum(leaf_mass[src.tree.leaves.index(s)] for s in members)
        cols = pi.reshape(1 << (3 - k), 1 << k)[:, state_code(w, k) if k else 0].sum()
        assert total == pytest.approx(float(cols), abs=1e-12)


def shallow_leaf_source():
    # leaf 0 covers every history ending in 10, so both of its states 010
    # and 110 have theta 0.2 although no leaf ends in 10
    return MarkovSource(ContextTree(["0", "01", "011", "111"]), [0.2, 0.4, 0.6, 0.8])


@pytest.mark.parametrize("w", ["", "0", "1", "00", "01", "10", "11"])
def test_aggregates_average_every_state_ending_in_w(w):
    src = shallow_leaf_source()
    past = "000"
    x = src.sample(past, 500, seed=4)
    occ, ones = count_table(x, past, 3)
    pi, th = src.stationary, src.state_theta
    ending = [s for s in range(8) if s & ((1 << len(w)) - 1) == state_code(w, len(w))]
    stationary = sum(pi[s] * th[s] for s in ending) / sum(pi[s] for s in ending)
    empirical = sum(occ[s] * th[s] for s in ending) / sum(occ[s] for s in ending)
    assert src.aggregate_conditional(w) == pytest.approx(stationary, abs=1e-12)
    assert empirical_aggregate(src, x, past, w) == pytest.approx(empirical, abs=1e-12)
    # the single-context read is the column of w in the all-contexts fold
    n_w, _, weighted = aggregate_moments(src, occ, ones, len(w))
    col = state_code(w, len(w))
    assert empirical_aggregate(src, x, past, w) == weighted[col] / n_w[col]


def test_aggregates_under_a_shorter_leaf_are_its_theta():
    src = shallow_leaf_source()
    x = src.sample("000", 500, seed=4)
    assert src.aggregate_conditional("10") == pytest.approx(0.2, abs=1e-12)
    assert empirical_aggregate(src, x, "000", "10") == pytest.approx(0.2, abs=1e-12)


# ---------------------------------------------------------------------------
# empirical aggregated conditionals
# ---------------------------------------------------------------------------


def test_empirical_aggregate_full_depth_is_theta():
    src = MarkovSource(full_tree(1), {"0": 0.25, "1": 0.75})
    assert empirical_aggregate(src, "0101", "0", "01") == 0.75


def test_empirical_aggregate_two_term_mean():
    src = MarkovSource(full_tree(1), {"0": 0.25, "1": 0.75})
    x, past = "11010", "0"
    (n0, n1), _ = count_table(x, past, 1)
    expect = (n0 * 0.25 + n1 * 0.75) / (n0 + n1)
    assert empirical_aggregate(src, x, past, "") == pytest.approx(expect, abs=1e-12)


def test_empirical_aggregate_single_context():
    src = MarkovSource(full_tree(2), {"00": 0.2, "01": 0.4, "10": 0.6, "11": 0.8})
    # only context 11 ever precedes a bit under w = "1"
    assert empirical_aggregate(src, "111", "11", "1") == pytest.approx(0.8, abs=1e-12)


def test_empirical_aggregate_absent_context_is_none():
    src = MarkovSource(full_tree(2), {"00": 0.2, "01": 0.4, "10": 0.6, "11": 0.8})
    assert empirical_aggregate(src, "000", "00", "1") is None


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def test_truncate_noop_at_full_memory():
    src = MarkovSource(full_tree(2), {"00": 0.2, "01": 0.4, "10": 0.6, "11": 0.8})
    same = src.truncate(5)
    x = src.sample("00", 64, seed=1)
    assert SourceCoder(same, "00").log2_prob(x) == SourceCoder(src, "00").log2_prob(x)


def test_truncate_zero_extension_convention():
    src = MarkovSource(full_tree(2), {"00": 0.2, "01": 0.4, "10": 0.6, "11": 0.8})
    cut = src.truncate(1)
    assert cut.theta("1") == 0.4  # parameter of "01"
    assert cut.theta("0") == 0.2  # parameter of "00"


def string_truncate(src, ell):
    """The string-keyed truncation: each depth-ell context takes the
    parameter of its all-zeros extension."""
    if ell >= src.memory:
        return src
    tree = ContextTree("".join(p) for p in itertools.product("01", repeat=ell))
    pad = "0" * (src.memory - ell)
    return MarkovSource(tree, {w: src.theta(src.tree.context_of(pad + w)) for w in tree.leaves})


def string_hypercube(ell, half_width, seed):
    rng = np.random.default_rng(seed)
    vals = 0.5 + rng.uniform(-half_width, half_width, size=1 << ell)
    tree = ContextTree("".join(p) for p in itertools.product("01", repeat=ell))
    return MarkovSource(tree, {w: float(vals[state_code(w, ell) if ell else 0]) for w in tree.leaves})


@functools.lru_cache(maxsize=None)
def string_tree(ell):
    """The depth-ell tree built from its leaf strings, and each leaf's code."""
    tree = ContextTree("".join(p) for p in itertools.product("01", repeat=ell))
    return tree, {w: state_code(w, ell) for w in tree.leaves}


def string_continuity(ell, delta, seed):
    """The continuity generator drawn and checked one try at a time, up to
    200 tries, with string-keyed leaves: the source (None when every try
    fails) and the number of tries it took."""
    rng = np.random.default_rng(seed)
    tree, codes = string_tree(ell)
    for tries in range(1, 201):
        vals = np.array([rng.uniform(0.45, 0.55)])
        for d in range(ell):
            band = delta(d) / 3.0
            u = rng.uniform(-band, band, size=2 * len(vals))
            vals = np.concatenate([vals, vals]) * (1.0 + u)
        vals = np.clip(vals, 1e-4, 1.0 - 1e-4)
        src = MarkovSource(tree, {w: float(vals[c]) for w, c in codes.items()})
        if not check_continuity(src, delta):
            return src, tries
    return None, tries


def recorded_batches(monkeypatch):
    """The number of tries in each batch the continuity generator draws,
    appended as it draws them."""
    from mdelta import source

    sizes = []
    refine = source._refine
    monkeypatch.setattr(source, "_refine", lambda u, *rest: sizes.append(len(u)) or refine(u, *rest))
    return sizes


# per depth, where in its batches each continuity source of
# test_generators_and_truncation_match_string_keyed_construction was
# accepted: on a batch's first, last or another try, after the first batch,
# or not at all; the batches hold 8, 16, 32, ... tries, so a "last" needs
# eight tries and a "later batch" nine or more
BATCH_CASES = {
    1: {"first"},
    2: {"first", "inside"},
    3: {"first", "inside"},
    4: {"first", "inside"},
    5: {"first", "inside", "later batch"},
    6: {"first", "inside", "last", "later batch"},
    7: {"first", "inside", "last", "later batch"},
    8: {"first", "inside", "last", "later batch", "failure"},
}


@pytest.mark.parametrize("ell", range(1, 9))
def test_generators_and_truncation_match_string_keyed_construction(ell, monkeypatch):
    # the generator draws and checks tries a batch at a time, yet each
    # source, or failure, is that of drawing and checking one try at a time
    sizes = recorded_batches(monkeypatch)
    reached = set()
    for spec, seeds in (("exp:1", range(20)), ("poly:2", range(2)), ("exp:0.5", range(2))):
        delta = DeltaSpec.parse(spec)
        for seed in seeds:
            sizes.clear()
            try:
                src = random_continuity_source(ell, delta, seed=seed)
            except ContinuityGenerationError:
                src = None
            ref, tries = string_continuity(ell, delta, seed)
            if ref is None:
                assert src is None and sum(sizes) == tries
                reached.add("failure")
                continue
            assert src.probs == ref.probs and src.tree == ref.tree
            start = sum(sizes[:-1])  # tries before the accepting batch
            assert start < tries <= start + sizes[-1]
            reached.add({1: "first", sizes[-1]: "last"}.get(tries - start, "inside"))
            if start:
                reached.add("later batch")
            for depth in range(ell + 2):
                cut = src.truncate(depth)
                want = string_truncate(ref, depth)
                assert cut.probs == want.probs and cut.tree == want.tree
    assert reached == BATCH_CASES[ell]
    for seed in range(20):
        cube = random_hypercube_source(ell, 1 / 8, seed=seed)
        assert cube.probs == string_hypercube(ell, 1 / 8, seed).probs


def test_truncation_ratio_within_band():
    delta = DeltaSpec.parse("exp:1")
    src = random_continuity_source(4, delta, seed=7)
    for ell in (1, 2, 3):
        cut = src.truncate(ell)
        bound = delta(ell)
        for w in cut.tree.leaves:
            tw = cut.theta(w)
            for s in src.tree.leaves:
                if s.endswith(w):
                    assert abs(tw / src.theta(s) - 1.0) <= bound + 1e-12


# ---------------------------------------------------------------------------
# generators and the continuity check
# ---------------------------------------------------------------------------


def test_hypercube_zero_width_is_fair():
    src = random_hypercube_source(2, 0.0, seed=0)
    assert all(p == 0.5 for p in src.probs)


def test_hypercube_range():
    src = random_hypercube_source(3, 1 / 8, seed=1)
    assert all(0.375 <= p <= 0.625 for p in src.probs)


def test_hypercube_band_continuity():
    # half-width 1/64 keeps the exact band 4h/(1-2h) below every clamp in play
    h = 1 / 64
    band = 4 * h / (1 - 2 * h)
    spec = DeltaSpec("table", values=(band, band), cap0=band)
    for seed in range(20):
        src = random_hypercube_source(3, h, seed=seed)
        assert not check_continuity(src, spec)


def test_continuity_generator_passes_its_own_check():
    delta = DeltaSpec.parse("exp:1")
    for seed in range(10):
        src = random_continuity_source(5, delta, seed=seed)
        assert not check_continuity(src, delta)


def test_continuity_generator_deterministic():
    delta = DeltaSpec.parse("exp:1")
    a = random_continuity_source(4, delta, seed=42)
    b = random_continuity_source(4, delta, seed=42)
    assert a == b


def test_continuity_generator_depth_one_cap():
    spec = DeltaSpec.parse("exp:1")  # cap0 = 1.0
    src = random_continuity_source(1, spec, seed=3)
    ratio = max(src.probs) / min(src.probs)
    assert ratio <= 2.0 + 1e-9  # pairwise ratio within 1 + cap0


def test_check_continuity_identical_parameters_pass():
    src = MarkovSource(full_tree(1), {"0": 0.5, "1": 0.5})
    for text in ("poly:2", "exp:1", "dexp:1"):
        assert not check_continuity(src, DeltaSpec.parse(text))


def test_check_continuity_flags_violation():
    src = MarkovSource(full_tree(1), {"0": 0.4, "1": 0.6})
    spec = DeltaSpec("table", values=(0.1,), cap0=0.1)
    violations = check_continuity(src, spec)
    assert violations
    worst = violations[0]
    assert worst.excess == pytest.approx(0.5, abs=1e-12)
    assert worst.w == ""


def test_check_continuity_loose_cap_passes():
    src = MarkovSource(full_tree(1), {"0": 0.35, "1": 0.65})
    spec = DeltaSpec("table", values=(5.0,), cap0=5.0)
    assert not check_continuity(src, spec)


def _pairwise_continuity(src, delta, tol=1e-12):
    # the condition read literally, quadratic in the leaves: every pair of
    # leaves and both symbols, with (s1, s2, longest common suffix, symbol,
    # ratio excess, whether it is over the running minimum of delta up to
    # that suffix's depth)
    dmin, best = [], math.inf
    for m in range(src.memory):
        best = min(best, delta(m))
        dmin.append(best)
    pairs = []
    for s1, s2 in itertools.combinations(src.tree.leaves, 2):
        lcs = 0
        while lcs < min(len(s1), len(s2)) and s1[-1 - lcs] == s2[-1 - lcs]:
            lcs += 1
        for symbol in (1, 0):
            a, b = src.theta(s1), src.theta(s2)
            if not symbol:
                a, b = 1.0 - a, 1.0 - b
            excess = max(a / b, b / a) - 1.0
            pairs.append((s1, s2, s1[len(s1) - lcs :], symbol, excess, excess > dmin[lcs] + tol))
    return pairs


def _random_uneven_tree(rng, depth):
    # split random leaves, each into its two one-bit-older extensions
    leaves = {""}
    for _ in range(int(rng.integers(1, 3 << depth))):
        leaf = sorted(leaves)[int(rng.integers(len(leaves)))]
        if len(leaf) < depth:
            leaves -= {leaf}
            leaves |= {"0" + leaf, "1" + leaf}
    return ContextTree(leaves)


def assert_matches_pairwise(src, delta):
    pairs = _pairwise_continuity(src, delta)
    found = check_continuity(src, delta)
    assert bool(found) == any(bad for *_, bad in pairs)
    for v in found:
        assert v.s1 != v.s2 and v.s1.endswith(v.w) and v.s2.endswith(v.w)
        assert v.allowed == min(delta(m) for m in range(len(v.w) + 1))
        assert v.excess > v.allowed + 1e-12
        a, b = src.theta(v.s1), src.theta(v.s2)
        if not v.symbol:
            a, b = 1.0 - a, 1.0 - b
        assert v.excess == a / b - 1.0
        # the class's worst pair: no two leaves ending in w differ more
        worst = max(e for s1, s2, w, sym, e, _ in pairs if sym == v.symbol and s1.endswith(v.w) and s2.endswith(v.w))
        assert v.excess == worst
    # every violating pair's longest-common-suffix class is reported
    reported = {(v.w, v.symbol) for v in found}
    assert all((w, sym) in reported for _, _, w, sym, _, bad in pairs if bad)


def test_check_continuity_on_uneven_trees_matches_the_pairwise_condition():
    rng = np.random.default_rng(31)
    flagged = 0
    for spec in ("exp:1", "poly:2", "exp:0.25"):
        delta = DeltaSpec.parse(spec)
        for _ in range(60):
            tree = _random_uneven_tree(rng, int(rng.integers(1, 7)))
            lo = rng.choice([0.3, 0.45, 0.49])
            src = MarkovSource(tree, rng.uniform(lo, 1.0 - lo, len(tree.leaves)).tolist())
            assert_matches_pairwise(src, delta)
            flagged += bool(check_continuity(src, delta))
    assert 0 < flagged < 180  # both verdicts are exercised


def test_check_continuity_flags_failing_full_and_uneven_trees():
    delta = DeltaSpec.parse("exp:1")
    rng = np.random.default_rng(7)
    sources = [MarkovSource(full_tree(ell), rng.uniform(0.3, 0.7, 1 << ell).tolist()) for ell in (1, 3, 6)]
    uneven = ContextTree(["1", "10", "000", "100"])
    sources.append(MarkovSource(uneven, [0.2, 0.5, 0.6, 0.9]))
    sources.append(random_continuity_source(4, delta, seed=1))
    for src in sources:
        assert_matches_pairwise(src, delta)
    assert check_continuity(sources[2], delta)  # a failing full tree and uneven tree are covered
    assert check_continuity(sources[3], delta)
    assert not check_continuity(sources[4], delta)


# sha256 of full-tree check_continuity lists recorded before uneven trees
# shared the suffix-class fold; a full tree's lists must not change
FULL_TREE_VIOLATIONS_DIGEST = "d1ceca39577934bc980d6ea279427e8a84f996eaca4ce7517bd6b21362d5f8b2"


def test_full_tree_violation_lists_match_their_recorded_digest():
    h = hashlib.sha256()
    rng = np.random.default_rng(23)
    count = 0
    for spec in ("exp:1", "poly:2", "dexp:1", "exp:0.25"):
        delta = DeltaSpec.parse(spec)
        for ell in range(1, 9):
            for draw in (
                lambda: rng.uniform(0.3, 0.7, 1 << ell),
                lambda: rng.uniform(0.47, 0.53, 1 << ell),
                lambda: rng.uniform(0.01, 0.99, 1 << ell),
                lambda: rng.choice([0.2, 0.4, 0.4 + 2**-54, 0.5, 0.6], 1 << ell),  # ties
            ):
                found = check_continuity(MarkovSource(full_tree(ell), draw().tolist()), delta)
                count += len(found)
                h.update(repr([tuple(v) for v in found]).encode())
    assert count == 14133
    assert h.hexdigest() == FULL_TREE_VIOLATIONS_DIGEST


def test_check_continuity_of_a_2049_leaf_uneven_tree_is_fast():
    # every pair of the 2048 deep leaves shares a suffix of 1-11 bits, so the
    # pairwise condition has millions of violations; the fold lists one per
    # (suffix class, symbol)
    tree = ContextTree(["0"] + [bits_to_str(w) + "1" for w in itertools.product((0, 1), repeat=11)])
    src = MarkovSource(tree, np.random.default_rng(5).uniform(0.3, 0.7, len(tree.leaves)))
    delta = DeltaSpec.parse("exp:1")
    start = time.perf_counter()
    found = check_continuity(src, delta)
    assert time.perf_counter() - start < 1.0
    assert 0 < len(found) <= 2 * (2**11 - 1)
    for v in found:  # every state ending in 0 is the leaf 0's, so no such class fails
        assert v.s1.endswith(v.w) and v.s2.endswith(v.w) and v.s1 != v.s2 and not v.w.endswith("0")


def test_full_tree_excesses_equal_the_per_depth_scan():
    # the bottom-up fold gives every suffix class the max and min a reshape
    # per depth gives, and 1 - theta's from theta's, so each ratio excess is
    # the same float; ties and near-ties around 1 - theta's rounding included
    from mdelta.source import _full_tree_excesses

    rng = np.random.default_rng(12)
    for ell in range(1, 9):
        dmin = rng.uniform(0.0, 0.5, ell)
        for th in (
            rng.uniform(1e-4, 1 - 1e-4, 1 << ell),
            rng.choice([0.2, 0.4, 0.4 + 2**-54, 0.4 + 2**-53, 0.6], 1 << ell),
        ):
            excess, bad = _full_tree_excesses(th, dmin, 1e-12)
            for d in range(ell):
                view1 = th.reshape(1 << (ell - d), 1 << d)
                classes = slice((1 << d) - 1, (2 << d) - 1)
                for k, view in enumerate((view1, 1.0 - view1)):
                    ref = view.max(axis=0) / view.min(axis=0) - 1.0
                    assert np.array_equal(excess[k, classes], ref)
                    assert np.array_equal(bad[k, classes], ref > dmin[d] + 1e-12)


def test_full_tree_excesses_of_a_batch_equal_its_rows_one_at_a_time():
    # the generator checks a batch of sources in one call, check_continuity
    # one source; both read the same fold, so each row of a batched call
    # must be exactly the single-row call, on uneven parameter sets (ties,
    # near-ties, a few wide outliers) and dmin at every depth
    from mdelta.source import _full_tree_excesses

    rng = np.random.default_rng(30)
    for ell in range(1, 9):
        dmin = np.sort(rng.uniform(0.0, 0.5, ell))[::-1]
        rows = [
            rng.uniform(1e-4, 1 - 1e-4, 1 << ell),
            rng.choice([0.2, 0.4, 0.4 + 2**-54, 0.4 + 2**-53, 0.6], 1 << ell),
            np.full(1 << ell, 0.5),
            np.where(rng.random(1 << ell) < 0.2, rng.uniform(1e-4, 0.05, 1 << ell), 0.5 + 1e-9 * rng.random(1 << ell)),
            rng.uniform(0.45, 0.55, 1 << ell),
        ]
        excess, bad = _full_tree_excesses(np.stack(rows), dmin, 1e-12)
        assert excess.shape == bad.shape == (len(rows), 2, (1 << ell) - 1)
        for i, th in enumerate(rows):
            one_excess, one_bad = _full_tree_excesses(th, dmin, 1e-12)
            assert np.array_equal(excess[i], one_excess) and np.array_equal(bad[i], one_bad)
        assert set(bad.any(axis=(1, 2)).tolist()) == {False, True}  # passing and failing rows


def test_generators_reject_a_depth_over_the_cap_before_drawing():
    from mdelta.source import MAX_SCAN_DEPTH

    # the depth is checked before the seed reaches np.random.default_rng,
    # which would refuse a negative seed
    exp1 = DeltaSpec.parse("exp:1")
    with pytest.raises(ValueError, match=f"depth must lie in 1..{MAX_SCAN_DEPTH}, got {MAX_SCAN_DEPTH + 1}"):
        random_continuity_source(MAX_SCAN_DEPTH + 1, exp1, seed=-1)
    with pytest.raises(ValueError, match=f"depth must lie in 0..{MAX_SCAN_DEPTH}, got {MAX_SCAN_DEPTH + 1}"):
        random_hypercube_source(MAX_SCAN_DEPTH + 1, 0.1, seed=-1)
    with pytest.raises(ValueError, match="depth must lie in 1.."):
        random_continuity_source(0, exp1, seed=-1)
    with pytest.raises(ValueError, match="depth must lie in 0.."):
        random_hypercube_source(-1, 0.1, seed=-1)


def test_generation_error_when_budget_infeasible(monkeypatch):
    # wide deep bands under a near-zero shallow allowance cannot pass; the
    # generator gives up after exactly its 200 tries, the last batch cut
    # short of the 128 the schedule would draw next, as one try at a time does
    from mdelta import source

    sizes = recorded_batches(monkeypatch)
    spec = DeltaSpec("table", values=(1e-9, 0.24, 0.24))
    with pytest.raises(ContinuityGenerationError, match="^no admissible source after 200 draws; "):
        random_continuity_source(4, spec, seed=0)
    assert sizes == [8, 16, 32, 64, 80] and sum(sizes) == source._CONTINUITY_TRIES
    assert string_continuity(4, spec, 0) == (None, 200)


# one sha256 over the generator's output, recorded before the generator
# stopped taking a caller's Generator: format_source at three specs, four
# depths and 40 seeds, then one more source and a ContinuityGenerationError's
# message
CONTINUITY_DIGEST = "c247b67609586d502d3a05450e01dba6f71d7147491948b04de6addeefd4cb3a"


def test_continuity_generator_matches_its_recorded_digest():
    h = hashlib.sha256()
    for spec in ("exp:1", "poly:2", "exp:0.5"):
        delta = DeltaSpec.parse(spec)
        for ell in (1, 2, 4, 6):
            for seed in range(40):
                h.update(format_source(random_continuity_source(ell, delta, seed=seed)).encode())
    h.update(format_source(random_continuity_source(5, DeltaSpec.parse("exp:1"), seed=11)).encode())
    with pytest.raises(ContinuityGenerationError) as err:
        random_continuity_source(8, DeltaSpec.parse("exp:0.5"), seed=11)
    h.update(str(err.value).encode())
    assert h.hexdigest() == CONTINUITY_DIGEST


# ---------------------------------------------------------------------------
# text round trip
# ---------------------------------------------------------------------------


def test_source_text_round_trip():
    src = random_continuity_source(3, DeltaSpec.parse("exp:1"), seed=13)
    assert parse_source(format_source(src)) == src


def test_source_text_round_trip_memory_zero():
    src = MarkovSource(full_tree(0), {"": 0.123456789012345})
    text = format_source(src)
    assert "-" in text
    assert parse_source(text) == src


def test_parse_source_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_source("00 0.5\n01 0.5\n")  # no header
    with pytest.raises(ValueError):
        parse_source("memory 2\n0 0.5\n1 0.5\n")  # header inconsistent with leaves
    with pytest.raises(ValueError):
        parse_source("memory 1\n0 0.5\n0 0.6\n1 0.5\n")  # duplicate context
    with pytest.raises(ValueError, match="longer than memory 1"):
        parse_source("memory 1\n0 0.5\n" + "0" * 40 + " 0.5\n")


def test_parse_source_caps_memory_before_building_the_tree():
    from mdelta import redundancy, source

    assert redundancy.MAX_SCAN_DEPTH == source.MAX_SCAN_DEPTH == 16
    # the comb tree at m = 17: a memory-17 source with 18 leaves
    text = "memory 17\n" + "".join(f"{w} 0.5\n" for w in comb(17))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="memory 17 exceeds the cap 16"):
        parse_source(text)
    assert time.perf_counter() - start < 0.1


def test_as_bits_validation():
    assert bits_to_str(as_bits("0101")) == "0101"
    with pytest.raises(ValueError):
        as_bits("01x1")
    with pytest.raises(ValueError):
        as_bits([0, 2, 1])
    for bits in ([True, False, True], np.array([1, 0, 1]), [1.0, 0.0, 1.0], np.array([1, 0, 1], np.uint8)):
        assert as_bits(bits).dtype == np.uint8
        assert bits_to_str(as_bits(bits)) == "101"


def test_bits_to_str_is_the_per_bit_join():
    # any nonzero value is a "1", and the input is raveled
    rng = np.random.default_rng(8)
    cases = [
        np.zeros(0, np.uint8),
        np.zeros((0, 3), np.int64),
        rng.integers(0, 2, 37).astype(np.uint8),
        np.array([0, 2, 255, 1], np.uint8),
        rng.integers(0, 2, (4, 9)).astype(bool),
        rng.integers(-2, 3, (3, 5)),
        [1, 0, 0, 1],
        (True, False),
    ]
    for bits in cases:
        assert bits_to_str(bits) == "".join("1" if b else "0" for b in np.asarray(bits).ravel())


@pytest.mark.parametrize("x", [[0.0, 1.5], np.array([0, 256]), [0, -1], ["0", "1"]])
def test_as_bits_rejects_values_that_are_not_exactly_0_or_1(x):
    # 1.5 used to truncate to 1, 256 to wrap to 0, and -1 raised OverflowError
    with pytest.raises(ValueError, match="only 0/1"):
        as_bits(x)
