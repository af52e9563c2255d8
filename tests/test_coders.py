import hashlib
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mdelta._kernels import count_batch
from mdelta.codec import decode, encode
from mdelta.coders import (
    ENUMERATION_CAP,
    KTCoder,
    MixtureCoder,
    NMLCoder,
    SourceCoder,
    _logaddexp2,
    kt_log2_from_counts,
    ml_log2_from_counts,
    shtarkov_sum,
)
from mdelta.delta import DeltaSpec
from mdelta.redundancy import mc_avg_redundancy
from mdelta.source import (
    ContextTree,
    MarkovSource,
    count_table,
    full_tree,
    random_continuity_source,
    random_hypercube_source,
    state_code,
)


def all_sequences(n):
    for xi in range(1 << n):
        yield np.array([(xi >> (n - 1 - i)) & 1 for i in range(n)], np.uint8)


@pytest.mark.parametrize("depth", [17, -1])
@pytest.mark.parametrize(
    "make",
    [KTCoder, lambda d, past: MixtureCoder(d, past, horizon=4), lambda d, past: NMLCoder(d, past, horizon=4)],
    ids=["kt", "mixture", "nml"],
)
def test_coders_refuse_a_depth_outside_the_cap_before_allocating(make, depth):
    # a coder holds 2**depth context states: at depth 17 the KT coder used
    # to allocate 2 MB of counts before anything checked the depth, and at
    # -1 it failed inside numpy
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^depth must lie in 0\.\.16, got {depth}$"):
            make(depth, "0" * max(depth, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_source_coder_refuses_a_source_deeper_than_the_cap():
    # the comb tree 1, 10, ..., 0^17 has memory 17 with only 18 leaves; the
    # tree itself is refused, so no such source reaches a coder
    leaves = ["1" + "0" * k for k in range(17)] + ["0" * 17]
    with pytest.raises(ValueError, match=r"^depth must lie in 0\.\.16, got 17$"):
        SourceCoder(MarkovSource(ContextTree(leaves), [0.5] * len(leaves)), "0" * 17)


# ---------------------------------------------------------------------------
# add-half coder
# ---------------------------------------------------------------------------


def test_kt_memoryless_example():
    coder = KTCoder(0)
    assert coder.log2_prob("011") == pytest.approx(math.log2(1 / 16), abs=1e-12)


def test_kt_first_bit_is_fair():
    coder = KTCoder(0)
    coder.reset()
    assert coder.prob_one() == 0.5


def test_kt_per_context_example():
    coder = KTCoder(1, past="0")
    assert coder.log2_prob("00") == pytest.approx(math.log2(3 / 8), abs=1e-12)


def test_kt_sequential_matches_closed_form():
    rng = np.random.default_rng(7)
    for ell in (0, 1, 3):
        coder = KTCoder(ell, past="000")
        for _ in range(5):
            x = rng.integers(0, 2, 40).astype(np.uint8)
            sequential = 0.0
            coder.reset()
            for b in x:
                p1 = coder.prob_one()
                sequential += math.log2(p1 if b else 1 - p1)
                coder.push(int(b))
            assert sequential == pytest.approx(coder.log2_prob(x), abs=1e-9)


def test_kt_normalization_by_enumeration():
    for ell in (0, 1, 2):
        coder = KTCoder(ell, past="00")
        total = np.exp2(coder.log2_prob_all(10)).sum()
        assert total == pytest.approx(1.0, abs=1e-10)


def test_kt_table_closed_form_against_lgamma():
    # the cumulative tables realize Gamma(a+1/2)Gamma(b+1/2)/(pi (a+b)!)
    for a, b in ((0, 0), (3, 1), (5, 7), (20, 2)):
        got = kt_log2_from_counts(np.array([a + b]), np.array([a]))
        expect = (
            math.lgamma(a + 0.5)
            + math.lgamma(b + 0.5)
            - 2 * math.lgamma(0.5)
            - math.lgamma(a + b + 1)
        ) / math.log(2)
        assert got == pytest.approx(expect, abs=1e-10)


# ---------------------------------------------------------------------------
# mixture coder
# ---------------------------------------------------------------------------


def test_mixture_example_value():
    coder = MixtureCoder(0, horizon=2)
    assert 2.0 ** coder.log2_prob("11") == pytest.approx(5 / 16, abs=1e-12)


def test_mixture_uniform_floor_exhaustive():
    n = 8
    coder = MixtureCoder(0, horizon=n)
    lq = coder.log2_prob_all(n)
    assert (lq >= -(n + 1) - 1e-12).all()


def test_mixture_normalizes():
    coder = MixtureCoder(1, past="0", horizon=9)
    assert np.exp2(coder.log2_prob_all(9)).sum() == pytest.approx(1.0, abs=1e-10)


def test_mixture_sequential_matches_closed_form():
    n = 12
    coder = MixtureCoder(2, past="00", horizon=n)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.integers(0, 2, n).astype(np.uint8)
        coder.reset()
        acc = 0.0
        for b in x:
            p1 = coder.prob_one()
            acc += math.log2(p1 if b else 1 - p1)
            coder.push(int(b))
        assert acc == pytest.approx(coder.log2_prob(x), abs=1e-9)


def test_mixture_marginalization():
    # q(prefix 0) + q(prefix 1) = q(prefix), realized through conditionals
    coder = MixtureCoder(0, horizon=5)
    coder.reset()
    for b in (1, 0, 1):
        p1 = coder.prob_one()
        assert 0.0 < p1 < 1.0
        coder.push(b)


def test_mixture_horizon_errors():
    coder = MixtureCoder(0, horizon=2)
    coder.push(1)
    coder.push(0)
    with pytest.raises(IndexError):
        coder.prob_one()
    with pytest.raises(IndexError):
        coder.push(1)
    with pytest.raises(ValueError):
        coder.log2_prob("101")
    with pytest.raises(IndexError):
        coder.conditionals("101")
    with pytest.raises(ValueError):
        MixtureCoder(0, horizon=0)


@pytest.mark.parametrize("n", [0, 5, 9])
def test_mixture_rejects_the_wrong_length_at_every_entry_point(n):
    coder = MixtureCoder(2, "00", horizon=8)
    bits = np.ones((1, n), np.uint8)
    counts = count_batch(bits, 0, 2)
    for score in (lambda: coder.log2_prob(bits[0]), lambda: coder.log2_prob_batch(bits),
                  lambda: coder.log2_prob_counts(*counts)):
        with pytest.raises(ValueError, match="length-8 sequences"):
            score()


# ---------------------------------------------------------------------------
# code lengths of the count-scored models
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("depth", range(8))
def test_count_scored_code_lengths_are_one_closed_form(depth):
    # single-sequence, batched and count-table scores are the same value, bit for bit
    src = random_hypercube_source(depth, 0.2, seed=depth)
    rng = np.random.default_rng(depth)
    for past in ("0000000", "1111111", "0110100"):
        for n in (0, 1, 4096):
            x = (rng.random(n) < 0.4).astype(np.uint8)
            counts = count_batch(x[None, :], state_code(past, depth), depth)
            models = [KTCoder(depth, past), SourceCoder(src, past)]
            models += [MixtureCoder(depth, past, horizon=n)] if n else []
            for coder in models:
                want = coder.log2_prob_counts(*counts)[0]
                assert coder.log2_prob(x) == coder.log2_prob_batch(x[None, :])[0] == want


@pytest.mark.parametrize("rows", [[[0, 2, 1, 0], [0, 0, 0, 0]], [[0, 2, 1, 0]], [[0, 1], [1, -1]], [0, 1]])
def test_batch_scores_reject_rows_that_are_not_bits(rows):
    # a 2 used to spill into the next row's count bins (row 1 scored -5.19
    # against its own -1.87) and a single bad row failed inside a reshape
    src = random_hypercube_source(1, 0.2, seed=0)
    bits = np.array(rows)
    for score in (KTCoder(1, "0").log2_prob_batch, SourceCoder(src, "0").log2_prob_batch):
        with pytest.raises(ValueError, match="bit rows"):
            score(bits)


# ---------------------------------------------------------------------------
# maximized likelihood and the exact minimax oracle
# ---------------------------------------------------------------------------


def test_ml_degenerate_all_ones():
    assert ml_log2_from_counts(*count_table("11111", "0", 1)) == 0.0


def test_ml_memoryless_balanced():
    assert ml_log2_from_counts(*count_table("01", "0", 0)) == pytest.approx(math.log2(1 / 4), abs=1e-12)


def test_ml_per_state_balanced():
    assert ml_log2_from_counts(*count_table("01", "0", 1)) == pytest.approx(math.log2(1 / 4), abs=1e-12)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.float64])
def test_closed_forms_do_not_depend_on_count_dtype(dtype):
    occ, ones = np.array([[3, 7, 0, 200], [1, 0, 9, 4]]), np.array([[1, 2, 0, 13], [1, 0, 0, 4]])
    got_ml = ml_log2_from_counts(occ.astype(dtype), ones.astype(dtype))
    assert got_ml.tolist() == ml_log2_from_counts(occ, ones).tolist()
    if dtype is not np.float64:
        got_kt = kt_log2_from_counts(occ.astype(dtype), ones.astype(dtype))
        assert got_kt.tolist() == kt_log2_from_counts(occ, ones).tolist()


def test_shtarkov_small_values():
    assert shtarkov_sum(0, "", 2).log2_sum == pytest.approx(math.log2(2.5), abs=1e-12)
    assert shtarkov_sum(1, "0", 2).log2_sum == pytest.approx(math.log2(3.25), abs=1e-12)
    assert shtarkov_sum(0, "", 1).log2_sum == pytest.approx(1.0, abs=1e-12)


def test_shtarkov_refuses_above_cap():
    with pytest.raises(ValueError):
        shtarkov_sum(0, "", ENUMERATION_CAP + 1)


def test_enumerations_refuse_a_negative_horizon():
    src = random_hypercube_source(1, 0.2, seed=1)
    calls = [
        lambda n: shtarkov_sum(1, "0", n),
        lambda n: NMLCoder(1, "0", horizon=n),
        lambda n: KTCoder(1, "0").log2_prob_all(n),
        lambda n: SourceCoder(src, "0").log2_prob_all(n),
    ]
    for call in calls:
        for n in (-1, -5):
            with pytest.raises(ValueError, match=f"^n must be at least 0, got {n}$"):
                call(n)
    # n = 0 is the one empty sequence, of probability 1
    assert shtarkov_sum(1, "0", 0).log2_sum == 0.0
    assert KTCoder(1, "0").log2_prob_all(0).tolist() == [0.0]
    assert SourceCoder(src, "0").log2_prob_all(0).tolist() == [0.0]
    with pytest.raises(ValueError, match="refused"):
        SourceCoder(src, "0").log2_prob_all(ENUMERATION_CAP + 1)


def test_ml_dominates_every_source():
    rng = np.random.default_rng(11)
    n = 10
    for ell in (0, 1, 2):
        tree = full_tree(ell)
        past = "00"
        ml = None
        for trial in range(40):
            theta = {w: float(rng.uniform(0.05, 0.95)) for w in tree.leaves}
            src = MarkovSource(tree, theta)
            lp = SourceCoder(src, past).log2_prob_all(n)
            if ml is None:
                from mdelta._kernels import enum_ml_log2
                from mdelta.source import state_code

                ml = enum_ml_log2(ell, state_code(past, ell), n)
            assert (ml >= lp - 1e-12).all()


def test_ml_dominates_exact_rational():
    # exact comparison with dyadic parameters at tiny n
    n = 6
    past = "0"
    theta = {"0": Fraction(1, 4), "1": Fraction(3, 4)}
    for xi in range(1 << n):
        bits = [(xi >> (n - 1 - i)) & 1 for i in range(n)]
        # source probability as an exact rational
        p = Fraction(1)
        prev = 0
        counts = {("0"): [0, 0], ("1"): [0, 0]}
        for b in bits:
            ctx = "1" if prev else "0"
            p *= theta[ctx] if b else 1 - theta[ctx]
            counts[ctx][b] += 1
            prev = b
        # maximized likelihood as an exact rational
        ml = Fraction(1)
        for ctx in ("0", "1"):
            zeros, ones = counts[ctx]
            tot = zeros + ones
            if tot:
                if ones:
                    ml *= Fraction(ones, tot) ** ones
                if zeros:
                    ml *= Fraction(zeros, tot) ** zeros
        assert ml >= p


def test_nml_regret_is_flat_and_equals_log_sum():
    for n in (4, 8, 10):
        for ell in (0, 1):
            coder = NMLCoder(ell, past="0", horizon=n)
            from mdelta._kernels import enum_ml_log2
            from mdelta.source import state_code

            ml = enum_ml_log2(ell, state_code("0", ell), n)
            regret = ml - coder.log2_prob_all(n)
            assert regret.max() == pytest.approx(coder.log2_sum, abs=1e-12)
            assert regret.min() == pytest.approx(coder.log2_sum, abs=1e-12)


def test_kt_max_regret_at_least_nml():
    n = 10
    for ell in (0, 1):
        nml = NMLCoder(ell, past="0", horizon=n)
        kt = KTCoder(ell, past="0")
        from mdelta._kernels import enum_ml_log2
        from mdelta.source import state_code

        ml = enum_ml_log2(ell, state_code("0", ell), n)
        kt_max = (ml - kt.log2_prob_all(n)).max()
        assert kt_max >= nml.log2_sum - 1e-12


def test_kt_pointwise_regret_ceiling_small():
    n = 10
    for ell in (0, 1, 2):
        kt = KTCoder(ell, past="00")
        from mdelta._kernels import enum_ml_log2
        from mdelta.source import state_code

        ml = enum_ml_log2(ell, state_code("00", ell), n)
        worst = (ml - kt.log2_prob_all(n)).max()
        assert worst <= 2.0**ell * (0.5 * math.log2(n) + 2.0)


def test_nml_sequential_consistency():
    coder = NMLCoder(1, past="0", horizon=6)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.integers(0, 2, 6).astype(np.uint8)
        coder.reset()
        acc = 0.0
        for b in x:
            p1 = coder.prob_one()
            acc += math.log2(p1 if b else 1 - p1)
            coder.push(int(b))
        assert acc == pytest.approx(coder.log2_prob(x), abs=1e-10)


# one sha256 over NML code lengths, recorded while NMLCoder.log2_prob
# looked each sequence up in its normalized table and log2_prob_batch
# scored row by row: every sequence of each shape in lexicographic order,
# three single rows as arrays and as strings, and Monte Carlo logp/logq
# bytes with a source past that the coder's past is the tail of and one
# that it is not
NML_DIGEST = "4b35e44dc027a6c4d75d20f32296a5a62b63c3541b09ef1f195b1683afd79e45"


def all_rows(n):
    """Every length-n bit row, in lexicographic order."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


def test_nml_code_lengths_match_their_recorded_digest():
    h = hashlib.sha256()
    for depth in range(4):
        for past in ("000", "101", "0110"):
            for n in (0, 1, 2, 5, 8, 12):
                coder = NMLCoder(depth, past, horizon=n)
                rows = all_rows(n)
                every = coder.log2_prob_all(n)
                assert coder.log2_prob_batch(rows).tobytes() == every.tobytes()
                h.update(every.tobytes())
                for i in (0, (1 << n) - 1, (5 * (1 << n)) // 7):
                    h.update(np.float64(coder.log2_prob(rows[i])).tobytes())
                    h.update(np.float64(coder.log2_prob("".join(map(str, rows[i])))).tobytes())
                for memory in (0, 2, 3) if n else ():
                    src = random_hypercube_source(memory, 0.2, seed=10 * memory + depth)
                    for src_past in (past, past[:-1] + str(1 - int(past[-1]))):
                        est = mc_avg_redundancy(src, src_past, coder, n, 40, seed=n + depth)
                        h.update(est.logp.tobytes() + est.logq.tobytes())
    assert h.hexdigest() == NML_DIGEST


NML_ERRORS = {  # the horizon is checked before the past, bits before the length
    "short": (lambda c: c.log2_prob("101"), "NML coder is defined on length-4 sequences"),
    "long": (lambda c: c.log2_prob("10101"), "NML coder is defined on length-4 sequences"),
    "bad-string": (lambda c: c.log2_prob("10a1"), "bit string may contain only 0/1, got '10a1'"),
    "bad-short-list": (lambda c: c.log2_prob([0, 1, 2]), "bit sequence may contain only 0/1"),
    "batch": (lambda c: c.log2_prob_batch(np.zeros((2, 3), np.uint8)), "NML coder is defined on length-4 sequences"),
    "counts": (lambda c: c.log2_prob_counts(*count_batch(np.zeros((1, 5), np.uint8), 1, 2)),
               "NML coder is defined on length-4 sequences"),
    "all": (lambda c: c.log2_prob_all(3), "NML coder is defined on length-4 sequences"),
    "negative-n": (lambda c: NMLCoder(1, "", horizon=-1), "n must be at least 0, got -1"),
    "negative-n-bad-past": (lambda c: NMLCoder(1, "2", horizon=-1), "n must be at least 0, got -1"),
    "n-over-cap": (lambda c: NMLCoder(1, "", horizon=ENUMERATION_CAP + 1),
                   "exhaustive enumeration over 2^21 sequences refused"),
    "short-past": (lambda c: NMLCoder(1, "", horizon=3), "history of length 0 is shorter than depth 1"),
    "bad-past": (lambda c: NMLCoder(1, "2", horizon=3), "bit string may contain only 0/1, got '2'"),
}


@pytest.mark.parametrize("case", NML_ERRORS)
def test_nml_errors_keep_their_messages(case):
    call, message = NML_ERRORS[case]
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call(NMLCoder(2, "01", horizon=4))


def test_source_coder_probabilities():
    src = random_hypercube_source(2, 0.1, seed=8)
    coder = SourceCoder(src, past="00")
    x = src.sample("00", 30, seed=9)
    p1 = coder.conditionals(x)
    chain = float(np.log2(np.where(x == 1, p1, 1.0 - p1)).sum())
    assert coder.log2_prob(x) == pytest.approx(chain, abs=1e-12)
    coder.reset()
    assert coder.prob_one() == src.state_theta[0]  # the past "00" is state 0


# ---------------------------------------------------------------------------
# every conditional at once
# ---------------------------------------------------------------------------


def _replay(coder, x):
    coder.reset()
    out = []
    for b in x.tolist():
        out.append(coder.prob_one())
        coder.push(b)
    return np.array(out, dtype=np.float64)


@pytest.mark.parametrize("kind", ["kt", "mixture", "source", "nml"])
def test_conditionals_equal_the_replay(kind):
    # == on float64: the codec quantizes these, so one ulp would change a stream
    rng = np.random.default_rng(41)
    depths = (0, 1, 2, 3, 5, 9) if kind != "nml" else (0, 1, 2, 3)
    for depth in depths:
        theta = rng.uniform(0.01, 0.99, 1 << depth)
        src = MarkovSource(full_tree(depth), theta)
        past = "".join(rng.choice(["0", "1"], depth + 1))
        for n in (0, 1, 7, 200, 1500) if kind != "nml" else (0, 1, 7, 12):
            x = src.sample(past, n, seed=int(rng.integers(1 << 30)))
            if kind == "kt":
                coder = KTCoder(depth, past)
            elif kind == "mixture":
                coder = MixtureCoder(depth, past, horizon=n + 3)
            elif kind == "source":
                coder = SourceCoder(src, past)
            else:
                coder = NMLCoder(depth, past, horizon=max(n, 1))
            got = coder.conditionals(x)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert np.array_equal(got, _replay(coder, x)), (depth, n)


def test_kt_conditionals_at_wide_contexts():
    # 8-bit contexts are the widest uint8 codes, and 9 to 16 bits take
    # uint16 ones; 16 is the deepest a coder accepts
    x = np.random.default_rng(3).integers(0, 2, 3000).astype(np.uint8)
    for depth in (8, 9, 16):
        coder = KTCoder(depth, past="01" * 9)
        assert np.array_equal(coder.conditionals(x), _replay(coder, x))


def test_logaddexp2_helper_equals_numpy_scalar():
    # the mixture's conditionals go through this helper in encode and decode
    # alike; == to numpy's scalar logaddexp2 keeps every stream as it was
    rng = np.random.default_rng(43)
    m = 4000
    scale = 4096 * math.log2(math.e)
    equal = rng.uniform(-scale, 0, m)
    near = rng.normal(0, 3, m)
    log_qkt = rng.uniform(-scale, 0, m)
    pairs = [
        (equal, equal.copy()),
        (near, near + rng.normal(0, 1e-3, m)),  # both signs of x - y, small gaps
        (log_qkt, -rng.integers(0, 4097, m).astype(np.float64)),  # the mixture's scale
        (log_qkt, log_qkt - rng.uniform(1075, 4000, m)),  # exp2 underflows to 0
        (np.zeros(m), -rng.uniform(0, 1100, m)),  # x = 0 keeps exp2's last bit in the sum
    ]
    for xs, ys in pairs:
        for x, y in zip(xs.tolist(), ys.tolist()):
            assert _logaddexp2(x, y) == float(np.logaddexp2(x, y)), (x, y)
            assert _logaddexp2(y, x) == float(np.logaddexp2(y, x)), (y, x)


def test_mixture_conditionals_at_the_codec_shape():
    # n = 4096 from a memory-6 continuity source under a depth-4 mixture, as in
    # the codec benchmark; the reference is the step on numpy's scalar logaddexp2
    n = 4096
    for seed in (1, 2):
        src = random_continuity_source(6, DeltaSpec.parse("exp:1"), seed=seed)
        x = src.sample("0" * 6, n, seed=100 + seed)
        coder = MixtureCoder(4, "0" * 6, horizon=n)
        got = coder.conditionals(x)
        assert np.array_equal(got, _replay(coder, x))
        p_kt = KTCoder(4, "0" * 6).conditionals(x).tolist()
        want, log_qkt = [], 0.0
        for t, (bit, p1) in enumerate(zip(x.tolist(), p_kt)):
            num = np.logaddexp2(log_qkt + math.log2(p1), -(t + 1.0))
            den = np.logaddexp2(log_qkt, -float(t))
            want.append(float(2.0 ** (num - den)))
            log_qkt += math.log2(p1 if bit else 1.0 - p1)
        assert np.array_equal(got, np.array(want))


# ---------------------------------------------------------------------------
# the push contract and the conditional each coder keeps between calls
# ---------------------------------------------------------------------------


def _wide_coder(kind):
    """A coder whose context codes pass 255, and a uint8 sequence for it."""
    rng = np.random.default_rng(47)
    past = "".join(rng.choice(["0", "1"], 10))
    n = 12 if kind == "nml" else 700
    x = rng.integers(0, 2, n).astype(np.uint8)
    if kind == "kt":
        return KTCoder(9, past), x
    if kind == "mixture":
        return MixtureCoder(9, past, horizon=n), x
    if kind == "source":
        return SourceCoder(MarkovSource(full_tree(10), rng.uniform(0.01, 0.99, 1 << 10)), past), x
    return NMLCoder(1, "0", horizon=n), x


@pytest.mark.parametrize("kind", ["kt", "mixture", "source", "nml"])
def test_replay_over_any_integer_kind_of_bits_equals_conditionals(kind):
    # first a bit array's uint8 elements pushed as they are (a uint8 context
    # state would overflow at depth 9, or wrap NML's prefix past 8 bits), then
    # every integer kind in turn
    coder, x = _wide_coder(kind)
    want = coder.conditionals(x)
    kinds = [int, bool, np.uint8, np.int64, np.bool_]
    for bits in (x, [kinds[t % len(kinds)](b) for t, b in enumerate(x.tolist())]):
        coder.reset()
        got = []
        for b in bits:
            got.append(coder.prob_one())
            coder.push(b)
        assert np.array_equal(np.array(got), want)


@pytest.mark.parametrize("bad", [2, -1, 0.5, np.int64(3), None, "1"])
@pytest.mark.parametrize("kind", ["kt", "mixture", "source", "nml"])
def test_push_rejects_anything_but_a_bit_and_keeps_its_state(kind, bad):
    coder, x = _wide_coder(kind)
    want = coder.conditionals(x)
    coder.reset()
    got = []
    for t, b in enumerate(x.tolist()):
        got.append(coder.prob_one())
        if t == len(x) // 2:
            with pytest.raises(ValueError, match="must be 0 or 1"):
                coder.push(bad)
        coder.push(b)
    assert np.array_equal(np.array(got), want)


def test_mixture_keeps_its_add_half_conditional_through_odd_call_orders():
    rng = np.random.default_rng(53)
    n = 400
    x = rng.integers(0, 2, n).astype(np.uint8)
    coder = MixtureCoder(3, "101", horizon=n)
    want = coder.conditionals(x)
    bits = x.tolist()

    coder.reset()  # push with no prob_one before it, every third bit
    for t, b in enumerate(bits):
        if t % 3:
            assert coder.prob_one() == want[t]
        coder.push(b)

    coder.reset()  # prob_one twice, and conditionals in mid-sequence
    for t, b in enumerate(bits):
        assert coder.prob_one() == want[t]
        assert coder.prob_one() == want[t]
        if t == n // 2:
            assert np.array_equal(coder.conditionals(x), want)
        coder.push(b)
    with pytest.raises(IndexError):
        coder.push(0)

    coder.reset()  # reset in mid-sequence, with and without a prob_one last
    for b in bits[: n // 3]:
        coder.push(b)
    coder.reset()
    for b in bits[: n // 2]:
        coder.push(b)
        coder.prob_one()
    assert np.array_equal(_replay(coder, x), want)


def test_mixture_decode_asks_the_add_half_coder_once_per_bit(monkeypatch):
    # one KT prob_one per push plus one per reset (decode resets before and
    # after); asking again in prob_one would be 2n
    n = 500
    x = np.random.default_rng(59).integers(0, 2, n).astype(np.uint8)
    coder = MixtureCoder(4, "0110", horizon=n)
    code = encode(coder, x)
    calls = 0
    kt_prob_one = KTCoder.prob_one

    def counted(self):
        nonlocal calls
        calls += 1
        return kt_prob_one(self)

    monkeypatch.setattr(KTCoder, "prob_one", counted)
    assert np.array_equal(decode(coder, code, n), x)
    assert 0 < calls <= n + 2
