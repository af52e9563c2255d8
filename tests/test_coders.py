import math
from fractions import Fraction

import numpy as np
import pytest

from mdelta.coders import (
    ENUMERATION_CAP,
    KTCoder,
    MixtureCoder,
    NMLCoder,
    SourceCoder,
    kt_log2_from_counts,
    ml_log2,
    ml_log2_from_counts,
    shtarkov_sum,
)
from mdelta.source import MarkovSource, count_table, full_tree, random_hypercube_source


def all_sequences(n):
    for xi in range(1 << n):
        yield np.array([(xi >> (n - 1 - i)) & 1 for i in range(n)], np.uint8)


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
        p0, p1 = coder.probs()
        assert p0 + p1 == 1.0
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
    with pytest.raises(ValueError):
        MixtureCoder(0, horizon=0)


# ---------------------------------------------------------------------------
# maximized likelihood and the exact minimax oracle
# ---------------------------------------------------------------------------


def test_ml_degenerate_all_ones():
    assert ml_log2(count_table("11111", "0", 1)) == 0.0


def test_ml_memoryless_balanced():
    assert ml_log2(count_table("01", "0", 0)) == pytest.approx(math.log2(1 / 4), abs=1e-12)


def test_ml_per_state_balanced():
    assert ml_log2(count_table("01", "0", 1)) == pytest.approx(math.log2(1 / 4), abs=1e-12)


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
            lp = src.log2_prob_all(past, n)
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


def test_source_coder_probabilities():
    src = random_hypercube_source(2, 0.1, seed=8)
    coder = SourceCoder(src, past="00")
    x = src.sample("00", 30, seed=9)
    assert coder.log2_prob(x) == pytest.approx(src.log_prob("00", x), abs=1e-12)
    coder.reset()
    p0, p1 = coder.probs()
    assert p0 + p1 == 1.0
