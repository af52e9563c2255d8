import functools
import math

import numpy as np
import pytest

from mdelta import _kernels
from mdelta.delta import DeltaSpec
from mdelta.lemmas import (
    binomial_tail,
    deviation_stats,
    deviation_threshold,
    estimate_inv_ns,
    state_count_threshold,
    verify_azuma_stopped,
    verify_chaining,
    verify_chaining_batch,
    verify_deviation,
    verify_domination,
    verify_mse,
    verify_state_count,
    verify_truncation,
    verify_truncation_batch,
)
from mdelta.source import (
    MarkovSource,
    count_table,
    empirical_aggregate,
    full_tree,
    random_continuity_source,
    random_hypercube_source,
)


def reports_equal(a, b):
    if (a.samples is None) != (b.samples is None):
        return False
    if a.samples is not None and not np.array_equal(a.samples, b.samples):
        return False
    fields = ("lemma", "params", "trials", "failures", "empirical", "bound", "slack", "verdict", "extras")
    return all(getattr(a, f) == getattr(b, f) for f in fields)


# ---------------------------------------------------------------------------
# domination
# ---------------------------------------------------------------------------


def test_domination_equality_case_matches_binomial():
    rep = verify_domination(n=8, q=0.3, processes=1, seed=0)
    assert rep.extras["equality_gap"] <= 1e-12


def test_domination_k_equals_n_is_one():
    dist = _kernels.domination_dist(6, 0.4, 99, randomized=True)
    assert np.cumsum(dist)[-1] == pytest.approx(1.0, abs=1e-12)
    assert binomial_tail(6, 0.4, 6) == pytest.approx(1.0, abs=1e-12)


def test_domination_random_processes_hold():
    rep = verify_domination(n=10, q=0.5, processes=50, seed=3)
    assert rep.verdict
    assert rep.failures == 0


def test_domination_rejects_bad_q():
    with pytest.raises(ValueError):
        verify_domination(q=1.5)


def test_domination_deterministic():
    a = verify_domination(n=8, q=0.1, processes=10, seed=5)
    b = verify_domination(n=8, q=0.1, processes=10, seed=5)
    assert reports_equal(a, b)


# ---------------------------------------------------------------------------
# state counts, 1/n_s, and the plug-in estimator
# ---------------------------------------------------------------------------


def test_state_count_threshold_value():
    k = state_count_threshold(2**14, 2)
    assert k == pytest.approx(1024 - math.sqrt(2**14 * 14 / 8), abs=1e-9)


def test_state_count_fair_source_never_starves():
    rep = verify_state_count(ell=2, delta_at=0.0, n=2**12, trials=400, seed=1)
    assert rep.failures == 0
    assert rep.verdict


def test_state_count_skips_nonpositive_threshold():
    rep = verify_state_count(ell=4, delta_at=1 / 32, n=128, trials=10, seed=0)
    assert rep.extras.get("skipped")
    assert rep.verdict


def test_inv_ns_bound_example():
    assert 2 * 3 * 2**4 / 2**12 == pytest.approx(2 * 0.01171875, abs=0)
    rep = estimate_inv_ns(ell=3, delta_at=1 / 16, n=2**12, trials=500, seed=2)
    assert rep.extras["bound_tight"] == pytest.approx(0.01171875, abs=0)


def test_inv_ns_fair_iid_well_under_bound():
    rep = estimate_inv_ns(ell=2, delta_at=0.0, n=2**12, trials=1000, seed=3)
    # occupancy near n / 2^ell makes 1/n_s near 2^ell / n
    assert rep.empirical == pytest.approx(4 / 2**12, rel=0.1)
    assert rep.empirical < rep.extras["bound_tight"]
    assert rep.verdict


def test_inv_ns_capped_at_one():
    rep = estimate_inv_ns(ell=2, delta_at=0.0, n=4, trials=300, seed=4)
    assert rep.empirical <= 1.0 + 1e-12


def test_mse_quarter_of_inv_ns_for_fair_parameters():
    rep = verify_mse(ell=2, delta_at=0.0, n=2**12, trials=1500, seed=5)
    assert rep.verdict
    # Bernoulli(1/2) variance makes the MSE about a quarter of E[1/n_s]
    assert rep.empirical <= 0.5 * rep.bound


def test_mse_near_deterministic_source():
    det = MarkovSource(full_tree(1), {"0": 0.999, "1": 0.999})
    rep = verify_mse(ell=1, delta_at=0.0, n=1024, trials=400, seed=6, source=det, state="1")
    assert rep.empirical < 1e-4
    assert rep.verdict


def test_mse_deterministic_report():
    a = verify_mse(ell=2, delta_at=1 / 16, n=256, trials=200, seed=7)
    b = verify_mse(ell=2, delta_at=1 / 16, n=256, trials=200, seed=7)
    assert reports_equal(a, b)


# ---------------------------------------------------------------------------
# stopped-walk tail
# ---------------------------------------------------------------------------


def test_azuma_trivial_bound_flagged():
    rep = verify_azuma_stopped(n=100, gamma=0.5, trials=2000, seed=1)
    assert rep.extras["trivial"]
    assert rep.verdict


def test_azuma_fixed_respects_unstopped_bound():
    rep = verify_azuma_stopped(n=64, gamma=3.0, trials=50_000, seed=2, kind="fixed")
    assert rep.verdict
    assert rep.empirical <= rep.extras["unstopped_bound"] + 3 * math.sqrt(
        max(rep.empirical, 1e-12) / rep.trials
    )


def test_azuma_first_passage_small():
    rep = verify_azuma_stopped(n=100, gamma=4.0, trials=100_000, seed=3, kind="first-passage")
    assert rep.verdict


def test_azuma_random_kind_runs():
    rep = verify_azuma_stopped(n=64, gamma=3.0, trials=20_000, seed=4, kind="random")
    assert rep.verdict


def test_azuma_validation():
    with pytest.raises(ValueError):
        verify_azuma_stopped(gamma=-1.0, trials=10)
    with pytest.raises(ValueError):
        verify_azuma_stopped(kind="martian", trials=10)


@pytest.mark.parametrize("harness", [estimate_inv_ns, verify_mse])
def test_standard_error_harnesses_need_two_trials(harness):
    with pytest.raises(ValueError):
        harness(ell=2, n=256, trials=1, seed=1)
    assert harness(ell=2, n=256, trials=2, seed=1).trials == 2


@pytest.mark.parametrize("harness", [verify_state_count, verify_azuma_stopped, verify_deviation])
def test_rate_harnesses_need_one_trial(harness):
    with pytest.raises(ValueError):
        harness(n=4096, trials=0, seed=1)
    assert harness(n=4096, trials=1, seed=1).trials == 1


MC_HARNESSES = {
    "state-count": verify_state_count,
    "inv-ns": estimate_inv_ns,
    "mse": verify_mse,
    "deviation": verify_deviation,
    "azuma-fixed": functools.partial(verify_azuma_stopped, kind="fixed"),
    "azuma-first-passage": functools.partial(verify_azuma_stopped, kind="first-passage"),
    "azuma-random": functools.partial(verify_azuma_stopped, kind="random"),
}


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("name", sorted(MC_HARNESSES))
def test_mc_harnesses_reject_empty_horizon(name, n):
    with pytest.raises(ValueError, match="n must be at least 1"):
        MC_HARNESSES[name](n=n, trials=10, seed=1)


def test_azuma_deterministic():
    a = verify_azuma_stopped(n=50, gamma=3.0, trials=5000, seed=9)
    b = verify_azuma_stopped(n=50, gamma=3.0, trials=5000, seed=9)
    assert reports_equal(a, b)


# ---------------------------------------------------------------------------
# aggregated deviations
# ---------------------------------------------------------------------------


def test_deviation_threshold_example():
    assert deviation_threshold(2**12, 2) == pytest.approx(12 * math.sqrt(4096 * 4), abs=1e-9)
    assert deviation_threshold(2**12, 2) == 1536.0


def test_deviation_requires_min_length():
    with pytest.raises(ValueError):
        verify_deviation(n=32, trials=10)


def test_deviation_fair_iid_no_failures():
    src = MarkovSource(full_tree(2), {w: 0.5 for w in full_tree(2).leaves})
    rep = verify_deviation(ell=2, n=2**10, trials=2000, seed=1, source=src)
    assert rep.failures == 0
    assert rep.verdict
    assert rep.samples is not None and rep.samples.shape == (2000,)


def test_deviation_deterministic():
    a = verify_deviation(ell=2, n=128, trials=500, seed=8)
    b = verify_deviation(ell=2, n=128, trials=500, seed=8)
    assert reports_equal(a, b)


def test_deviation_stats_double_entry():
    # recombine z from raw tables independently of the array pipeline
    delta = DeltaSpec.parse("exp:1")
    src = random_continuity_source(3, delta, seed=11)
    past = "000"
    x = src.sample(past, 512, seed=12)
    depth = 2
    stats = deviation_stats(src, past, x, depth)
    table = count_table(x, past, src.memory)
    by_hand = {}
    for w_code in range(1 << depth):
        w = format(w_code, f"0{depth}b")[::-1]  # code low bit = most recent
        w = w[::-1]
        n_w1 = 0
        weighted = 0.0
        for s in src.tree.leaves:
            if s.endswith(w):
                occ, ones = table.row(s)
                n_w1 += ones
                weighted += occ * src.theta(s)
        by_hand[w] = abs(n_w1 - weighted)
    total = sum(by_hand.values())
    assert stats.aggregate == pytest.approx(total, abs=1e-9)
    for w, z in by_hand.items():
        from mdelta.source import state_code

        assert stats.per_context[state_code(w, depth)] == pytest.approx(z, abs=1e-9)


def test_deviation_full_depth_context_unbiased():
    # at depth >= memory the aggregated mean is theta itself
    src = random_hypercube_source(2, 0.1, seed=5)
    x = src.sample("00", 2048, seed=6)
    stats = deviation_stats(src, "00", x, 2)
    table = count_table(x, "00", 2)
    for w in ("00", "01", "10", "11"):
        occ, ones = table.row(w)
        from mdelta.source import state_code

        expect = abs(ones - occ * src.theta(w))
        assert stats.per_context[state_code(w, 2)] == pytest.approx(expect, abs=1e-9)


# ---------------------------------------------------------------------------
# truncation and chaining comparisons
# ---------------------------------------------------------------------------


def test_truncation_lossless_when_memory_small():
    delta = DeltaSpec.parse("exp:1")
    src = random_hypercube_source(2, 0.05, seed=3)
    x = src.sample("000", 256, seed=4)
    check = verify_truncation(src, "000", 3, x, delta)
    assert check.margin <= 1e-9
    assert check.ok


def test_truncation_tiny_band_tiny_margin():
    delta = DeltaSpec.parse("exp:1")
    src = random_hypercube_source(4, 1e-6, seed=5)
    x = src.sample("0000", 512, seed=6)
    check = verify_truncation(src, "0000", 2, x, delta)
    assert abs(check.margin) < 1e-2
    assert check.ok


def test_truncation_batch_passes():
    rep = verify_truncation_batch(count=10, ell=2, n=512, seed=7)
    assert rep.verdict
    assert rep.failures == 0


def test_chaining_memory_below_depth_collapses():
    src = MarkovSource(full_tree(1), {"0": 0.45, "1": 0.55})
    x = src.sample("0" * 4, 300, seed=2)
    check = verify_chaining(src, "0" * 4, 2, x, DeltaSpec.parse("exp:1"))
    assert check.lhs == pytest.approx(check.rhs_base, abs=1e-9)
    assert check.ok


def test_chaining_equal_parameters_product_inequality():
    # identical parameters: refining the split cannot increase the product
    src = MarkovSource(full_tree(2), {w: 0.5 for w in full_tree(2).leaves})
    x = src.sample("00", 400, seed=3)
    check = verify_chaining(src, "00", 1, x, DeltaSpec.parse("exp:1"))
    assert check.margin <= 1e-9


def test_chaining_batch_passes():
    rep = verify_chaining_batch(count=10, ell=2, n=512, seed=8)
    assert rep.verdict
    assert rep.failures == 0


def test_report_verdict_consistency_guard():
    from mdelta.lemmas import VerificationReport

    with pytest.raises(ValueError):
        VerificationReport("x", {}, 1, 0, empirical=2.0, bound=1.0, slack=0.0, verdict=True)
