import math

import numpy as np
import pytest

from mdelta import _kernels
from mdelta.coders import KTCoder, MixtureCoder, NMLCoder, SequentialCoder, SourceCoder, shtarkov_sum
from mdelta.delta import DeltaSpec
from mdelta.redundancy import (
    BoundReport,
    bound_report,
    default_ell_range,
    exact_avg_redundancy,
    comparison_radius,
    minimax_lower_bound,
    minimax_lower_bound_value,
    mc_avg_redundancy,
    optimal_ell,
    truncation_upper_bound_at,
    refined_upper_bound,
    regret_bits,
)
from mdelta.source import MarkovSource, full_tree, random_hypercube_source, state_code


def fair():
    return MarkovSource(full_tree(0), {"": 0.5})


# ---------------------------------------------------------------------------
# regret and average redundancy
# ---------------------------------------------------------------------------


def test_regret_self_coding_is_zero():
    src = random_hypercube_source(2, 0.1, seed=1)
    coder = SourceCoder(src, past="00")
    for seed in range(5):
        x = src.sample("00", 50, seed=seed)
        assert regret_bits(src, "00", coder, x) == pytest.approx(0.0, abs=1e-9)


def test_regret_uniform_vs_biased_source():
    n = 64
    src = MarkovSource(full_tree(0), {"": 0.999})
    uniform = SourceCoder(MarkovSource(full_tree(0), {"": 0.5}), past="")
    x = np.ones(n, np.uint8)
    r = regret_bits(src, "", uniform, x)
    assert r == pytest.approx(n + n * math.log2(0.999), abs=1e-9)
    assert r > 0.9 * n


def test_regret_kt_fair_coin_example():
    assert regret_bits(fair(), "", KTCoder(0), "011") == pytest.approx(1.0, abs=1e-12)


def test_exact_redundancy_of_source_coder_is_zero():
    src = random_hypercube_source(1, 0.2, seed=3)
    coder = SourceCoder(src, past="0")
    assert exact_avg_redundancy(src, "0", coder, 10) == pytest.approx(0.0, abs=1e-10)


def test_exact_redundancy_fair_vs_kt_by_hand():
    # n = 2: q(00) = q(11) = 3/8, q(01) = q(10) = 1/8
    expect = 2 * 0.25 * math.log2(0.25 / (3 / 8)) + 2 * 0.25 * math.log2(0.25 / (1 / 8))
    got = exact_avg_redundancy(fair(), "", KTCoder(0), 2)
    assert got == pytest.approx(expect, abs=1e-12)


def test_gibbs_nonnegativity():
    src = random_hypercube_source(2, 0.15, seed=9)
    n = 10
    for coder in (KTCoder(1, "00"), MixtureCoder(2, "00", horizon=n), NMLCoder(1, "00", horizon=n)):
        assert exact_avg_redundancy(src, "00", coder, n) >= -1e-12


class StoredTableCoder(SequentialCoder):
    """A coder whose log2_prob_all hands out the array it keeps."""

    def __init__(self, table):
        self.depth = 0
        self.table = table

    def log2_prob_all(self, n):
        return self.table


def test_exact_redundancy_leaves_a_stored_coder_table_alone():
    src = random_hypercube_source(2, 0.15, seed=9)
    table = KTCoder(1, "0").log2_prob_all(10)
    kept = table.copy()
    coder = StoredTableCoder(table)
    first = exact_avg_redundancy(src, "00", coder, 10)
    assert np.array_equal(table, kept)
    assert exact_avg_redundancy(src, "00", coder, 10) == first


def test_exact_redundancy_equals_the_out_of_place_sum():
    src = random_hypercube_source(2, 0.15, seed=9)
    n = 12
    coders = (
        KTCoder(1, "00"),
        KTCoder(3, "100"),
        MixtureCoder(2, "00", horizon=n),
        SourceCoder(src, "00"),
        SourceCoder(random_hypercube_source(3, 0.1, seed=4), "100"),
        NMLCoder(1, "00", horizon=n),
    )
    for coder in coders:
        lp = SourceCoder(src, "00").log2_prob_all(n)
        lq = coder.log2_prob_all(n)
        assert exact_avg_redundancy(src, "00", coder, n) == float(np.sum(np.exp2(lp) * (lp - lq)))


@pytest.mark.parametrize("depth,past", [(0, ""), (1, "1"), (2, "01"), (3, "110")])
def test_shtarkov_probs_equal_the_out_of_place_quotient(depth, past):
    ml = _kernels.enum_ml_log2(depth, state_code(past, depth), 12)
    total = float(np.exp2(ml).sum())
    assert shtarkov_sum(depth, past, 12).log2_sum == math.log2(total)
    assert np.array_equal(NMLCoder(depth, past, horizon=12).log2_prob_all(12), np.log2(np.exp2(ml) / total))


def test_mc_agrees_with_exact():
    src = random_hypercube_source(1, 0.2, seed=13)
    coder = KTCoder(1, past="0")
    exact = exact_avg_redundancy(src, "0", coder, 12)
    est = mc_avg_redundancy(src, "0", coder, 12, trials=10_000, seed=5)
    assert abs(est.mean - exact) <= 5 * est.se


def test_mc_self_coding_within_noise():
    src = random_hypercube_source(1, 0.2, seed=21)
    coder = SourceCoder(src, past="0")
    est = mc_avg_redundancy(src, "0", coder, 16, trials=500, seed=2)
    assert abs(est.mean) <= max(5 * est.se, 1e-9)


def test_mc_se_scaling():
    src = random_hypercube_source(1, 0.2, seed=31)
    coder = KTCoder(1, past="0")
    small = mc_avg_redundancy(src, "0", coder, 32, trials=4_000, seed=7)
    big = mc_avg_redundancy(src, "0", coder, 32, trials=16_000, seed=7)
    assert big.se == pytest.approx(small.se / 2, rel=0.2)


def test_mc_estimate_carries_per_trial_values():
    src = random_hypercube_source(2, 0.2, seed=41)
    coder = MixtureCoder(2, past="00", horizon=64)
    est = mc_avg_redundancy(src, "00", coder, 64, trials=50, seed=3)
    assert est.logp.shape == est.logq.shape == (50,)
    assert est.mean == pytest.approx(float(np.mean(est.logp - est.logq)), abs=1e-12)
    # trial 0 is row 0 of the seed's stream, the one sample draws
    assert est.logp[0] == pytest.approx(SourceCoder(src, "00").log2_prob(src.sample("00", 64, seed=3)), abs=1e-9)
    assert est == mc_avg_redundancy(src, "00", coder, 64, trials=50, seed=3)
    assert "logp" not in repr(est)
    with pytest.raises(ValueError):
        mc_avg_redundancy(src, "00", coder, 64, trials=1, seed=3)


def test_mc_chunking_keeps_the_stream(monkeypatch):
    from mdelta import source

    src = random_hypercube_source(1, 0.2, seed=5)
    coder = KTCoder(1, past="0")
    whole = mc_avg_redundancy(src, "0", coder, 32, trials=40, seed=8)
    monkeypatch.setattr(source, "_TRIAL_BUDGET_BYTES", 8 * 32 * 7)  # chunks of 7 trials
    chunked = mc_avg_redundancy(src, "0", coder, 32, trials=40, seed=8)
    assert chunked.logp.tolist() == whole.logp.tolist()
    assert chunked.logq.tolist() == whole.logq.tolist()
    assert (chunked.mean, chunked.se) == (whole.mean, whole.se)


def two_count_estimate(src, past, coder, n, trials, seed):
    """The per-trial values with the source and the coder each scoring the bits."""
    rng = np.random.default_rng(seed)
    logp, logq = np.empty(trials), np.empty(trials)
    for rows, bits in src._sample_chunks(past, n, trials, rng):
        logp[rows] = SourceCoder(src, past).log2_prob_batch(bits)
        logq[rows] = coder.log2_prob_batch(bits)
    return logp, logq


# (memory, coder depth, past, coder past): depths below, at and above the
# memory, a memory-0 source, and a coder past that is the tail of the past
SHARED_COUNT_CASES = [(4, 2, "0110", None), (2, 4, "0110", None), (3, 3, "101", None),
                      (0, 3, "110", None), (3, 0, "101", None), (2, 1, "0110", "0")]


@pytest.mark.parametrize("memory,depth,past,coder_past", SHARED_COUNT_CASES)
def test_mc_shared_count_equals_two_counts(memory, depth, past, coder_past, monkeypatch):
    def no_bits(*args):
        raise AssertionError("the source scored the bits")

    src = random_hypercube_source(memory, 0.2, seed=memory + 10 * depth)
    n, trials = 200, 70
    coders = [KTCoder(depth, coder_past or past), MixtureCoder(depth, coder_past or past, horizon=n)]
    if coder_past is None:
        coders.append(SourceCoder(src, past))
    for seed, coder in enumerate(coders):
        logp, logq = two_count_estimate(src, past, coder, n, trials, seed)
        with monkeypatch.context() as m:
            m.setattr(SourceCoder, "log2_prob_batch", no_bits)
            est = mc_avg_redundancy(src, past, coder, n, trials, seed=seed)
        assert est.logp.tobytes() == logp.tobytes()
        assert est.logq.tobytes() == logq.tobytes()
        assert est.mean == float((logp - logq).sum()) / trials


@pytest.mark.parametrize("depth,past", [(0, "01"), (1, "01"), (2, "101"), (3, "0110")])
def test_mc_shares_the_count_with_an_nml_coder(depth, past, monkeypatch):
    def no_bits(*args):
        raise AssertionError("the source scored the bits")

    src = random_hypercube_source(2, 0.2, seed=depth)
    n, trials = 10, 40
    coder = NMLCoder(depth, past, horizon=n)
    logp, logq = two_count_estimate(src, past, coder, n, trials, depth)
    monkeypatch.setattr(SourceCoder, "log2_prob_batch", no_bits)
    est = mc_avg_redundancy(src, past, coder, n, trials, seed=depth)
    assert est.logp.tobytes() == logp.tobytes()
    assert est.logq.tobytes() == logq.tobytes()


def test_mc_falls_back_to_two_counts(monkeypatch):
    # coder pasts that are not the tail of the past, and a past shorter than
    # the coder depth
    src = random_hypercube_source(2, 0.2, seed=3)
    n, trials = 10, 40
    for past, coder in (("01", KTCoder(1, "0")), ("01", KTCoder(3, "101")), ("01", NMLCoder(1, "0", horizon=n)),
                        ("10", MixtureCoder(2, "11", horizon=n))):
        calls = []
        real = type(coder).log2_prob_batch
        monkeypatch.setattr(type(coder), "log2_prob_batch", lambda self, bits: calls.append(1) or real(self, bits))
        est = mc_avg_redundancy(src, past, coder, n, trials, seed=2)
        assert calls == [1]  # one chunk, scored from its bits
        logp, logq = two_count_estimate(src, past, coder, n, trials, 2)
        assert est.logp.tobytes() == logp.tobytes()
        assert est.logq.tobytes() == logq.tobytes()
        monkeypatch.undo()


def test_mc_rejects_an_empty_horizon():
    src = random_hypercube_source(1, 0.2, seed=1)
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"^n must be at least 1, got {n}$"):
            mc_avg_redundancy(src, "0", KTCoder(1, "0"), n, 10, seed=1)


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def test_lower_bound_hand_value():
    got = minimax_lower_bound_value(2**20, 3, 1 / 8)
    expect = 4 * 20 - 8 * (3 + 1.5) - 4 * (math.log2(12 * math.pi * math.e) + 1)
    assert got == pytest.approx(expect, abs=1e-12)


def test_lower_bound_monotone_in_n():
    for ell in (1, 2, 3, 5):
        step = minimax_lower_bound_value(2**21, ell, 0.01) - minimax_lower_bound_value(
            2**20, ell, 0.01
        )
        assert step == pytest.approx(2.0 ** (ell - 1), abs=1e-9)


def test_lower_bound_smaller_delta_smaller_bound():
    assert minimax_lower_bound_value(2**16, 3, 1e-4) < minimax_lower_bound_value(2**16, 3, 1e-2)


def test_lower_bound_requires_positive_depth():
    with pytest.raises(ValueError):
        minimax_lower_bound_value(1024, 0, 0.1)


def test_lower_bound_survives_rate_underflow():
    # dexp rates underflow past depth ~10; log2(1/delta) stays exact
    spec = DeltaSpec.parse("dexp:1")
    assert spec.log2_inv(12) == 4096.0
    value = minimax_lower_bound(2**20, 12, spec)
    assert math.isfinite(value)
    assert value < -(2.0**12) * 4096.0 / 2  # dominated by the rate term
    with pytest.raises(ValueError):
        minimax_lower_bound_value(2**20, 12, 0.0)
    report = bound_report(4096, spec, ells=range(1, 13))
    assert all(math.isfinite(r.lower) for r in report.rows)


def test_prop_bound_tiny_delta_prefers_depth_one():
    spec = DeltaSpec("table", values=tuple([1e-12] * 16), cap0=1e-12)
    choice = optimal_ell(2**16, spec, "truncation")
    assert choice.scanned == 1
    assert choice.scanned_value == pytest.approx(2.0 ** (1 - 1) * 16 + 2 * 2**16 * 1e-12, rel=1e-9)


def test_prop_bound_scan_beats_prescription():
    spec = DeltaSpec.parse("exp:1")
    for n in (2**14, 2**16):
        choice = optimal_ell(n, spec, "truncation")
        assert choice.scanned_value <= choice.prescribed_value + 1e-9
        assert abs(choice.scanned - choice.prescribed) <= 1


def test_prop_bound_dominates_lead_term():
    spec = DeltaSpec.parse("exp:1")
    choice = optimal_ell(2**16, spec, "truncation")
    ell, value = choice.scanned, choice.scanned_value
    assert bound_report(2**16, spec).best_upper_truncation == (ell, value)
    assert value >= 2.0 ** (ell - 1) * 16


def test_refined_bound_vanishing_delta_limit():
    n, ell = 4096, 3
    spec = DeltaSpec("table", values=tuple([1e-15] * 16), cap0=1e-15)
    limit = 2.0 ** (ell - 1) * math.log2(n) + (2.0 ** (2 * ell + 1) - 2.0**ell) / n**2
    assert refined_upper_bound(n, ell, spec) == pytest.approx(limit, rel=1e-6)


# rates in every regime the radius meets: decaying, underflowing to the
# smallest subnormal, within a few ulps of it, and clamped at every depth
RADIUS_SPECS = (
    DeltaSpec.parse("exp:1"),
    DeltaSpec.parse("poly:1.01"),
    DeltaSpec.parse("dexp:1"),
    DeltaSpec("table", values=(5e-324, 1e-323) * 16),
    DeltaSpec("table", values=tuple(5e-324 * 2**k for k in range(32))),
    DeltaSpec("table", values=(5.0,) * 32, cap0=5.0),
)
RADIUS_NS = (2, 3, 5, 1000, 2**12, 2**16 + 1, 2**20, 2**30)


def test_radius_variants_ordering():
    spec = DeltaSpec.parse("exp:1")
    for n in (2**12, 2**16):
        for ell in (2, 4, 6):
            doubled = comparison_radius(n, ell, spec, "doubled")
            plain = comparison_radius(n, ell, spec, "plain")
            assert doubled > plain  # doubled terms and a wider radical
    # the default is the larger radius, and that is always the doubled one:
    # each doubled term is at least the plain one and rounding is monotone
    for delta in RADIUS_SPECS:
        for n in RADIUS_NS:
            for ell in range(1, 17):
                assert comparison_radius(n, ell, delta, "doubled") >= comparison_radius(n, ell, delta, "plain")
                doubled = refined_upper_bound(n, ell, delta, "doubled")
                assert doubled >= refined_upper_bound(n, ell, delta, "plain")
                assert refined_upper_bound(n, ell, delta) == doubled
    with pytest.raises(ValueError, match="unknown variant 'safe'"):
        refined_upper_bound(2**12, 2, RADIUS_SPECS[0], "safe")


def test_bound_report_rows_equal_the_public_evaluators():
    for delta in RADIUS_SPECS:
        for n in RADIUS_NS:
            for row in bound_report(n, delta).rows:
                ell = row.ell
                assert row.lower == minimax_lower_bound(n, ell, delta)
                assert row.upper_truncation == truncation_upper_bound_at(n, ell, delta)
                assert row.upper_refined == refined_upper_bound(n, ell, delta, "doubled")
                assert row.upper_refined_plain == refined_upper_bound(n, ell, delta, "plain")
                assert row.r_ell == comparison_radius(n, ell, delta, "doubled")
                assert row.r_ell_plain == comparison_radius(n, ell, delta, "plain")
                assert row.clamped == any(delta.eval_detail(m)[1] for m in range(ell, 2 * ell + 1))


def test_refined_overtakes_truncation_only_at_scale():
    # the two upper bounds invert at desk scale; the refined one wins later
    spec = DeltaSpec.parse("exp:1")
    small = bound_report(2**14, spec)
    assert small.best_upper_refined[1] > small.best_upper_truncation[1]
    stmt_crossed = bound_report(2**20, spec)
    assert min(r.upper_refined_plain for r in stmt_crossed.rows) <= stmt_crossed.best_upper_truncation[1]
    safe_crossed = bound_report(2**26, spec)
    assert safe_crossed.best_upper_refined[1] <= safe_crossed.best_upper_truncation[1]


def test_optimal_ell_dexp_example():
    choice = optimal_ell(2**16, DeltaSpec.parse("dexp:1"), "refined")
    assert choice.prescribed == 4


def test_optimal_ell_lower_regime_exp():
    choice = optimal_ell(2**15, DeltaSpec.parse("exp:1"), "lower")
    assert choice.prescribed == 5  # (1/3) log2 n
    assert choice.scanned_value >= choice.prescribed_value - 1e-9


@pytest.mark.parametrize("regime,factor,prescribed", [("lower", 4.0, 3), ("refined", 4.0, 3), ("truncation", 2.0, 11)])
def test_optimal_ell_poly_prescription(regime, factor, prescribed):
    # poly:c prescribes log2 n - 2c log2 log2 n for the lower and refined
    # bounds and log2 n - c log2 log2 n for truncation: 2.71 and 11.36 here
    from mdelta.redundancy import _prescribed_ell

    n, spec = 2**20, DeltaSpec.parse("poly:2")
    assert _prescribed_ell(n, spec, regime) == 20.0 - factor * math.log2(20.0)
    assert optimal_ell(n, spec, regime).prescribed == prescribed


def test_optimal_ell_validation():
    with pytest.raises(ValueError, match="^n must be at least 4, got 2$"):
        optimal_ell(2, DeltaSpec.parse("exp:1"))
    with pytest.raises(ValueError):
        optimal_ell(2**10, DeltaSpec.parse("exp:1"), "sideways")


@pytest.mark.parametrize("regime", ["lower", "truncation", "refined"])
def test_scans_reject_an_empty_depth_grid(regime):
    spec = DeltaSpec.parse("exp:1")
    for ells in ([], range(3, 1)):
        with pytest.raises(ValueError, match="^empty depth range: no ell to evaluate$"):
            optimal_ell(2**16, spec, regime, ells=ells)
        with pytest.raises(ValueError, match="^empty depth range: no ell to evaluate$"):
            bound_report(2**16, spec, ells)


def test_bound_report_needs_two_steps():
    spec = DeltaSpec.parse("exp:1")
    for n in (1, 0, -4):
        for ells in (None, [1]):
            with pytest.raises(ValueError, match=f"^n must be at least 2, got {n}$"):
                bound_report(n, spec, ells)
    assert [r.ell for r in bound_report(2, spec).rows] == [1]


def test_exact_avg_redundancy_refuses_a_negative_horizon():
    src = random_hypercube_source(1, 0.2, seed=1)
    with pytest.raises(ValueError, match="^n must be at least 0, got -2$"):
        exact_avg_redundancy(src, "0", KTCoder(1, "0"), -2)


def test_bound_report_shape_and_clamps():
    spec = DeltaSpec.parse("exp:1")
    report = bound_report(2**14, spec, ells=range(1, 9))
    assert len(report.rows) == 8
    # depths at or below 4 evaluate delta inside the clamped region
    assert report.rows[0].clamped
    assert not report.rows[7].clamped
    assert report.delta == "exp:1"


def test_default_scan_range():
    assert list(default_ell_range(2**10)) == list(range(1, 11))
    assert list(default_ell_range(2**20))[-1] == 16


# ---------------------------------------------------------------------------
# double-entry re-implementation of every formula (straight-line arithmetic)
# ---------------------------------------------------------------------------


def _delta_value(kind, c, m, cap0=1.0):
    if m == 0:
        raw = {"poly": math.inf, "exp": 1.0, "dexp": 0.5}[kind]
        return min(raw, cap0)
    raw = {
        "poly": m**-c,
        "exp": 2.0 ** (-c * m),
        "dexp": 2.0 ** -(2.0 ** (c * m)),
    }[kind]
    if raw == 0.0:
        raw = 5e-324  # rates stay positive even past float underflow
    cap = (1.0 - 1e-9) / (4.0 * m)
    return raw if raw <= cap else cap


def _lb(n, ell, d):
    a = 2.0 ** (ell - 1) * math.log2(n)
    b = 2.0**ell * (math.log2(1.0 / d) + 0.5 * ell)
    c = 2.0 ** (ell - 1) * (math.log2(4.0 * math.pi * math.e * ell) + 1.0)
    return a - b - c


def _prop(n, ell, d):
    return 2.0 ** (ell - 1) * math.log2(n) + 2.0 * n * d


def _radius(n, ell, dvals, doubled, wide):
    total = n * dvals[2 * ell]
    for k in range(ell, 2 * ell + 1):
        quad = n * dvals[k] * dvals[k]
        lin = math.log2(n) * math.sqrt(n * 2.0 ** (k + (1 if wide else 0))) * dvals[k]
        total += (2.0 * quad + 2.0 * lin) if doubled else (quad + lin)
    return total


def _refined(n, ell, dvals, doubled, wide):
    lead = 2.0 ** (ell - 1) * math.log2(n)
    tail = (2.0 ** (2 * ell + 1) - 2.0**ell) * n / n**3
    return lead + _radius(n, ell, dvals, doubled, wide) + tail


def test_double_entry_grid():
    grid = []
    for kind, c in (("poly", 2.0), ("exp", 1.0), ("exp", 2.0), ("dexp", 1.0)):
        for e in (8, 11, 14, 17, 20):
            for ell in (1, 3, 6):
                grid.append((kind, c, 2**e, ell))
    assert len(grid) >= 50
    checked = 0
    for kind, c, n, ell in grid:
        spec = DeltaSpec(kind, c=c)
        dvals = {m: _delta_value(kind, c, m) for m in range(0, 2 * ell + 1)}
        for m, v in dvals.items():
            assert spec(m) == pytest.approx(v, abs=0, rel=1e-15)
        assert minimax_lower_bound(n, ell, spec) == pytest.approx(
            _lb(n, ell, dvals[ell]), abs=1e-9, rel=1e-12
        )
        assert truncation_upper_bound_at(n, ell, spec) == pytest.approx(
            _prop(n, ell, dvals[ell]), abs=1e-9, rel=1e-12
        )
        assert comparison_radius(n, ell, spec, "doubled") == pytest.approx(
            _radius(n, ell, dvals, True, True), abs=1e-9, rel=1e-12
        )
        assert comparison_radius(n, ell, spec, "plain") == pytest.approx(
            _radius(n, ell, dvals, False, False), abs=1e-9, rel=1e-12
        )
        assert refined_upper_bound(n, ell, spec, "doubled") == pytest.approx(
            _refined(n, ell, dvals, True, True), abs=1e-9, rel=1e-12
        )
        assert refined_upper_bound(n, ell, spec, "plain") == pytest.approx(
            _refined(n, ell, dvals, False, False), abs=1e-9, rel=1e-12
        )
        checked += 1
    assert checked == len(grid)
