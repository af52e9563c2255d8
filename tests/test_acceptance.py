"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runtime limits are enforced on steady-state execution; the autouse
fixture calls every kernel once so first-call set-up (lazy imports and
cached tables) is not billed to any criterion.
"""

import math
import time

import numpy as np
import pytest

import test_redundancy as double_entry
from mdelta import _kernels, cli, codec, lemmas
from mdelta.coders import KTCoder, MixtureCoder, NMLCoder, SourceCoder, shtarkov_sum
from mdelta.delta import DeltaSpec
from mdelta.redundancy import mc_avg_redundancy, optimal_ell
from mdelta.source import MarkovSource, full_tree, random_hypercube_source, state_code

EXP1 = DeltaSpec.parse("exp:1")


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # touch every kernel once so timed sections never include first-call set-up
    theta = np.array([0.4, 0.6])
    u = np.random.default_rng(0).random((2, 8))
    bits = _kernels.sample_batch(theta, 0, 1, u)
    _kernels.count_batch(bits, 0, 1)
    _kernels.log2_prob_batch(np.log2(theta), np.log2(1 - theta), 0, 1, bits)
    _kernels.enum_source_log2(np.log2(theta), np.log2(1 - theta), 0, 1, 4)
    _kernels.enum_ml_log2(1, 0, 4)
    _kernels.enum_kt_log2(1, 0, 4)
    _kernels.domination_dist(4, 0.3, 1, True)
    _kernels.domination_dist(4, 0.3, 1, False)
    _kernels.azuma_failures(u, 1.0, 1)


def report(num, ok, detail, elapsed):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.1f}s)")
    assert ok, detail


def test_criterion_1_exact_shtarkov_values(capsys):
    t0 = time.perf_counter()
    assert cli.main(["nml", "--ell", "0", "--n", "2"]) == 0
    first = float(capsys.readouterr().out.strip())
    assert cli.main(["nml", "--ell", "1", "--past", "0", "--n", "2"]) == 0
    second = float(capsys.readouterr().out.strip())
    elapsed = time.perf_counter() - t0
    err1 = abs(first - math.log2(2.5))
    err2 = abs(second - math.log2(3.25))
    ok = err1 <= 1e-12 and err2 <= 1e-12 and elapsed < 1.0
    with capsys.disabled():
        report(1, ok, f"nml values off by {err1:.2e}, {err2:.2e}; runtime {elapsed:.3f}s < 1s", elapsed)


def test_criterion_2_kt_regret_ceiling(capsys):
    t0 = time.perf_counter()
    n = 12
    worsts = {}
    for ell in (0, 1, 2):
        past = "00"
        ml = _kernels.enum_ml_log2(ell, state_code(past, ell), n)
        kt = KTCoder(ell, past).log2_prob_all(n)
        worst = float((ml - kt).max())
        ceiling = 2.0**ell * (0.5 * math.log2(n) + 2.0)
        worsts[ell] = (worst, ceiling)
    kt_ok = all(w <= c for w, c in worsts.values())

    nml_ok = True
    for n_small in (6, 8, 10):
        for ell in (0, 1):
            coder = NMLCoder(ell, past="0", horizon=n_small)
            ml = _kernels.enum_ml_log2(ell, state_code("0", ell), n_small)
            regret = ml - coder.log2_prob_all(n_small)
            nml_ok &= abs(float(regret.max()) - coder.log2_sum) <= 1e-12
            kt_worst = float((ml - KTCoder(ell, "0").log2_prob_all(n_small)).max())
            nml_ok &= kt_worst >= coder.log2_sum - 1e-12
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"ell={e}: {w:.3f}<={c:.3f}" for e, (w, c) in worsts.items())
    with capsys.disabled():
        report(2, kt_ok and nml_ok and elapsed < 30, f"KT ceilings [{detail}]; NML flat-regret exact", elapsed)


def test_criterion_3_codec_round_trip(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    pairs = 0
    ok = True
    worst_gap = -math.inf
    for ell in range(5):
        past = "0" * max(ell, 1)
        for trial in range(200):
            n = int(rng.integers(16, 513))
            # a hypercube source and its sample, both drawn from the one rng
            src = MarkovSource(full_tree(ell), (0.5 + rng.uniform(-0.2, 0.2, size=1 << ell)).tolist())
            x = _kernels.sample_batch(src.state_theta, state_code(past, ell), ell, rng.random((1, n)))[0]
            pick = trial % 3
            if pick == 0:
                coder = KTCoder(ell, past)
            elif pick == 1:
                coder = MixtureCoder(ell, past, horizon=n)
            else:
                coder = SourceCoder(src, past)
            code = codec.encode(coder, x)
            back = codec.decode(coder, code, n)
            limit = math.ceil(-coder.log2_prob(x)) + 2
            worst_gap = max(worst_gap, len(code) - limit)
            ok &= bool(np.array_equal(back, x)) and len(code) <= limit
            pairs += 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(
            3,
            ok and pairs == 1000 and elapsed < 60,
            f"{pairs} round trips exact, worst length minus limit {worst_gap}",
            elapsed,
        )


def test_criterion_4_domination_exact(capsys):
    t0 = time.perf_counter()
    ok = True
    details = []
    for q in (0.1, 0.3, 0.5):
        rep = lemmas.verify_domination(n=12, q=q, processes=200, seed=41)
        ok &= rep.verdict and rep.extras["equality_gap"] <= 1e-12
        details.append(f"q={q}: excess {rep.empirical:.1e}, equality gap {rep.extras['equality_gap']:.1e}")
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(4, ok and elapsed < 300, "; ".join(details), elapsed)


def test_criterion_5_concentration_suite(capsys):
    t0 = time.perf_counter()
    state = lemmas.verify_state_count(ell=2, delta_at=1 / 16, n=2**14, trials=10**4, seed=51)
    dev = lemmas.verify_deviation(ell=2, n=2**12, trials=10**4, seed=52, delta=EXP1)
    azuma = lemmas.verify_azuma_stopped(n=100, gamma=5.0, trials=10**6, seed=53, kind="first-passage")
    elapsed = time.perf_counter() - t0
    ok = state.verdict and dev.verdict and azuma.verdict and elapsed < 600
    detail = (
        f"state-count {state.empirical:.2e}<={state.bound:.2e}+{state.slack:.1e}; "
        f"deviation {dev.empirical:.2e}<={dev.bound:.2e}+{dev.slack:.1e}; "
        f"azuma {azuma.empirical:.2e}<={azuma.bound:.2e}+{azuma.slack:.1e}"
    )
    with capsys.disabled():
        report(5, ok, detail, elapsed)


def test_criterion_6_inv_ns_and_mse(capsys):
    t0 = time.perf_counter()
    ok = True
    details = []
    for ell in (2, 3):
        inv = lemmas.estimate_inv_ns(ell=ell, delta_at=1 / 16, n=2**12, trials=10**4, seed=61 + ell)
        mse = lemmas.verify_mse(ell=ell, delta_at=1 / 16, n=2**12, trials=10**4, seed=71 + ell)
        ok &= inv.verdict and mse.verdict
        details.append(
            f"ell={ell}: E[1/n_s] {inv.empirical:.2e}<={inv.bound:.2e}, "
            f"MSE {mse.empirical:.2e}<={mse.bound:.2e}"
        )
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(6, ok, "; ".join(details), elapsed)


def test_criterion_7_truncation_and_chaining(capsys):
    t0 = time.perf_counter()
    trunc = lemmas.verify_truncation_batch(count=100, ell=3, n=4096, delta=EXP1, seed=77)
    chain = lemmas.verify_chaining_batch(count=100, ell=3, n=4096, delta=EXP1, seed=77)
    elapsed = time.perf_counter() - t0
    ok = trunc.verdict and chain.verdict and trunc.failures == 0 and chain.failures == 0
    detail = (
        f"truncation worst slack-to-bound {trunc.empirical:.3e} <= {trunc.slack:.0e}; "
        f"chaining worst {chain.empirical:.3e} <= {chain.slack:.0e}"
    )
    with capsys.disabled():
        report(7, ok, detail, elapsed)


def test_criterion_8_bound_formulas(capsys):
    t0 = time.perf_counter()
    double_entry.test_double_entry_grid()  # 60-point double-entry comparison at 1e-9
    ok = True
    details = []
    for n in (2**14, 2**16):
        choice = optimal_ell(n, EXP1, "refined")
        ok &= choice.scanned_value <= choice.prescribed_value + 1e-9
        details.append(
            f"n=2^{int(math.log2(n))}: scan ell={choice.scanned} value {choice.scanned_value:.1f}"
            f" <= prescription ell={choice.prescribed} value {choice.prescribed_value:.1f}"
            f" (distance {abs(choice.scanned - choice.prescribed)}, reported)"
        )
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(8, ok, "; ".join(details), elapsed)


def test_criterion_9_end_to_end_dominance(capsys):
    t0 = time.perf_counter()
    trials = 48
    ok = True
    means = []
    lines = []
    for n in (2**10, 2**12, 2**14):
        choice = optimal_ell(n, EXP1, "refined")
        ell, bound = choice.scanned, choice.scanned_value
        half = EXP1(ell)
        past = "0" * ell
        regrets = []
        for i in range(50):
            src = random_hypercube_source(ell, half, seed=_kernels.child_seed(91, f"n{n}-src{i}"))
            coder = MixtureCoder(ell, past, horizon=n)
            est = mc_avg_redundancy(
                src, past, coder, n, trials, seed=_kernels.child_seed(91, f"n{n}-mc{i}")
            )
            ok &= est.mean <= bound + 5.0 * est.se
            regrets.append(est.mean)
        means.append(float(np.mean(regrets)))
        lines.append(f"n=2^{int(math.log2(n))}: ell={ell} regret {means[-1]:.2f} <= bound {bound:.1f}")
    slope = float(np.polyfit(np.log2([2**10, 2**12, 2**14]), np.log2(means), 1)[0])
    lines.append(f"slope {slope:.3f} (inspection only)")
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(9, ok, "; ".join(lines), elapsed)


def test_kt_alone_meets_the_bound_and_its_ceiling_at_criterion_9_shapes():
    # criterion 9 scores the mixture, whose regret on these near-fair
    # sources is the uniform half's plus 1 bit, so it passes whatever its KT
    # half does; KT alone, on criterion 9's first 10 sources per n, sits
    # well under the paper bound and under the per-state ceiling
    # 2^ell (log2(n)/2 + 2), which holds for every sequence
    trials = 48
    for n in (2**10, 2**12, 2**14):
        choice = optimal_ell(n, EXP1, "refined")
        ell, bound = choice.scanned, choice.scanned_value
        past = "0" * ell
        ceiling = 2.0**ell * (0.5 * math.log2(n) + 2)
        for i in range(10):
            src = random_hypercube_source(ell, EXP1(ell), seed=_kernels.child_seed(91, f"n{n}-src{i}"))
            est = mc_avg_redundancy(
                src, past, KTCoder(ell, past), n, trials, seed=_kernels.child_seed(91, f"n{n}-mc{i}")
            )
            assert est.mean <= bound + 5.0 * est.se
            assert est.mean <= ceiling
