"""Numerical verification harnesses for the probabilistic facts the
redundancy bounds rest on: exact small-n path enumeration where feasible,
seeded Monte Carlo with explicit statistical slack elsewhere.

Statistical contract: every Monte Carlo verdict uses slack equal to
3 standard errors of the empirical quantity and records it; exact
checks use no statistical slack, only a float tolerance (1e-9 for
accumulated log products, 1e-12 for direct sums).  Fixed seed means a
bit-identical report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import _kernels
from .coders import ml_log2_from_counts
from .delta import DeltaSpec
from .source import (
    MarkovSource,
    _chunk_sizes,
    aggregate_moments,
    as_bits,
    log2_empirical_product,
    random_continuity_source,
    random_hypercube_source,
    state_code,
)

__all__ = [
    "VerificationReport",
    "DeviationStats",
    "deviation_stats",
    "verify_domination",
    "verify_state_count",
    "estimate_inv_ns",
    "verify_mse",
    "verify_azuma_stopped",
    "verify_deviation",
    "TruncationCheck",
    "verify_truncation",
    "verify_truncation_batch",
    "ChainingCheck",
    "verify_chaining",
    "verify_chaining_batch",
    "AZUMA_KINDS",
]

EXACT_TOL_LOG = 1e-9
EXACT_TOL_SUM = 1e-12
_ESCALATION_CAP = 10**7

AZUMA_KINDS = {"fixed": 0, "first-passage": 1, "random": 2}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one harness run; verdict is empirical <= bound + slack."""

    lemma: str
    params: dict
    trials: int
    failures: int
    empirical: float
    bound: float
    slack: float
    verdict: bool
    extras: dict = field(default_factory=dict)
    samples: np.ndarray | None = None

    def __post_init__(self):
        expected = self.empirical <= self.bound + self.slack
        if self.verdict != expected:
            raise ValueError("verdict inconsistent with empirical/bound/slack")


def _make_report(lemma, params, trials, failures, empirical, bound, slack, **kw):
    return VerificationReport(
        lemma=lemma,
        params=params,
        trials=trials,
        failures=failures,
        empirical=empirical,
        bound=bound,
        slack=slack,
        verdict=bool(empirical <= bound + slack),
        **kw,
    )


def _rate_se(phat: float, trials: int) -> float:
    return math.sqrt(phat * (1.0 - phat) / trials) if trials else 0.0


def _check_horizon(n: int) -> None:
    """Every Monte Carlo harness samples sequences of at least one step."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")


def _escalate(run, trials: int | None, min_trials: int = 1):
    """Run with auto-escalating trial counts until 3*SE <= 20% of the bound.

    An explicit trial count must reach `min_trials`: one trial for a rate,
    two for a sample standard deviation.
    """
    if trials is not None:
        if trials < min_trials:
            raise ValueError(f"trials must be at least {min_trials}, got {trials}")
        return run(trials)
    t = 10**4
    while True:
        report = run(t)
        if report.slack <= 0.2 * report.bound or t >= _ESCALATION_CAP:
            return report
        t = min(4 * t, _ESCALATION_CAP)


# ---------------------------------------------------------------------------
# domination of history-dependent processes by a binomial
# ---------------------------------------------------------------------------


def binomial_tail(n: int, q: float, k: int) -> float:
    """P(Bin(n, q) <= k) from exact integer binomial coefficients."""
    return float(sum(comb(n, i) * q**i * (1.0 - q) ** (n - i) for i in range(k + 1)))


def verify_domination(
    n: int = 12, q: float = 0.3, processes: int = 200, seed: int = 0
) -> VerificationReport:
    """Exact check that any process with conditionals >= q has lighter lower
    tails than the Bin(n, q) it dominates.

    Each process draws its conditional P(X_t = 1 | history) per history
    node, hashed into [q, 1); the tail P(sum X <= k) is an exact sum
    over all 2^n paths and is compared with the binomial tail at every
    k.  The conditionals == q process must match the binomial exactly.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if n > 20:
        raise ValueError("exact path enumeration capped at n <= 20")
    tails = np.array([binomial_tail(n, q, k) for k in range(n + 1)])
    eq_dist = _kernels.domination_dist(n, q, 0, randomized=False)
    equality_gap = float(np.abs(np.cumsum(eq_dist) - tails).max())
    worst = -math.inf
    failures = 0
    for p in range(processes):
        pseed = _kernels.child_seed(seed, f"domination-q{q}-proc{p}")
        dist = _kernels.domination_dist(n, q, pseed, randomized=True)
        excess = float((np.cumsum(dist) - tails).max())
        worst = max(worst, excess)
        if excess > EXACT_TOL_SUM:
            failures += 1
    worst = max(worst, equality_gap)
    return _make_report(
        "domination",
        {"n": n, "q": q, "processes": processes, "seed": seed},
        trials=processes,
        failures=failures,
        empirical=worst,
        bound=0.0,
        slack=EXACT_TOL_SUM,
        extras={"equality_gap": equality_gap},
    )


# ---------------------------------------------------------------------------
# state-count concentration and its consequences
# ---------------------------------------------------------------------------


def state_count_threshold(n: int, ell: int) -> float:
    """n / (2^{ell+1} ell) - sqrt(n log2(n) / (2^ell ell))."""
    return n / (2.0 ** (ell + 1) * ell) - math.sqrt(n * math.log2(n) / (2.0**ell * ell))


def _hypercube_setup(ell, delta_at, seed, state, source=None):
    if source is None:
        source = random_hypercube_source(ell, delta_at, seed=_kernels.child_seed(seed, "source"))
    elif source.memory != ell:
        raise ValueError("supplied source must have memory equal to ell")
    state = state if state is not None else "1" * ell
    code = state_code(state, ell)
    past = "0" * ell
    return source, state, code, past


def _state_counts(source, past, ell, n, trials, rng, code):
    """Per-trial (n_s, n_s1) for one target state, chunked sampling."""
    occ_out = np.empty(trials, np.int64)
    ones_out = np.empty(trials, np.int64)
    s0 = state_code(past, ell)
    done = 0
    for bits in source._sample_chunks(past, n, trials, rng):
        occ, ones = _kernels.count_batch(bits, s0, ell)
        occ_out[done : done + len(bits)] = occ[:, code]
        ones_out[done : done + len(bits)] = ones[:, code]
        done += len(bits)
    return occ_out, ones_out


def verify_state_count(
    ell: int = 2,
    delta_at: float = 1 / 16,
    n: int = 2**14,
    trials: int | None = 10**4,
    seed: int = 0,
    state: str | None = None,
    threshold: float | None = None,
    source: MarkovSource | None = None,
) -> VerificationReport:
    """MC check that a near-fair chain rarely starves any one state:
    P(n_s <= threshold) <= 1/n, threshold defaulting to
    n/(2^{ell+1} ell) - sqrt(n log2(n)/(2^ell ell))."""
    _check_horizon(n)
    source, state, code, past = _hypercube_setup(ell, delta_at, seed, state, source)
    k = threshold if threshold is not None else state_count_threshold(n, ell)
    params = {"ell": ell, "delta_at": delta_at, "n": n, "state": state, "seed": seed, "k": k}
    if k <= 0:
        return _make_report(
            "state-count", params, 0, 0, 0.0, 1.0 / n, 0.0, extras={"skipped": "threshold <= 0"}
        )

    def run(t):
        rng = np.random.default_rng(_kernels.child_seed(seed, "trials"))
        occ, _ = _state_counts(source, past, ell, n, t, rng, code)
        failures = int((occ <= k).sum())
        phat = failures / t
        return _make_report(
            "state-count", params, t, failures, phat, 1.0 / n, 3.0 * _rate_se(phat, t),
            extras={"mean_count": float(occ.mean())},
        )

    return _escalate(run, trials)


def estimate_inv_ns(
    ell: int = 2,
    delta_at: float = 1 / 16,
    n: int = 2**12,
    trials: int | None = 10**4,
    seed: int = 0,
    state: str | None = None,
    source: MarkovSource | None = None,
) -> VerificationReport:
    """MC estimate of E[1/n_s] (taken as 1 when n_s = 0) against the
    asymptotic ceiling; both the tight constant ell 2^{ell+1}/n and its
    doubled, safer companion are recorded, and the looser one decides."""
    _check_horizon(n)
    source, state, code, past = _hypercube_setup(ell, delta_at, seed, state, source)
    bound_tight = ell * 2.0 ** (ell + 1) / n
    bound_loose = 2.0 * ell * 2.0 ** (ell + 1) / n
    params = {"ell": ell, "delta_at": delta_at, "n": n, "state": state, "seed": seed}

    def run(t):
        rng = np.random.default_rng(_kernels.child_seed(seed, "trials"))
        occ, _ = _state_counts(source, past, ell, n, t, rng, code)
        inv = np.where(occ > 0, 1.0 / np.maximum(occ, 1), 1.0)
        mean = float(inv.mean())
        se = float(inv.std(ddof=1) / math.sqrt(t))
        return _make_report(
            "inv-ns", params, t, int((inv > bound_loose).sum()), mean, bound_loose, 3.0 * se,
            extras={"bound_tight": bound_tight, "bound_loose": bound_loose, "se": se},
        )

    return _escalate(run, trials, min_trials=2)


def verify_mse(
    ell: int = 2,
    delta_at: float = 1 / 16,
    n: int = 2**12,
    trials: int | None = 10**4,
    seed: int = 0,
    state: str | None = None,
    source: MarkovSource | None = None,
) -> VerificationReport:
    """MC check that the plug-in estimate n_s1/n_s of a transition
    probability has mean squared error at most min{E[1/n_s], 1}; empty
    states count a worst-case squared error of 1."""
    _check_horizon(n)
    source, state, code, past = _hypercube_setup(ell, delta_at, seed, state, source)
    theta_s = float(source.state_theta[code])
    params = {"ell": ell, "delta_at": delta_at, "n": n, "state": state, "seed": seed}

    def run(t):
        rng = np.random.default_rng(_kernels.child_seed(seed, "trials"))
        occ, ones = _state_counts(source, past, ell, n, t, rng, code)
        hat = np.where(occ > 0, ones / np.maximum(occ, 1), 0.0)
        sq = np.where(occ > 0, (hat - theta_s) ** 2, 1.0)
        inv = np.where(occ > 0, 1.0 / np.maximum(occ, 1), 1.0)
        mse = float(sq.mean())
        rhs = min(float(inv.mean()), 1.0)
        se = math.hypot(float(sq.std(ddof=1)), float(inv.std(ddof=1))) / math.sqrt(t)
        return _make_report(
            "mse", params, t, int((sq > rhs).sum()), mse, rhs, 3.0 * se,
            extras={"theta": theta_s, "inv_ns_mean": float(inv.mean()), "se": se},
        )

    return _escalate(run, trials, min_trials=2)


# ---------------------------------------------------------------------------
# stopped-walk concentration
# ---------------------------------------------------------------------------


def verify_azuma_stopped(
    n: int = 100,
    gamma: float = 5.0,
    trials: int | None = 10**6,
    seed: int = 0,
    kind: str = "first-passage",
) -> VerificationReport:
    """MC check of the stopped-walk tail: a fair +-1 walk stopped at any
    stopping time tau <= n satisfies P(|S_tau| >= gamma sqrt(tau)) <=
    n exp(-gamma^2 / 2).

    Kinds: "fixed" (tau = n, the plain tail), "first-passage" (stop on
    first crossing of the gamma sqrt(k) envelope, the adversarial case)
    and "random" (first return of the walk to zero after ten steps).
    """
    _check_horizon(n)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if kind not in AZUMA_KINDS:
        raise ValueError(f"unknown stopping kind {kind!r}; choose from {sorted(AZUMA_KINDS)}")
    bound = n * math.exp(-gamma * gamma / 2.0)
    params = {"n": n, "gamma": gamma, "kind": kind, "seed": seed}

    def run(t):
        rng = np.random.default_rng(_kernels.child_seed(seed, "trials"))
        failures = 0
        for size in _chunk_sizes(t, n):
            u = rng.random((size, n))
            failures += _kernels.azuma_failures(u, gamma, AZUMA_KINDS[kind])
        phat = failures / t
        extras = {"trivial": bound >= 1.0}
        if kind == "fixed":
            extras["unstopped_bound"] = math.exp(-gamma * gamma / 2.0)
        return _make_report(
            "azuma", params, t, failures, phat, bound, 3.0 * _rate_se(phat, t), extras=extras
        )

    return _escalate(run, trials)


# ---------------------------------------------------------------------------
# aggregated deviations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationStats:
    """Per-context deviations z_w = |n_w1 - ptilde_w n_w| at one depth,
    their sum, and the high-probability radius log2(n) sqrt(n 2^depth)."""

    depth: int
    per_context: np.ndarray
    aggregate: float
    threshold: float

    def __post_init__(self):
        self.per_context.setflags(write=False)
        if not math.isclose(self.aggregate, float(self.per_context.sum()), rel_tol=0, abs_tol=1e-9):
            raise ValueError("aggregate does not match the stored per-context deviations")


def deviation_threshold(n: int, depth: int) -> float:
    return math.log2(n) * math.sqrt(n * 2.0**depth)


def deviation_stats(source: MarkovSource, past, x, depth: int) -> DeviationStats:
    """Deviations of ones-counts from their aggregated means for one sample."""
    bits = as_bits(x)
    count_depth = max(depth, source.memory)
    s0 = state_code(past, count_depth)
    occ, ones = _kernels.count_batch(bits[None, :], s0, count_depth)
    n_w, n_w1, weighted = aggregate_moments(source, occ[0], ones[0], depth)
    z = np.abs(n_w1 - weighted)
    return DeviationStats(depth, z, float(z.sum()), deviation_threshold(len(bits), depth))


def verify_deviation(
    ell: int = 2,
    n: int = 2**12,
    trials: int | None = 10**4,
    seed: int = 0,
    delta: DeltaSpec | None = None,
    source: MarkovSource | None = None,
    memory: int | None = None,
) -> VerificationReport:
    """MC check that the summed deviations z_ell stay under
    log2(n) sqrt(n 2^ell) except with probability 2^ell / n^3."""
    _check_horizon(n)
    if math.log2(n) < 6:
        raise ValueError("needs log2(n) >= 6, i.e. n >= 64")
    delta = delta if delta is not None else DeltaSpec.parse("exp:1")
    if source is None:
        memory = memory if memory is not None else ell + 2
        source = random_continuity_source(memory, delta, seed=_kernels.child_seed(seed, "source"))
    if ell > source.memory:
        raise ValueError("deviation depth exceeds the source memory")
    past = "0" * source.memory
    s0 = state_code(past, source.memory)
    thresh = deviation_threshold(n, ell)
    bound = 2.0**ell / float(n) ** 3
    params = {
        "ell": ell, "n": n, "memory": source.memory, "delta": delta.describe(), "seed": seed,
    }

    def run(t):
        rng = np.random.default_rng(_kernels.child_seed(seed, "trials"))
        zs = np.empty(t)
        done = 0
        for bits in source._sample_chunks(past, n, t, rng):
            occ, ones = _kernels.count_batch(bits, s0, source.memory)
            n_w, n_w1, weighted = aggregate_moments(source, occ, ones, ell)
            zs[done : done + len(bits)] = np.abs(n_w1 - weighted).sum(axis=1)
            done += len(bits)
        failures = int((zs > thresh).sum())
        phat = failures / t
        return _make_report(
            "deviation", params, t, failures, phat, bound, 3.0 * _rate_se(phat, t),
            extras={"threshold": thresh, "max_z": float(zs.max()), "mean_z": float(zs.mean())},
            samples=zs,
        )

    return _escalate(run, trials)


# ---------------------------------------------------------------------------
# truncation and depth-chaining comparisons (exact, per sample)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationCheck:
    margin: float  # log2 p(x) - log2 p_ell(x)
    bound_log: float  # n log2(1 + delta(ell))
    bound_linear: float  # 2 n delta(ell)
    margin_vs_ml: float  # log2 p(x) - maximized depth-ell log2 likelihood
    ok: bool


def verify_truncation(
    source: MarkovSource, past, ell: int, x, delta: DeltaSpec
) -> TruncationCheck:
    """Exact check that truncating memory to ell costs at most
    n log2(1 + delta(ell)) <= 2 n delta(ell) bits for this sample, and
    that the depth-ell maximized likelihood is at least as close."""
    bits = as_bits(x)
    n = len(bits)
    d = delta(ell)
    truncated = source.truncate(ell)
    log_p = source.log_prob(past, bits)
    margin = log_p - truncated.log_prob(past, bits)
    occ, ones = _kernels.count_batch(bits[None, :], state_code(past, ell), ell)
    margin_ml = log_p - float(ml_log2_from_counts(occ[0], ones[0]))
    bound_log = n * math.log2(1.0 + d)
    bound_linear = 2.0 * n * d
    ok = margin <= bound_log + EXACT_TOL_LOG and margin_ml <= bound_linear + EXACT_TOL_LOG
    return TruncationCheck(margin, bound_log, bound_linear, margin_ml, ok)


def _exact_batch(lemma, check, excess, count, ell, n, delta, seed) -> VerificationReport:
    """Run an exact per-sample check over a seeded batch of (source, sample)
    pairs with memory 2*ell sources; the empirical value is the worst excess."""
    delta = delta if delta is not None else DeltaSpec.parse("exp:1")
    failures = 0
    worst = -math.inf
    for i in range(count):
        src = random_continuity_source(2 * ell, delta, seed=_kernels.child_seed(seed, f"src{i}"))
        past = "0" * src.memory
        x = src.sample(past, n, seed=_kernels.child_seed(seed, f"x{i}"))
        result = check(src, past, ell, x, delta)
        worst = max(worst, excess(result))
        if not result.ok:
            failures += 1
    return _make_report(
        lemma,
        {"count": count, "ell": ell, "n": n, "delta": delta.describe(), "seed": seed},
        trials=count,
        failures=failures,
        empirical=worst,
        bound=0.0,
        slack=EXACT_TOL_LOG,
    )


def verify_truncation_batch(
    count: int = 100,
    ell: int = 3,
    n: int = 4096,
    delta: DeltaSpec | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Seeded batch of truncation checks with memory 2*ell sources."""
    return _exact_batch(
        "truncation", verify_truncation,
        lambda c: max(c.margin - c.bound_log, c.margin_vs_ml - c.bound_linear),
        count, ell, n, delta, seed,
    )


@dataclass(frozen=True)
class ChainingCheck:
    lhs: float  # log2 of the depth-(ell+1) empirical aggregated product
    rhs_base: float  # log2 of the depth-ell one
    z_next: float  # summed deviations at depth ell+1
    allowance: float  # 2 n delta(ell)^2 + 2 z delta(ell), in bits as displayed
    margin: float  # lhs - rhs_base
    ok: bool


def verify_chaining(
    source: MarkovSource, past, ell: int, x, delta: DeltaSpec
) -> ChainingCheck:
    """Exact check that refining the aggregation depth by one can raise the
    empirical product by at most 2 n delta(ell)^2 + 2 z_{ell+1} delta(ell) bits."""
    bits = as_bits(x)
    n = len(bits)
    count_depth = max(ell + 1, source.memory)
    s0 = state_code(past, count_depth)
    occ, ones = _kernels.count_batch(bits[None, :], s0, count_depth)
    n_w, n_w1, weighted = aggregate_moments(source, occ[0], ones[0], ell + 1)
    lhs = log2_empirical_product(n_w, n_w1, weighted)
    rhs = log2_empirical_product(*aggregate_moments(source, occ[0], ones[0], ell))
    z_next = float(np.abs(n_w1 - weighted).sum())  # deviation_stats(..., ell + 1).aggregate
    d = delta(ell)
    allowance = 2.0 * n * d * d + 2.0 * z_next * d
    margin = lhs - rhs
    return ChainingCheck(lhs, rhs, z_next, allowance, margin, margin <= allowance + EXACT_TOL_LOG)


def verify_chaining_batch(
    count: int = 100,
    ell: int = 2,
    n: int = 4096,
    delta: DeltaSpec | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Seeded batch of chaining checks with memory 2*ell sources."""
    return _exact_batch(
        "chaining", verify_chaining, lambda c: c.margin - c.allowance, count, ell, n, delta, seed
    )
