"""Numerical verification harnesses for the probabilistic facts the
redundancy bounds rest on: exact small-n path enumeration where feasible,
seeded Monte Carlo with explicit statistical slack elsewhere.

Statistical contract: every Monte Carlo harness runs exactly the
`trials` it is given, from one generator seeded by `child_seed(seed,
"trials")`; the source harnesses read them as count tables through the
source's one stream (`MarkovSource._count_chunks`).  Each verdict uses
slack equal to 3 standard errors of the empirical quantity and records
it; exact checks use no statistical slack, only a float tolerance (1e-9
for accumulated log products, 1e-12 for direct sums).  A report's
verdict is derived from its empirical value, bound and slack, so no
report can disagree with them.  Fixed seed means a bit-identical report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import _kernels
from .coders import ml_log2
from .delta import DeltaSpec
from .source import (
    MarkovSource,
    _check_horizon,
    _chunk_sizes,
    _require_cap,
    aggregate_moments,
    count_table,
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

AZUMA_KINDS = {"fixed": 0, "first-passage": 1, "random": 2}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one harness run; verdict is empirical <= bound + slack,
    set from those three when the report is built."""

    lemma: str
    params: dict
    trials: int
    failures: int
    empirical: float
    bound: float
    slack: float
    verdict: bool = field(init=False)
    extras: dict = field(default_factory=dict)
    samples: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "verdict", bool(self.empirical <= self.bound + self.slack))


def _trials_rng(trials: int, seed: int, least: int = 1) -> np.random.Generator:
    """The one stream a Monte Carlo harness draws its trials from, once
    `trials` reaches `least`: one trial for a rate, two for a sample
    standard deviation."""
    if trials < least:
        raise ValueError(f"trials must be at least {least}, got {trials}")
    return np.random.default_rng(_kernels.child_seed(seed, "trials"))


def _rate_report(lemma, params, trials, failures, bound, **kw) -> VerificationReport:
    # the failure rate against its bound, with 3 binomial standard errors of slack
    phat = failures / trials
    slack = 3.0 * math.sqrt(phat * (1.0 - phat) / trials)
    return VerificationReport(lemma, params, trials, failures, phat, bound, slack, **kw)


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
    _require_cap(n)
    if processes < 1:
        raise ValueError(f"processes must be at least 1, got {processes}")
    tails = np.array([binomial_tail(n, q, k) for k in range(n + 1)])
    eq_dist = _kernels.domination_dist(n, q, 0, randomized=False)
    equality_gap = float(np.abs(np.cumsum(eq_dist) - tails).max())
    pseeds = _kernels._child_seeds(seed, f"domination-q{q}-proc", processes)
    dists = _kernels.domination_dist(n, q, pseeds, randomized=True)
    excess = (np.cumsum(dists, axis=1) - tails).max(axis=1)
    failures = int((excess > EXACT_TOL_SUM).sum())
    worst = max(float(excess.max()), equality_gap)
    return VerificationReport(
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
    """n / (2^{ell+1} ell) - sqrt(n log2(n) / (2^ell ell)), for ell >= 1."""
    if ell < 1:
        raise ValueError(f"the state-count threshold needs ell >= 1, got {ell}")
    return n / (2.0 ** (ell + 1) * ell) - math.sqrt(n * math.log2(n) / (2.0**ell * ell))


def _state_setup(ell, delta_at, n, seed, state, source):
    """What the state-count harnesses share: the horizon check, the source
    (a seeded hypercube one unless supplied), the target state's code and
    the params."""
    _check_horizon(n)
    state = state if state is not None else "1" * ell
    if len(state) != ell:
        raise ValueError(f"state {state!r} must have length ell = {ell}")
    if source is None:
        source = random_hypercube_source(ell, delta_at, seed=_kernels.child_seed(seed, "source"))
    elif source.memory != ell:
        raise ValueError("supplied source must have memory equal to ell")
    params = {"ell": ell, "delta_at": delta_at, "n": n, "state": state, "seed": seed}
    return source, state_code(state, ell), params


def _state_counts(source, n, trials, rng, code):
    """Per-trial (n_s, n_s1) for one target state, from the all-zeros past."""
    ell = source.memory
    occ_out = np.empty(trials, np.int64)
    ones_out = np.empty(trials, np.int64)
    for rows, occ, ones in source._count_chunks("0" * ell, n, trials, rng, ell):
        occ_out[rows] = occ[:, code]
        ones_out[rows] = ones[:, code]
    return occ_out, ones_out


def _inverse_counts(occ):
    # 1/n_s per trial, taken as 1 where the state was never visited
    return np.where(occ > 0, 1.0 / np.maximum(occ, 1), 1.0)


def verify_state_count(
    ell: int = 2,
    delta_at: float = 1 / 16,
    n: int = 2**14,
    trials: int = 10**4,
    seed: int = 0,
    state: str | None = None,
    threshold: float | None = None,
    source: MarkovSource | None = None,
) -> VerificationReport:
    """MC check that a near-fair chain rarely starves any one state:
    P(n_s <= threshold) <= 1/n, threshold defaulting to
    n/(2^{ell+1} ell) - sqrt(n log2(n)/(2^ell ell))."""
    if threshold is not None and not math.isfinite(threshold):
        raise ValueError(f"the state-count threshold must be finite, got {threshold}")
    source, code, params = _state_setup(ell, delta_at, n, seed, state, source)
    k = threshold if threshold is not None else state_count_threshold(n, ell)
    params["k"] = k
    if k <= 0:
        return VerificationReport(
            "state-count", params, 0, 0, 0.0, 1.0 / n, 0.0, extras={"skipped": "threshold <= 0"}
        )
    occ, _ = _state_counts(source, n, trials, _trials_rng(trials, seed), code)
    return _rate_report(
        "state-count", params, trials, int((occ <= k).sum()), 1.0 / n,
        # the smallest n_s, to read against the threshold k in params
        extras={"mean_count": float(occ.mean()), "min_count": int(occ.min())},
    )


def estimate_inv_ns(
    ell: int = 2,
    delta_at: float = 1 / 16,
    n: int = 2**12,
    trials: int = 10**4,
    seed: int = 0,
    state: str | None = None,
    source: MarkovSource | None = None,
) -> VerificationReport:
    """MC estimate of E[1/n_s] (taken as 1 when n_s = 0) against the
    asymptotic ceiling; both the tight constant ell 2^{ell+1}/n and its
    doubled, safer companion are recorded, and the looser one decides."""
    if ell < 1:
        raise ValueError(f"the inverse-count bound needs ell >= 1, got {ell}")
    source, code, params = _state_setup(ell, delta_at, n, seed, state, source)
    bound_tight = ell * 2.0 ** (ell + 1) / n
    bound_loose = 2.0 * ell * 2.0 ** (ell + 1) / n
    occ, _ = _state_counts(source, n, trials, _trials_rng(trials, seed, 2), code)
    inv = _inverse_counts(occ)
    se = float(inv.std(ddof=1) / math.sqrt(trials))
    return VerificationReport(
        "inv-ns", params, trials, int((inv > bound_loose).sum()), float(inv.mean()), bound_loose,
        3.0 * se, extras={"bound_tight": bound_tight, "bound_loose": bound_loose, "se": se},
    )


def verify_mse(
    ell: int = 2,
    delta_at: float = 1 / 16,
    n: int = 2**12,
    trials: int = 10**4,
    seed: int = 0,
    state: str | None = None,
    source: MarkovSource | None = None,
) -> VerificationReport:
    """MC check that the plug-in estimate n_s1/n_s of a transition
    probability has mean squared error at most min{E[1/n_s], 1}; empty
    states count a worst-case squared error of 1."""
    source, code, params = _state_setup(ell, delta_at, n, seed, state, source)
    theta_s = float(source.state_theta[code])
    occ, ones = _state_counts(source, n, trials, _trials_rng(trials, seed, 2), code)
    hat = np.where(occ > 0, ones / np.maximum(occ, 1), 0.0)
    sq = np.where(occ > 0, (hat - theta_s) ** 2, 1.0)
    inv = _inverse_counts(occ)
    rhs = min(float(inv.mean()), 1.0)
    se = math.hypot(float(sq.std(ddof=1)), float(inv.std(ddof=1))) / math.sqrt(trials)
    return VerificationReport(
        "mse", params, trials, int((sq > rhs).sum()), float(sq.mean()), rhs, 3.0 * se,
        extras={"theta": theta_s, "inv_ns_mean": float(inv.mean()), "se": se},
    )


# ---------------------------------------------------------------------------
# stopped-walk concentration
# ---------------------------------------------------------------------------


def verify_azuma_stopped(
    n: int = 100,
    gamma: float = 5.0,
    trials: int = 10**6,
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
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if kind not in AZUMA_KINDS:
        raise ValueError(f"unknown stopping kind {kind!r}; choose from {sorted(AZUMA_KINDS)}")
    bound = n * math.exp(-gamma * gamma / 2.0)
    rng = _trials_rng(trials, seed)
    failures = 0
    for size in _chunk_sizes(trials, n):
        failures += _kernels.azuma_failures(rng.random((size, n)), gamma, AZUMA_KINDS[kind])
    extras = {"trivial": bound >= 1.0}
    if kind == "fixed":
        extras["unstopped_bound"] = math.exp(-gamma * gamma / 2.0)
    return _rate_report(
        "azuma", {"n": n, "gamma": gamma, "kind": kind, "seed": seed}, trials, failures, bound,
        extras=extras,
    )


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


def _deviations(source, occ, ones, depth):
    # z_w = |n_w1 - ptilde_w n_w| for every depth-`depth` context w, from
    # count tables at the source memory or deeper (one row or a batch)
    _, n_w1, weighted = aggregate_moments(source, occ, ones, depth)
    return np.abs(n_w1 - weighted)


def deviation_stats(source: MarkovSource, past, x, depth: int) -> DeviationStats:
    """Deviations of ones-counts from their aggregated means for one sample."""
    counts = count_table(x, past, max(depth, source.memory))
    z = _deviations(source, counts.occurrences, counts.ones, depth)
    return DeviationStats(depth, z, float(z.sum()), deviation_threshold(counts.total, depth))


def verify_deviation(
    ell: int = 2,
    n: int = 2**12,
    trials: int = 10**4,
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
    thresh = deviation_threshold(n, ell)
    rng = _trials_rng(trials, seed)
    zs = np.empty(trials)
    for rows, occ, ones in source._count_chunks(past, n, trials, rng, source.memory):
        zs[rows] = _deviations(source, occ, ones, ell).sum(axis=1)
    max_z = float(zs.max())
    extras = {
        "threshold": thresh, "max_z": max_z, "max_z_over_threshold": max_z / thresh,
        "mean_z": float(zs.mean()),
    }
    params = {"ell": ell, "n": n, "memory": source.memory, "delta": delta.describe(), "seed": seed}
    return _rate_report(
        "deviation", params, trials, int((zs > thresh).sum()), 2.0**ell / float(n) ** 3,
        extras=extras, samples=zs,
    )


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
    d = delta(ell)
    truncated = source.truncate(ell)
    # one count at the deepest depth any term needs, aggregated to each
    # term's own: the same integers as counting at that depth
    counts = count_table(x, past, max(ell, source.memory))
    n = counts.total

    def log2_prob(src):
        at = counts.aggregate(src.memory)
        return float(src.log2_prob_counts(at.occurrences[None], at.ones[None])[0])

    log_p = log2_prob(source)
    margin = log_p - log2_prob(truncated)
    margin_ml = log_p - ml_log2(counts.aggregate(ell))
    bound_log = n * math.log2(1.0 + d)
    bound_linear = 2.0 * n * d
    ok = margin <= bound_log + EXACT_TOL_LOG and margin_ml <= bound_linear + EXACT_TOL_LOG
    return TruncationCheck(margin, bound_log, bound_linear, margin_ml, ok)


def _exact_batch(lemma, check, excess, count, ell, n, delta, seed) -> VerificationReport:
    """Run an exact per-sample check over a seeded batch of (source, sample)
    pairs with memory 2*ell sources; the empirical value is the worst excess."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
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
    return VerificationReport(
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
    counts = count_table(x, past, max(ell + 1, source.memory))
    n = counts.total
    n_w, n_w1, weighted = aggregate_moments(source, counts.occurrences, counts.ones, ell + 1)
    lhs = log2_empirical_product(n_w, n_w1, weighted)
    rhs = log2_empirical_product(*aggregate_moments(source, counts.occurrences, counts.ones, ell))
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
