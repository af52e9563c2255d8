"""Regret and average redundancy: exact small-n enumeration, Monte Carlo
estimation, and the closed-form bound evaluators with optimal-depth scans.

All quantities are in bits (log base 2), including the constants inside
the bound formulas; reports flag wherever the continuity rate was
clamped by admissibility.

The refined upper bound and its comparison radius exist in two
arithmetic variants, "plain" and "doubled" (factor 2 on the quadratic
term and a one-step-wider radical).  "safe" means the larger of the
two, which is always the doubled one, so it is evaluated as that:
each doubled term is at least its plain counterpart (2 n d^2 against
n d^2, 2 log2(n) >= log2(n) for n >= 1, sqrt(n 2^{k+1}) >= sqrt(n 2^k))
and float rounding is monotone, so every partial sum is at least the
plain one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coders import CountCoder, SequentialCoder
from .delta import DeltaSpec
from .source import MAX_SCAN_DEPTH, MarkovSource, _check_horizon, _fold, _require_cap, as_bits, state_code

__all__ = [
    "MCEstimate",
    "regret_bits",
    "exact_avg_redundancy",
    "mc_avg_redundancy",
    "minimax_lower_bound_value",
    "minimax_lower_bound",
    "truncation_upper_bound_at",
    "truncation_upper_bound",
    "refined_upper_bound",
    "comparison_radius",
    "default_ell_range",
    "EllChoice",
    "optimal_ell",
    "BoundRow",
    "BoundReport",
    "bound_report",
]


# ---------------------------------------------------------------------------
# measured redundancy
# ---------------------------------------------------------------------------


def regret_bits(source: MarkovSource, past, coder: SequentialCoder, x) -> float:
    """Per-sequence regret log2 p(x | past) - log2 q(x)."""
    return source.log_prob(past, x) - coder.log2_prob(x)


def exact_avg_redundancy(source: MarkovSource, past, coder: SequentialCoder, n: int) -> float:
    """Expected regret by exhaustive enumeration of all 2^n sequences."""
    _require_cap(n)
    lp = source.log2_prob_all(past, n)
    lq = coder.log2_prob_all(n)
    # reduced in lp, a fresh array; lq may be one the coder keeps
    d = lp - lq
    np.exp2(lp, out=lp)
    lp *= d
    return float(lp.sum())


@dataclass(frozen=True)
class MCEstimate:
    """Mean and standard error of the regret, with the per-trial log2 p(x)
    and log2 q(x) in sampling order (trial i is row i of the stream)."""

    mean: float
    se: float
    trials: int
    logp: np.ndarray = field(compare=False, repr=False)
    logq: np.ndarray = field(compare=False, repr=False)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.mean:.6g} +- {self.se:.2g} ({self.trials} trials)"


def mc_avg_redundancy(
    source: MarkovSource,
    past,
    coder: SequentialCoder,
    n: int,
    trials: int,
    seed: int | None = None,
) -> MCEstimate:
    """Monte Carlo mean +- standard error of the regret over sampled sequences.

    Coders that score count tables (KT, mixture, source) share one count
    of each chunk with the source, taken at the larger of the two depths
    from the past and summed down to each depth, when the coder's own past
    is the tail of that past; any other coder scores the bits.
    """
    _check_horizon(n)
    if trials < 2:
        raise ValueError("need at least two trials for a standard error")
    rng = np.random.default_rng(seed)
    logp = np.empty(trials)
    logq = np.empty(trials)
    if _shared_count(source, past, coder):
        depth = max(source.memory, coder.depth)
        for rows, occ, ones in source._count_chunks(past, n, trials, rng, depth):
            logp[rows] = source.log2_prob_counts(_fold(occ, source.memory), _fold(ones, source.memory))
            logq[rows] = coder.log2_prob_counts(_fold(occ, coder.depth), _fold(ones, coder.depth))
    else:
        for rows, bits in source._sample_chunks(past, n, trials, rng):
            logp[rows] = source.log2_prob_batch(past, bits)
            logq[rows] = coder.log2_prob_batch(bits)
    r = logp - logq
    mean = float(r.sum()) / trials
    var = max(float((r * r).sum()) / trials - mean * mean, 0.0)
    return MCEstimate(mean, math.sqrt(var / trials), trials, logp, logq)


def _shared_count(source: MarkovSource, past, coder: SequentialCoder) -> bool:
    """Whether one count table of the past's continuations, at
    max(memory, coder depth), serves both the source and the coder: the
    coder counts them and its own past is the tail of the past."""
    if not isinstance(coder, CountCoder) or len(as_bits(past)) < max(source.memory, coder.depth):
        return False
    return state_code(past, coder.depth) == coder.state0


# ---------------------------------------------------------------------------
# closed-form bounds (scalar cores take raw rate values; public evaluators
# take a DeltaSpec and apply its clamped evaluation)
# ---------------------------------------------------------------------------


def _lower_bound_core(n: int, ell: int, log2_inv_delta: float) -> float:
    if ell < 1:
        raise ValueError("the lower bound needs ell >= 1")
    lead = 2.0 ** (ell - 1) * math.log2(n)
    mid = 2.0**ell * (log2_inv_delta + ell / 2.0)
    tail = 2.0 ** (ell - 1) * (math.log2(4.0 * math.pi * math.e * ell) + 1.0)
    return lead - mid - tail


def minimax_lower_bound_value(n: int, ell: int, delta_at_ell: float) -> float:
    """Lower bound on the average minimax redundancy at depth ell, in bits:

    2^{ell-1} log2 n - 2^ell (log2(1/delta(ell)) + ell/2)
                     - 2^{ell-1} (log2(4 pi e ell) + 1)
    """
    if delta_at_ell <= 0.0:
        raise ValueError("delta underflowed to zero; evaluate through a DeltaSpec instead")
    return _lower_bound_core(n, ell, math.log2(1.0 / delta_at_ell))


def minimax_lower_bound(n: int, ell: int, delta: DeltaSpec) -> float:
    return _lower_bound_core(n, ell, delta.log2_inv(ell))


def truncation_upper_bound_at(n: int, ell: int, delta: DeltaSpec) -> float:
    """Truncation upper bound term at one depth: 2^{ell-1} log2 n + 2 n delta(ell)."""
    return 2.0 ** (ell - 1) * math.log2(n) + 2.0 * n * delta(ell)


def truncation_upper_bound(n: int, delta: DeltaSpec, ells=None) -> tuple[float, int]:
    """Minimize the truncation bound over depths; returns (value, argmin)."""
    ells = list(ells) if ells is not None else list(default_ell_range(n))
    vals = [truncation_upper_bound_at(n, ell, delta) for ell in ells]
    i = int(np.argmin(vals))
    return vals[i], ells[i]


def comparison_radius(n: int, ell: int, delta: DeltaSpec, variant: str = "doubled") -> float:
    """Radius r_ell of the high-probability comparison with the depth-ell
    empirical aggregated product.

    doubled variant: n d(2l) + sum_{k=l}^{2l} [2 n d(k)^2 + 2 log2(n) sqrt(n 2^{k+1}) d(k)]
    plain variant:   n d(2l) + sum_{k=l}^{2l} [  n d(k)^2 +   log2(n) sqrt(n 2^k)     d(k)]
    """
    if ell < 1:
        raise ValueError("the radius needs ell >= 1")
    if variant not in ("doubled", "plain"):
        raise ValueError(f"unknown variant {variant!r}")
    two = 2.0 if variant == "doubled" else 1.0
    shift = 1 if variant == "doubled" else 0
    acc = n * delta(2 * ell)
    for k in range(ell, 2 * ell + 1):
        dk = delta(k)
        acc += two * n * dk * dk
        acc += two * math.log2(n) * math.sqrt(n * 2.0 ** (k + shift)) * dk
    return acc


def refined_upper_bound(n: int, ell: int, delta: DeltaSpec, variant: str = "safe") -> float:
    """Refined upper bound at depth ell:

    2^{ell-1} log2 n + r_ell + (2^{2 ell + 1} - 2^ell) / n^2

    with r_ell in the chosen variant; "safe" takes the larger radius,
    the doubled one (see the module docstring).
    """
    return _refined(n, ell, comparison_radius(n, ell, delta, "doubled" if variant == "safe" else variant))


def _refined(n: int, ell: int, rad: float) -> float:
    # the refined bound at depth ell around a comparison radius
    lead = 2.0 ** (ell - 1) * math.log2(n)
    bad_mass = (2.0 ** (2 * ell + 1) - 2.0**ell) * n / float(n) ** 3
    return lead + rad + bad_mass


def default_ell_range(n: int) -> range:
    """Depths 1 .. min(ceil(log2 n), 16); larger state tables exceed desk scale."""
    return range(1, min(math.ceil(math.log2(n)), MAX_SCAN_DEPTH) + 1)


# ---------------------------------------------------------------------------
# optimal-depth prescriptions and scans
# ---------------------------------------------------------------------------

_REGIMES = ("lower", "truncation", "refined")


@dataclass(frozen=True)
class EllChoice:
    """A closed-form depth prescription next to the exhaustive scan."""

    regime: str
    prescribed: int | None
    prescribed_value: float | None
    scanned: int
    scanned_value: float


def _prescribed_ell(n: int, delta: DeltaSpec, regime: str) -> float | None:
    logn = math.log2(n)
    loglogn = math.log2(logn)
    c = delta.c
    if delta.kind == "poly":
        factor = 2.0 * c if regime in ("lower", "refined") else c
        return logn - factor * loglogn
    if delta.kind == "exp":
        div = (c + 1.0) if regime == "truncation" else (2.0 * c + 1.0)
        return logn / div
    if delta.kind == "dexp":
        return loglogn / c
    return None  # tables carry no closed-form prescription


def optimal_ell(n: int, delta: DeltaSpec, regime: str = "refined", ells=None) -> EllChoice:
    """Rounded closed-form prescription (clipped to the scan range) plus the
    exhaustive scan optimum of the matching bound."""
    _check_horizon(n, 4)
    if regime not in _REGIMES:
        raise ValueError(f"unknown regime {regime!r} (use lower, truncation or refined)")
    ells = list(ells) if ells is not None else list(default_ell_range(n))
    if regime == "lower":
        vals = [minimax_lower_bound(n, ell, delta) for ell in ells]
        scan_i = int(np.argmax(vals))
    elif regime == "truncation":
        vals = [truncation_upper_bound_at(n, ell, delta) for ell in ells]
        scan_i = int(np.argmin(vals))
    else:
        vals = [refined_upper_bound(n, ell, delta) for ell in ells]
        scan_i = int(np.argmin(vals))
    raw = _prescribed_ell(n, delta, regime)
    prescribed = None
    prescribed_value = None
    if raw is not None:
        prescribed = min(max(round(raw), ells[0]), ells[-1])
        prescribed_value = vals[ells.index(prescribed)]
    return EllChoice(regime, prescribed, prescribed_value, ells[scan_i], vals[scan_i])


# ---------------------------------------------------------------------------
# bound reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    ell: int
    lower: float
    upper_truncation: float
    upper_refined: float  # safe = max of the two variants, the doubled one
    upper_refined_plain: float
    upper_refined_doubled: float
    r_ell: float  # doubled-form radius
    r_ell_plain: float
    clamped: bool


@dataclass(frozen=True)
class BoundReport:
    n: int
    delta: str
    rows: tuple[BoundRow, ...]
    best_lower: tuple[int, float]
    best_upper_truncation: tuple[int, float]
    best_upper_refined: tuple[int, float]


def bound_report(n: int, delta: DeltaSpec, ells=None) -> BoundReport:
    """Evaluate every bound on a depth grid and locate the optima."""
    _check_horizon(n, 2)  # the default grid needs ceil(log2 n) >= 1
    ells = list(ells) if ells is not None else list(default_ell_range(n))
    if not ells:
        raise ValueError("empty depth range: no ell to evaluate")
    rows = []
    for ell in ells:
        lower = minimax_lower_bound(n, ell, delta)  # first: a depth under 1 fails with its message
        r_ell = comparison_radius(n, ell, delta, "doubled")
        r_plain = comparison_radius(n, ell, delta, "plain")
        refined = _refined(n, ell, r_ell)
        rows.append(
            BoundRow(
                ell=ell,
                lower=lower,
                upper_truncation=truncation_upper_bound_at(n, ell, delta),
                upper_refined=refined,
                upper_refined_plain=_refined(n, ell, r_plain),
                upper_refined_doubled=refined,
                r_ell=r_ell,
                r_ell_plain=r_plain,
                clamped=any(delta.eval_detail(m)[1] for m in range(ell, 2 * ell + 1)),
            )
        )
    lows = [r.lower for r in rows]
    truncs = [r.upper_truncation for r in rows]
    refs = [r.upper_refined for r in rows]
    i_low = int(np.argmax(lows))
    i_trunc = int(np.argmin(truncs))
    i_ref = int(np.argmin(refs))
    return BoundReport(
        n=n,
        delta=delta.describe(),
        rows=tuple(rows),
        best_lower=(rows[i_low].ell, lows[i_low]),
        best_upper_truncation=(rows[i_trunc].ell, truncs[i_trunc]),
        best_upper_refined=(rows[i_ref].ell, refs[i_ref]),
    )
