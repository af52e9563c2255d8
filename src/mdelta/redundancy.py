"""Regret and average redundancy: exact small-n enumeration, Monte Carlo
estimation, and the closed-form bound evaluators with optimal-depth scans.

All quantities are in bits (log base 2), including the constants inside
the bound formulas; reports flag wherever the continuity rate was
clamped by admissibility.

The refined upper bound and its comparison radius exist in two
arithmetic variants, "plain" and "doubled" (factor 2 on the quadratic
term and a one-step-wider radical); both are computed, and "safe"
means the larger of the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coders import ENUMERATION_CAP, SequentialCoder, _require_cap
from .delta import DeltaSpec
from .source import MarkovSource

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

MAX_SCAN_DEPTH = 16


# ---------------------------------------------------------------------------
# measured redundancy
# ---------------------------------------------------------------------------


def regret_bits(source: MarkovSource, past, coder: SequentialCoder, x) -> float:
    """Per-sequence regret log2 p(x | past) - log2 q(x)."""
    return source.log_prob(past, x) - coder.log2_prob(x)


def exact_avg_redundancy(
    source: MarkovSource, past, coder: SequentialCoder, n: int, cap: int = ENUMERATION_CAP
) -> float:
    """Expected regret by exhaustive enumeration of all 2^n sequences."""
    _require_cap(n, cap)
    lp = source.log2_prob_all(past, n)
    lq = coder.log2_prob_all(n)
    return float(np.sum(np.exp2(lp) * (lp - lq)))


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
    """Monte Carlo mean +- standard error of the regret over sampled sequences."""
    if trials < 2:
        raise ValueError("need at least two trials for a standard error")
    rng = np.random.default_rng(seed)
    logp = np.empty(trials)
    logq = np.empty(trials)
    done = 0
    for bits in source._sample_chunks(past, n, trials, rng):
        logp[done : done + len(bits)] = source.log2_prob_batch(past, bits)
        logq[done : done + len(bits)] = coder.log2_prob_batch(bits)
        done += len(bits)
    r = logp - logq
    mean = float(r.sum()) / trials
    var = max(float((r * r).sum()) / trials - mean * mean, 0.0)
    return MCEstimate(mean, math.sqrt(var / trials), trials, logp, logq)


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

    with r_ell in the chosen variant; "safe" takes the larger radius.
    """
    if variant == "safe":
        rad = max(
            comparison_radius(n, ell, delta, "doubled"),
            comparison_radius(n, ell, delta, "plain"),
        )
    else:
        rad = comparison_radius(n, ell, delta, variant)
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
    if n < 4:
        raise ValueError("need n >= 4")
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
    upper_refined: float  # safe = max of the two variants
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


def _row_clamped(n: int, ell: int, delta: DeltaSpec) -> bool:
    depths = {ell, 2 * ell} | set(range(ell, 2 * ell + 1))
    return any(delta.eval_detail(m)[1] for m in sorted(depths))


def bound_report(n: int, delta: DeltaSpec, ells=None) -> BoundReport:
    """Evaluate every bound on a depth grid and locate the optima."""
    ells = list(ells) if ells is not None else list(default_ell_range(n))
    rows = []
    for ell in ells:
        rows.append(
            BoundRow(
                ell=ell,
                lower=minimax_lower_bound(n, ell, delta),
                upper_truncation=truncation_upper_bound_at(n, ell, delta),
                upper_refined=refined_upper_bound(n, ell, delta, "safe"),
                upper_refined_plain=refined_upper_bound(n, ell, delta, "plain"),
                upper_refined_doubled=refined_upper_bound(n, ell, delta, "doubled"),
                r_ell=comparison_radius(n, ell, delta, "doubled"),
                r_ell_plain=comparison_radius(n, ell, delta, "plain"),
                clamped=_row_clamped(n, ell, delta),
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
