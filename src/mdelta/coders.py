"""Sequential probability assigners over {0,1}^n and exact small-n oracles.

A coder is a deterministic state machine exposing the conditional
probability of the next bit; pushing bits advances it.  Next-bit
probabilities are strictly inside (0,1) and the pair (p0, p1) sums to 1
exactly by construction, so a coder doubles as the probability model of
the arithmetic codec.

Fast paths: the add-half (KT) product depends only on per-context
counts, so whole-sequence and whole-batch log probabilities reduce to
table lookups over count tables rather than replaying the sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .source import CountTable, MarkovSource, as_bits, count_table, state_code

__all__ = [
    "KTCoder",
    "MixtureCoder",
    "SourceCoder",
    "NMLCoder",
    "ml_log2",
    "ml_log2_from_counts",
    "kt_log2_from_counts",
    "ShtarkovResult",
    "shtarkov_sum",
    "ENUMERATION_CAP",
]

ENUMERATION_CAP = 20


def _require_cap(n: int, cap: int = ENUMERATION_CAP) -> None:
    if n > cap:
        raise ValueError(
            f"exhaustive enumeration over 2^{n} sequences refused (cap n <= {cap}); "
            "use the Monte Carlo estimators instead"
        )


# ---------------------------------------------------------------------------
# closed forms from count tables
# ---------------------------------------------------------------------------


def ml_log2_from_counts(occ: np.ndarray, ones: np.ndarray) -> np.ndarray | float:
    """Per-context maximized log2 likelihood sum, with 0*log(0) = 0."""
    out = _kernels._ml_log2(np.asarray(occ), np.asarray(ones))
    return float(out) if np.ndim(out) == 0 else out


def ml_log2(counts: CountTable) -> float:
    """log2 of the per-state maximum-likelihood probability of the sample."""
    return float(ml_log2_from_counts(counts.occurrences, counts.ones))


def kt_log2_from_counts(occ: np.ndarray, ones: np.ndarray) -> np.ndarray | float:
    """Add-half mixture log2 probability from count arrays alone."""
    occ = np.asarray(occ)
    gtab, htab = _kernels.kt_tables(int(occ.max(initial=0)))
    out = _kernels._kt_log2(occ, np.asarray(ones), gtab, htab)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# sequential coders
# ---------------------------------------------------------------------------


class SequentialCoder:
    """Common interface: reset / prob_one / push plus log-prob conveniences."""

    depth: int

    def reset(self) -> None:
        raise NotImplementedError

    def prob_one(self) -> float:
        raise NotImplementedError

    def push(self, bit: int) -> None:
        raise NotImplementedError

    def probs(self) -> tuple[float, float]:
        p1 = self.prob_one()
        return 1.0 - p1, p1

    def log2_prob(self, x) -> float:
        """log2 q(x) by replaying the coder from a fresh state."""
        self.reset()
        acc = 0.0
        for b in as_bits(x):
            p1 = self.prob_one()
            acc += math.log2(p1 if b else 1.0 - p1)
            self.push(int(b))
        self.reset()
        return acc

    def log2_prob_batch(self, bits: np.ndarray) -> np.ndarray:
        return np.array([self.log2_prob(row) for row in bits])

    def log2_prob_all(self, n: int) -> np.ndarray:
        raise NotImplementedError


class KTCoder(SequentialCoder):
    """Per-context add-half rule: q(1 | history) = (a + 1/2) / (a + b + 1)

    with (a, b) the 1/0 counts seen so far in the current depth-`depth`
    context; contexts roll through past then the pushed bits.
    """

    def __init__(self, depth: int, past=""):
        self.depth = depth
        self._state0 = state_code(past, depth)
        self._past = past
        self.reset()

    def reset(self) -> None:
        m = 1 << self.depth
        self._ones = np.zeros(m, np.int64)
        self._occ = np.zeros(m, np.int64)
        self._state = self._state0

    def prob_one(self) -> float:
        s = self._state
        return (self._ones[s] + 0.5) / (self._occ[s] + 1.0)

    def push(self, bit: int) -> None:
        s = self._state
        self._occ[s] += 1
        self._ones[s] += bit
        mask = (1 << self.depth) - 1 if self.depth else 0
        self._state = ((s << 1) | bit) & mask

    def log2_prob(self, x) -> float:
        bits = as_bits(x)
        if bits.size == 0:
            return 0.0
        occ, ones = _kernels.count_batch(bits[None, :], self._state0, self.depth)
        return float(kt_log2_from_counts(occ[0], ones[0]))

    def log2_prob_batch(self, bits: np.ndarray) -> np.ndarray:
        occ, ones = _kernels.count_batch(bits, self._state0, self.depth)
        return np.asarray(kt_log2_from_counts(occ, ones))

    def log2_prob_all(self, n: int) -> np.ndarray:
        _require_cap(n)
        return _kernels.enum_kt_log2(self.depth, self._state0, n)


class MixtureCoder(SequentialCoder):
    """Half-half mixture of the add-half coder with the uniform law on
    {0,1}^n: q(x) = (q_kt(x) + 2^-n) / 2, realized sequentially.

    The uniform component needs the horizon n up front; the coder
    refuses to run past it.  Conditionals follow from prefix masses
    (q_kt(prefix) + 2^-t)/2, so marginalization is exact.
    """

    def __init__(self, depth: int, past="", horizon: int = 0):
        if horizon <= 0:
            raise ValueError("mixture coder needs a positive horizon")
        self.depth = depth
        self.horizon = horizon
        self._kt = KTCoder(depth, past)
        self.reset()

    def reset(self) -> None:
        self._kt.reset()
        self._t = 0
        self._log_qkt = 0.0  # log2 of the add-half mass of the current prefix

    def prob_one(self) -> float:
        t = self._t
        if t >= self.horizon:
            raise IndexError(f"mixture coder queried past its horizon n={self.horizon}")
        p1_kt = self._kt.prob_one()
        num = np.logaddexp2(self._log_qkt + math.log2(p1_kt), -(t + 1.0))
        den = np.logaddexp2(self._log_qkt, -float(t))
        return float(2.0 ** (num - den))

    def push(self, bit: int) -> None:
        if self._t >= self.horizon:
            raise IndexError(f"mixture coder pushed past its horizon n={self.horizon}")
        p1_kt = self._kt.prob_one()
        self._log_qkt += math.log2(p1_kt if bit else 1.0 - p1_kt)
        self._kt.push(bit)
        self._t += 1

    def _mix(self, log_qkt):
        return np.logaddexp2(log_qkt, -float(self.horizon)) - 1.0

    def log2_prob(self, x) -> float:
        bits = as_bits(x)
        if bits.size != self.horizon:
            raise ValueError(f"mixture coder is defined on length-{self.horizon} sequences")
        return float(self._mix(self._kt.log2_prob(bits)))

    def log2_prob_batch(self, bits: np.ndarray) -> np.ndarray:
        if bits.shape[1] != self.horizon:
            raise ValueError(f"mixture coder is defined on length-{self.horizon} sequences")
        return np.asarray(self._mix(self._kt.log2_prob_batch(bits)))

    def log2_prob_all(self, n: int) -> np.ndarray:
        if n != self.horizon:
            raise ValueError(f"mixture coder is defined on length-{self.horizon} sequences")
        _require_cap(n)
        return np.asarray(self._mix(self._kt.log2_prob_all(n)))


class SourceCoder(SequentialCoder):
    """Codes with the exact conditionals of a known source (zero regret)."""

    def __init__(self, source: MarkovSource, past=""):
        self.source = source
        self.depth = source.memory
        self._state0 = state_code(past, self.depth)
        self._past = past
        self.reset()

    def reset(self) -> None:
        self._state = self._state0

    def prob_one(self) -> float:
        return float(self.source.state_theta[self._state])

    def push(self, bit: int) -> None:
        mask = (1 << self.depth) - 1 if self.depth else 0
        self._state = ((self._state << 1) | bit) & mask

    def log2_prob(self, x) -> float:
        return self.source.log_prob(self._past, x)

    def log2_prob_batch(self, bits: np.ndarray) -> np.ndarray:
        return self.source.log2_prob_batch(self._past, bits)

    def log2_prob_all(self, n: int) -> np.ndarray:
        _require_cap(n)
        return self.source.log2_prob_all(self._past, n)


# ---------------------------------------------------------------------------
# Shtarkov sum and the normalized maximum likelihood coder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShtarkovResult:
    """log2 of sum_x max-likelihood probability; the exact minimax regret."""

    log2_sum: float
    n: int
    depth: int
    probs: np.ndarray | None = None  # normalized per-sequence probabilities


def shtarkov_sum(
    depth: int, past="", n: int = 1, cap: int = ENUMERATION_CAP, return_probs: bool = False
) -> ShtarkovResult:
    """Exact normalizer of per-sequence maximized likelihoods at depth `depth`.

    Enumerates all 2^n sequences; log2 of the sum is the worst-case
    minimax regret of the depth-`depth` model class for this past.

    The maximization runs over all depth-`depth` parameters, so for
    continuity-constrained sub-families this is an upper bound on the
    constrained normalizer, which is what the truncation argument needs.
    """
    _require_cap(n, cap)
    ml = _kernels.enum_ml_log2(depth, state_code(past, depth), n)
    # stable summation: the values lie in (0, 1], no rescaling needed
    total = float(np.exp2(ml).sum())
    log2_sum = math.log2(total)
    probs = None
    if return_probs:
        probs = np.exp2(ml) / total
    return ShtarkovResult(log2_sum, n, depth, probs)


class NMLCoder(SequentialCoder):
    """The normalized maximum likelihood assignment, made sequential.

    Exact minimax-optimal for the depth-`depth` class at horizon n;
    feasible only under the enumeration cap.  Conditionals come from
    prefix masses of the normalized table.
    """

    def __init__(self, depth: int, past="", horizon: int = 1, cap: int = ENUMERATION_CAP):
        _require_cap(horizon, cap)
        self.depth = depth
        self.horizon = horizon
        result = shtarkov_sum(depth, past, horizon, cap, return_probs=True)
        self.log2_sum = result.log2_sum
        self._probs = result.probs
        self._levels = [result.probs]
        while len(self._levels[-1]) > 1:
            self._levels.append(self._levels[-1].reshape(-1, 2).sum(axis=1))
        self._levels.reverse()  # _levels[t] has 2^t prefix masses
        self.reset()

    def reset(self) -> None:
        self._prefix = 0
        self._t = 0

    def prob_one(self) -> float:
        if self._t >= self.horizon:
            raise IndexError(f"NML coder queried past its horizon n={self.horizon}")
        num = self._levels[self._t + 1][2 * self._prefix + 1]
        den = self._levels[self._t][self._prefix]
        return float(num / den)

    def push(self, bit: int) -> None:
        if self._t >= self.horizon:
            raise IndexError(f"NML coder pushed past its horizon n={self.horizon}")
        self._prefix = 2 * self._prefix + bit
        self._t += 1

    def _index(self, bits: np.ndarray) -> int:
        idx = 0
        for b in bits:
            idx = (idx << 1) | int(b)
        return idx

    def log2_prob(self, x) -> float:
        bits = as_bits(x)
        if bits.size != self.horizon:
            raise ValueError(f"NML coder is defined on length-{self.horizon} sequences")
        return float(np.log2(self._probs[self._index(bits)]))

    def log2_prob_batch(self, bits: np.ndarray) -> np.ndarray:
        return np.array([self.log2_prob(row) for row in bits])

    def log2_prob_all(self, n: int) -> np.ndarray:
        if n != self.horizon:
            raise ValueError(f"NML coder is defined on length-{self.horizon} sequences")
        return np.log2(self._probs)
