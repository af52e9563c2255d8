"""Sequential probability assigners over {0,1}^n and exact small-n oracles.

A coder is a deterministic state machine exposing the conditional
probability of the next bit; pushing bits advances it.  Next-bit
probabilities are strictly inside (0,1) and the pair (p0, p1) sums to 1
exactly by construction, so a coder doubles as the probability model of
the arithmetic codec.  Encoder and decoder both replay the coder:
reset, then one `prob_one` and one `push` per bit, so the two ends
quantize the same float from the same call.  The KT coder keeps its
per-context counts in plain int lists, which a per-bit read and write
reach far faster than numpy scalars.

Every coder (KT, mixture, known source, NML) has a code length that is a
closed form of the per-context counts of the whole sequence, rolled from
its past, so each defines only `log2_prob_counts`, and single-sequence
and batched log probabilities both count the bits and apply it rather
than replaying the sequence.  Every log probability in the package comes
from a coder, the source's included: `SourceCoder(source, past)` scores
log2 p(x | past) as any coder scores log2 q(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .source import (
    ENUMERATION_CAP,
    MarkovSource,
    _check_depth,
    _require_cap,
    as_bit_rows,
    as_bits,
    state_code,
)

__all__ = [
    "KTCoder",
    "MixtureCoder",
    "SourceCoder",
    "NMLCoder",
    "ml_log2_from_counts",
    "kt_log2_from_counts",
    "ShtarkovResult",
    "shtarkov_sum",
    "ENUMERATION_CAP",
]

# ---------------------------------------------------------------------------
# closed forms from count tables
# ---------------------------------------------------------------------------


def ml_log2_from_counts(occ: np.ndarray, ones: np.ndarray) -> np.ndarray | float:
    """Per-context maximized log2 likelihood sum, with 0*log(0) = 0."""
    out = _kernels._ml_log2(np.asarray(occ), np.asarray(ones))
    return float(out) if np.ndim(out) == 0 else out


def kt_log2_from_counts(occ: np.ndarray, ones: np.ndarray) -> np.ndarray | float:
    """Add-half mixture log2 probability from count arrays alone."""
    occ = np.asarray(occ)
    gtab, htab = _kernels.kt_tables(int(occ.max(initial=0)))
    out = _kernels._kt_log2(occ, np.asarray(ones), gtab, htab)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# sequential coders
# ---------------------------------------------------------------------------


_BIT = {0: 0, 1: 1}  # push's bit check: any integer kind of 0 or 1 to a plain int


def _not_a_bit(bit) -> ValueError:
    return ValueError(f"a pushed bit must be 0 or 1, not {bit!r}")


class SequentialCoder:
    """Common interface: reset / prob_one / push plus log-prob conveniences.

    `prob_one()` is P(next bit = 1) given the bits pushed since the last
    reset; `push(bit)` takes the next bit as 0 or 1 of any integer kind
    (Python or numpy ints, bools), so a bit array's elements can be pushed
    as they are, and raises ValueError, changing nothing, for a value not
    equal to 0 or 1.  The codec asks `prob_one` once per bit, encoding and
    decoding alike, and each coder computes that conditional once: what
    `push` needs of it is kept, not recomputed.

    log2 q(x) is a closed form of the depth-`depth` context counts of x,
    rolled from the context code `state0` of the coder's past; subclasses
    define that closed form as `log2_prob_counts`.  A depth outside 0..16
    (source.MAX_SCAN_DEPTH) raises ValueError before any state is allocated.
    """

    def __init__(self, depth: int, past=""):
        _check_depth(depth)
        self.depth = depth
        self.state0 = state_code(past, depth)

    def reset(self) -> None:
        raise NotImplementedError

    def prob_one(self) -> float:
        raise NotImplementedError

    def push(self, bit: int) -> None:
        raise NotImplementedError

    def log2_prob(self, x) -> float:
        return float(self.log2_prob_batch(as_bits(x)[None, :])[0])

    def log2_prob_batch(self, bits: np.ndarray) -> np.ndarray:
        return self.log2_prob_counts(*_kernels.count_batch(as_bit_rows(bits), self.state0, self.depth))

    def log2_prob_counts(self, occ: np.ndarray, ones: np.ndarray) -> np.ndarray:
        """Per-trial log2 q from (trials, 2**depth) count tables of whole
        sequences, counted from the coder's past."""
        raise NotImplementedError

    def log2_prob_all(self, n: int) -> np.ndarray:
        raise NotImplementedError


class KTCoder(SequentialCoder):
    """Per-context add-half rule: q(1 | history) = (a + 1/2) / (a + b + 1)

    with (a, b) the 1/0 counts seen so far in the current depth-`depth`
    context, kept in plain int lists; contexts roll through past then the
    pushed bits.
    """

    def __init__(self, depth: int, past=""):
        super().__init__(depth, past)
        self._mask = (1 << depth) - 1
        self.reset()

    def reset(self) -> None:
        m = 1 << self.depth
        self._ones = [0] * m
        self._occ = [0] * m
        self._state = self.state0

    def prob_one(self) -> float:
        s = self._state
        return (self._ones[s] + 0.5) / (self._occ[s] + 1.0)

    def push(self, bit: int) -> None:
        try:
            bit = _BIT[bit]
        except (KeyError, TypeError):
            raise _not_a_bit(bit) from None
        s = self._state
        self._occ[s] += 1
        self._ones[s] += bit
        self._state = ((s << 1) | bit) & self._mask

    def log2_prob_counts(self, occ: np.ndarray, ones: np.ndarray) -> np.ndarray:
        return np.asarray(kt_log2_from_counts(occ, ones))

    def log2_prob_all(self, n: int) -> np.ndarray:
        _require_cap(n)
        return _kernels.enum_kt_log2(self.depth, self.state0, n)


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
        self.state0 = self._kt.state0
        self.reset()

    def reset(self) -> None:
        self._kt.reset()
        self._t = 0
        self._log_qkt = 0.0  # log2 of the add-half mass of the current prefix
        self._p1_kt = self._kt.prob_one()  # add-half p1 of the next bit

    def prob_one(self) -> float:
        t = self._t
        if t >= self.horizon:
            raise IndexError(f"mixture coder queried past its horizon n={self.horizon}")
        return _mix_conditional(self._log_qkt, self._p1_kt, t)

    def push(self, bit: int) -> None:
        if self._t >= self.horizon:
            raise IndexError(f"mixture coder pushed past its horizon n={self.horizon}")
        kt = self._kt
        kt.push(bit)  # checks the bit before any state of ours moves
        p1_kt = self._p1_kt
        self._log_qkt += math.log2(p1_kt if bit else 1.0 - p1_kt)
        self._p1_kt = kt.prob_one()
        self._t += 1

    def _mix(self, log_qkt):
        return np.logaddexp2(log_qkt, -float(self.horizon)) - 1.0

    def log2_prob_counts(self, occ: np.ndarray, ones: np.ndarray) -> np.ndarray:
        if (occ.sum(axis=-1) != self.horizon).any():
            raise ValueError(f"mixture coder is defined on length-{self.horizon} sequences")
        return np.asarray(self._mix(self._kt.log2_prob_counts(occ, ones)))

    def log2_prob_all(self, n: int) -> np.ndarray:
        if n != self.horizon:
            raise ValueError(f"mixture coder is defined on length-{self.horizon} sequences")
        _require_cap(n)
        return np.asarray(self._mix(self._kt.log2_prob_all(n)))


def _mix_conditional(log_qkt: float, p1_kt: float, t: int) -> float:
    """Mixture p1 at step t from log2 q_kt of the prefix and the add-half p1."""
    num = _logaddexp2(log_qkt + math.log2(p1_kt), -(t + 1.0))
    den = _logaddexp2(log_qkt, -float(t))
    return 2.0 ** (num - den)


_LOG2E = 1.4426950408889634  # numpy's NPY_LOG2E as a double


def _logaddexp2(x: float, y: float) -> float:
    """log2(2^x + 2^y) on floats, equal (`==`) to scalar np.logaddexp2: the
    same formula as numpy's npy_logaddexp2, on the same libm log1p and exp2,
    without numpy's per-call scalar overhead."""
    if x == y:
        return x + 1.0
    d = x - y
    if d > 0:
        return x + _LOG2E * math.log1p(math.exp2(-d))
    return y + _LOG2E * math.log1p(math.exp2(d))


class SourceCoder(SequentialCoder):
    """Codes with the exact conditionals of a known source (zero regret).

    This is how a source scores a sequence: log2 p(x | past) is
    `SourceCoder(source, past).log2_prob(x)`, row 0 of its batch.
    """

    def __init__(self, source: MarkovSource, past=""):
        super().__init__(source.memory, past)
        self.source = source
        # the source is frozen: its per-state log2 weights of a 1 and a 0
        th = source.state_theta
        self._lt1, self._lt0 = np.log2(th), np.log2(1.0 - th)
        self._mask = (1 << self.depth) - 1
        self.reset()

    def reset(self) -> None:
        self._state = self.state0

    def prob_one(self) -> float:
        try:
            return self._theta[self._state]
        except AttributeError:
            # the per-state conditionals as plain floats, made on the first
            # call because scoring never reads them; a class-level lazy
            # attribute (functools.cached_property) would keep CPython from
            # specializing this per-bit read and double its cost
            self._theta = self.source.state_theta.tolist()
            return self._theta[self._state]

    def push(self, bit: int) -> None:
        try:
            bit = _BIT[bit]
        except (KeyError, TypeError):
            raise _not_a_bit(bit) from None
        self._state = ((self._state << 1) | bit) & self._mask

    def log2_prob_counts(self, occ: np.ndarray, ones: np.ndarray) -> np.ndarray:
        return _kernels._source_log2(occ, ones, self._lt1, self._lt0)

    def log2_prob_all(self, n: int) -> np.ndarray:
        _require_cap(n)
        return _kernels.enum_source_log2(self._lt1, self._lt0, self.state0, self.depth, n)


# ---------------------------------------------------------------------------
# Shtarkov sum and the normalized maximum likelihood coder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShtarkovResult:
    """log2 of sum_x max-likelihood probability; the exact minimax regret."""

    log2_sum: float
    n: int
    depth: int


def _ml_masses(depth: int, past, n: int) -> tuple[np.ndarray, float]:
    """Every length-n sequence's maximized likelihood after the past, in
    lexicographic order, and their float sum (the Shtarkov normalizer)."""
    _require_cap(n)
    ml = _kernels.enum_ml_log2(depth, state_code(past, depth), n)
    # stable summation: the values lie in (0, 1], no rescaling needed
    np.exp2(ml, out=ml)
    return ml, float(ml.sum())


def shtarkov_sum(depth: int, past="", n: int = 1) -> ShtarkovResult:
    """Exact normalizer of per-sequence maximized likelihoods at depth `depth`.

    Enumerates all 2^n sequences; log2 of the sum is the worst-case
    minimax regret of the depth-`depth` model class for this past.

    The maximization runs over all depth-`depth` parameters, so for
    continuity-constrained sub-families this is an upper bound on the
    constrained normalizer, which is what the truncation argument needs.
    """
    return ShtarkovResult(math.log2(_ml_masses(depth, past, n)[1]), n, depth)


class NMLCoder(SequentialCoder):
    """The normalized maximum likelihood assignment, made sequential.

    Exact minimax-optimal for the depth-`depth` class at horizon n;
    feasible only under the enumeration cap.  Conditionals come from
    prefix masses of the normalized table; a whole sequence's code length
    is its maximized likelihood, a closed form of its counts, over the
    Shtarkov normalizer.
    """

    def __init__(self, depth: int, past="", horizon: int = 1):
        _require_cap(horizon)  # before the past
        super().__init__(depth, past)
        self.horizon = horizon
        probs, self._total = _ml_masses(depth, past, horizon)
        self.log2_sum = math.log2(self._total)
        probs /= self._total
        self._levels = [probs]
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
        try:
            bit = _BIT[bit]
        except (KeyError, TypeError):
            raise _not_a_bit(bit) from None
        self._prefix = 2 * self._prefix + bit
        self._t += 1

    def log2_prob_counts(self, occ: np.ndarray, ones: np.ndarray) -> np.ndarray:
        if (occ.sum(axis=-1) != self.horizon).any():
            raise ValueError(f"NML coder is defined on length-{self.horizon} sequences")
        return np.log2(np.exp2(_kernels._ml_log2(occ, ones)) / self._total)

    def log2_prob_all(self, n: int) -> np.ndarray:
        if n != self.horizon:
            raise ValueError(f"NML coder is defined on length-{self.horizon} sequences")
        return np.log2(self._levels[-1])
