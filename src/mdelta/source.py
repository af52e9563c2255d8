"""Finite-memory binary Markov sources over complete context trees.

A source is described by a complete suffix set of contexts (the leaves
of a binary context tree) and, per leaf, the probability of emitting a
1 when the history ends with that leaf.  Bit strings are written oldest
to newest throughout, so a context matches a history exactly when it is
a suffix of it, and a "past" is any bit string supplying at least
`memory` trailing bits (only the tail matters).

Integer encoding of contexts follows `_kernels`: bit j of the code is
the bit emitted j+1 steps ago, which makes "suffix" equal to "low
bits" and lets depth-(d+1) count tables aggregate to depth-d ones by a
reshape-sum.  A count table is the pair (occ, ones) of n_w and n_w1 per
context code, in a last axis of length 2**depth (one row per sample when
batched); `count_table` returns one sample's.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from . import _kernels
from .delta import DeltaSpec

__all__ = [
    "ContextTree",
    "MarkovSource",
    "ContinuityViolation",
    "ContinuityGenerationError",
    "StationaryConvergenceError",
    "as_bits",
    "as_bit_rows",
    "bits_to_str",
    "state_code",
    "full_tree",
    "count_table",
    "empirical_aggregate",
    "check_continuity",
    "random_hypercube_source",
    "random_continuity_source",
    "parse_source",
    "format_source",
]

# deepest context depth or source memory accepted anywhere: a 2**16-entry
# state table stays small, and parsing a deeper tree takes seconds
MAX_SCAN_DEPTH = 16
STATIONARY_TOL = 1e-13
STATIONARY_MAX_ITER = 10**6
# slack on every continuity bound, for the rounding of a parameter ratio
CONTINUITY_TOL = 1e-12
_TRIAL_BUDGET_BYTES = 64 << 20  # float64 uniforms drawn at once for Monte Carlo trials
# continuity-source tries drawn and checked at once: a first batch of eight
# costs about one try at small depth, where numpy's per-call overhead rules,
# and holds most exp:1 draws to depth 6 (3.9 tries on average there); each
# rejected batch doubles the next, up to this many bytes of float64 uniforms
# (one try from depth 14 on); at four times this budget, depths 12 and 14 ran
# slower than one try at a time
_CONTINUITY_FIRST_BATCH = 8
_CONTINUITY_BATCH_BYTES = 256 << 10
_CONTINUITY_TRIES = 200  # tries drawn before the generator gives up


# longest horizon enumerated exhaustively (2^n sequences)
ENUMERATION_CAP = 20


def _check_horizon(n: int, least: int = 1) -> None:
    """Reject a horizon under `least`; every Monte Carlo estimate samples
    sequences of at least one step, the default."""
    if n < least:
        raise ValueError(f"n must be at least {least}, got {n}")


def _require_cap(n: int) -> None:
    """The one range check of every exhaustive enumeration: 0 <= n <= ENUMERATION_CAP."""
    _check_horizon(n, 0)
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"exhaustive enumeration over 2^{n} sequences refused (cap n <= {ENUMERATION_CAP}); "
            "use the Monte Carlo estimators instead"
        )


def _chunk_sizes(trials: int, n: int):
    """Split `trials` rows of n uniforms into chunks under the trial budget."""
    chunk = max(1, _TRIAL_BUDGET_BYTES // (8 * max(n, 1)))
    for done in range(0, trials, chunk):
        yield min(chunk, trials - done)


class StationaryConvergenceError(RuntimeError):
    """Power iteration failed to reach the residual target."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"stationary distribution not converged after {iterations} iterations "
            f"(L1 residual {residual:.3e})"
        )
        self.residual = residual


class ContinuityGenerationError(RuntimeError):
    """Rejection sampling could not produce a source inside the band budget."""


# ---------------------------------------------------------------------------
# bit-string helpers
# ---------------------------------------------------------------------------


def as_bits(x) -> np.ndarray:
    """Normalize a bit sequence (str of 0/1, iterable, or array) to uint8.

    Any value other than exactly 0 or 1 (2, -1, 1.5, 256, "1") raises
    ValueError; booleans are bits."""
    if isinstance(x, str):
        if any(ch not in "01" for ch in x):
            raise ValueError(f"bit string may contain only 0/1, got {x!r}")
        return np.frombuffer(x.encode(), dtype=np.uint8) - ord("0")
    return _exact_bits(x, 1, "bit sequence")


def as_bit_rows(bits) -> np.ndarray:
    """Normalize a (trials, n) batch of bit rows to uint8, rejecting any
    value other than exactly 0 or 1 with ValueError, as as_bits does."""
    return _exact_bits(bits, 2, "bit rows")


def _exact_bits(x, ndim: int, what: str) -> np.ndarray:
    # x as a uint8 array of ndim dimensions; uint8 and bool input is
    # checked in one pass, anything else is compared with 0 and 1 before
    # the cast, so no value wraps or truncates into a bit
    arr = np.asarray(x)
    if arr.ndim != ndim:
        raise ValueError(f"{what} must have {ndim} dimension(s), got {arr.ndim}")
    if arr.dtype in (np.uint8, np.bool_):
        ok = not arr.size or arr.max() <= 1
    else:
        ok = bool(((arr == 0) | (arr == 1)).all())
    if not ok:
        raise ValueError(f"{what} may contain only 0/1")
    return arr.astype(np.uint8, copy=False)


def bits_to_str(bits) -> str:
    """The bits, raveled, as a string of 0/1: any nonzero value is a 1."""
    return ((np.asarray(bits).ravel() != 0).view(np.uint8) + ord("0")).tobytes().decode()


def state_code(history, depth: int) -> int:
    """Encode the last `depth` bits of a history as a context code."""
    bits = as_bits(history)
    if depth == 0:
        return 0
    if len(bits) < depth:
        raise ValueError(f"history of length {len(bits)} is shorter than depth {depth}")
    tail = bits[-depth:]
    code = 0
    for j in range(depth):
        code |= int(tail[depth - 1 - j]) << j
    return code


def _code_to_string(code: int, depth: int) -> str:
    return "".join(str((code >> (depth - 1 - i)) & 1) for i in range(depth))


# ---------------------------------------------------------------------------
# context trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContextTree:
    """A complete, suffix-free set of binary contexts.

    Every semi-infinite past has exactly one leaf among its suffixes;
    equivalently every length-`memory` word has exactly one suffix in
    the leaf set and no leaf is a suffix of another.
    """

    leaves: tuple[str, ...]

    def __init__(self, leaves: Iterable[str]):
        object.__setattr__(self, "leaves", tuple(sorted(leaves)))
        self._validate()

    def _validate(self) -> None:
        leaf_set = set(self.leaves)
        if len(leaf_set) != len(self.leaves):
            raise ValueError("duplicate leaves")
        for leaf in self.leaves:
            if any(ch not in "01" for ch in leaf):
                raise ValueError(f"leaf {leaf!r} is not a 0/1 string")
        memory = max((len(s) for s in self.leaves), default=None)
        if memory is None:
            raise ValueError("empty leaf set")
        _check_depth(memory)  # before any 2**memory array is built
        # a depth-k leaf with code c is the suffix of the words c + j * 2**k;
        # when every length-`memory` word is hit exactly once, the leaves are
        # a complete suffix-free cover and each of them is reachable
        index = np.arange(len(self.leaves), dtype=np.int32)
        lens = [len(s) for s in self.leaves]
        codes = np.array([int(s, 2) if s else 0 for s in self.leaves], dtype=np.int64)
        words, owner = [], []
        for k in sorted(set(lens)):
            at = np.equal(lens, k)
            step = np.arange(1 << (memory - k), dtype=np.int64) << k
            words.append((codes[at][:, None] + step).ravel())
            owner.append(np.repeat(index[at], step.size))
        words, owner = np.concatenate(words), np.concatenate(owner)
        hits = np.bincount(words, minlength=1 << memory)
        bad = np.flatnonzero(hits != 1)
        if bad.size:
            code = int(bad[0])
            raise ValueError(
                f"word {_code_to_string(code, memory)!r} has {hits[code]} leaf suffixes; "
                "leaf set is not a complete suffix-free cover"
            )
        lookup = np.empty(1 << memory, dtype=np.int32)
        lookup[words] = owner
        lookup.setflags(write=False)
        object.__setattr__(self, "_memory", memory)
        object.__setattr__(self, "_state_leaf", lookup)

    @property
    def memory(self) -> int:
        return self._memory

    @property
    def state_leaf_index(self) -> np.ndarray:
        """Map from length-`memory` context code to leaf index."""
        return self._state_leaf

    @cached_property
    def _leaf_index(self) -> dict[str, int]:
        """Position of every leaf in `leaves`."""
        return {leaf: i for i, leaf in enumerate(self.leaves)}

    def context_of(self, history) -> str:
        """The unique leaf that is a suffix of the history."""
        code = state_code(history, self.memory)
        return self.leaves[int(self._state_leaf[code])]


@functools.lru_cache(maxsize=MAX_SCAN_DEPTH + 1)
def full_tree(ell: int) -> ContextTree:
    """The complete depth-ell tree: every length-ell word is a leaf.

    Its sorted leaves are the codes 0 .. 2**ell - 1 in order.  Trees are
    frozen, so each depth is built once and shared.
    """
    _check_depth(ell)
    if ell == 0:
        return ContextTree(("",))
    return ContextTree("".join(p) for p in itertools.product("01", repeat=ell))


# ---------------------------------------------------------------------------
# count tables
# ---------------------------------------------------------------------------


def _fold(counts: np.ndarray, depth: int) -> np.ndarray:
    """Sum the trailing 2**D context axis of (possibly batched) counts down
    to the 2**depth contexts of their low `depth` bits, for depth <= D.

    Folding a depth-(d+1) table gives exactly the depth-d table of the
    same sample and past."""
    top = counts.shape[-1].bit_length() - 1
    shape = counts.shape[:-1] + (1 << (top - depth), 1 << depth)
    return counts.reshape(shape).sum(axis=-2)


def count_table(x, past, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-context counts (occ, ones) of one sample: n_w and n_w1 for every
    depth-`depth` context code w, rolling through past then x, so that
    occ.sum() is the sample length."""
    occ, ones = _kernels.count_batch(as_bits(x)[None, :], state_code(past, depth), depth)
    return occ[0], ones[0]


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovSource:
    """A context tree plus, per leaf, the probability of emitting a 1.

    All probabilities must be strictly inside (0, 1), which makes the
    induced chain on length-`memory` states irreducible and aperiodic.
    """

    tree: ContextTree
    probs: tuple[float, ...]

    def __init__(self, tree: ContextTree, theta):
        if isinstance(theta, dict):
            missing = [s for s in tree.leaves if s not in theta]
            if missing:
                raise ValueError(f"theta missing for leaves {missing}")
            theta = [theta[s] for s in tree.leaves]
        elif not isinstance(theta, np.ndarray):
            theta = list(theta)
        vals = np.asarray(theta, dtype=np.float64)
        if vals.shape != (len(tree.leaves),):
            raise ValueError("theta length does not match leaf count")
        if not ((vals > 0.0) & (vals < 1.0)).all():
            raise ValueError("every transition probability must lie strictly in (0, 1)")
        probs = tuple(vals.tolist())
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "probs", probs)

    # -- structure ----------------------------------------------------------

    @property
    def memory(self) -> int:
        return self.tree.memory

    def theta(self, leaf: str) -> float:
        try:
            return self.probs[self.tree._leaf_index[leaf]]
        except KeyError:
            raise ValueError(f"{leaf!r} is not a leaf") from None

    @cached_property
    def state_theta(self) -> np.ndarray:
        """P(1 | state) for every length-`memory` state code."""
        vals = np.asarray(self.probs)[self.tree.state_leaf_index]
        vals.setflags(write=False)
        return vals

    # -- sampling -----------------------------------------------------------

    def sample(self, past, n: int, seed: int | None = None) -> np.ndarray:
        """Draw n bits continuing the past from np.random.default_rng(seed),
        one row of its uniforms: an integer seed always gives the same bits,
        and seed=None draws fresh OS entropy, so it is not reproducible."""
        _check_horizon(n, 0)
        ((_, bits),) = self._sample_chunks(past, n, 1, np.random.default_rng(seed))
        return bits[0]

    def _sample_chunks(self, past, n: int, trials: int, rng):
        """Yield `trials` length-n samples continuing the past as (rows,
        bits) chunks: a (t, n) bit batch and its slice of the trials, the
        uniforms drawn from rng row after row under the trial budget.

        This is the one stream that sample and every Monte Carlo estimator
        read, most of them as counts through _count_chunks.  The sampler
        picks its path for a chunk from theta before drawing
        (_kernels._fallback): a chunk that settles draws its uniforms one
        settle block at a time, one that falls back to a loop (theta spread
        wide, so runs of state-dependent draws are long) the whole chunk's
        at once.  Every bit and the rng state afterwards equal one
        sample_batch call on rng.random((trials, n)).
        """
        s0 = state_code(past, self.memory)
        done = 0
        for t in _chunk_sizes(trials, n):
            bits = _kernels._sample_rows(
                self.state_theta, s0, self.memory, (t, n), lambda r, k: rng.random((k, n))
            )
            yield slice(done, done + t), bits
            done += t

    def _count_chunks(self, past, n: int, trials: int, rng, depth: int):
        """Yield the chunks of _sample_chunks as (rows, occ, ones): each
        chunk's slice of the trials and its (t, 2**depth) context counts,
        rolled from the past's depth-`depth` code."""
        s0 = state_code(past, depth)
        for rows, bits in self._sample_chunks(past, n, trials, rng):
            yield (rows, *_kernels.count_batch(bits, s0, depth))

    # -- stationary law -----------------------------------------------------

    @cached_property
    def stationary(self) -> np.ndarray:
        """Stationary distribution over length-`memory` states, by power
        iteration until the L1 step is at most STATIONARY_TOL; raises
        StationaryConvergenceError after STATIONARY_MAX_ITER steps."""
        m = 1 << self.memory
        th = self.state_theta
        codes = np.arange(m, dtype=np.int64)
        mask = m - 1
        idx1 = ((codes << 1) | 1) & mask
        idx0 = (codes << 1) & mask
        pi = np.full(m, 1.0 / m)
        residual = math.inf
        for _ in range(STATIONARY_MAX_ITER):
            w1 = pi * th
            new = np.bincount(idx1, weights=w1, minlength=m)
            new += np.bincount(idx0, weights=pi - w1, minlength=m)
            new /= new.sum()
            residual = float(np.abs(new - pi).sum())
            pi = new
            if residual <= STATIONARY_TOL:
                break
        else:
            raise StationaryConvergenceError(residual, STATIONARY_MAX_ITER)
        pi.setflags(write=False)
        return pi

    def aggregate_conditional(self, w) -> float:
        """Stationary-weighted P(1 | recent history ends with w).

        For |w| >= memory this is just the leaf parameter; otherwise it
        averages the parameters of every length-`memory` state ending in
        w by their stationary mass, so a leaf shorter than w counts for
        each state it covers.
        """
        w = bits_to_str(as_bits(w)) if not isinstance(w, str) else w
        if len(w) >= self.memory:
            return self.theta(self.tree.context_of(w))
        mass, weighted = _aggregate(self, self.stationary, len(w))
        col = state_code(w, len(w))
        if mass[col] <= 0.0:
            raise ValueError(f"context {w!r} has zero stationary mass")
        return float(weighted[col] / mass[col])

    # -- truncation ---------------------------------------------------------

    def truncate(self, ell: int) -> "MarkovSource":
        """Depth-ell approximation: each length-ell context w inherits the
        parameter of its all-zeros extension to full memory."""
        if ell < 0:
            raise ValueError("depth must be non-negative")
        if ell >= self.memory:
            return self
        # the all-zeros extension of the depth-ell code c is state c
        return MarkovSource(full_tree(ell), self.state_theta[: 1 << ell].tolist())


# ---------------------------------------------------------------------------
# empirical aggregated conditionals
# ---------------------------------------------------------------------------


def empirical_aggregate(source: MarkovSource, x, past, w) -> float | None:
    """Count-weighted average of P(1 | state) over the length-`memory`
    states ending in w, the states counted along the sample.

    Returns None when w never occurs in the sample (callers skip such
    contexts); for |w| >= memory the leaf parameter is returned
    regardless of counts.
    """
    w = bits_to_str(as_bits(w)) if not isinstance(w, str) else w
    if len(w) >= source.memory:
        return source.theta(source.tree.context_of(w))
    n_w, _, weighted = aggregate_moments(source, *count_table(x, past, source.memory), len(w))
    col = state_code(w, len(w))
    return float(weighted[col] / n_w[col]) if n_w[col] else None


def _aggregate(source: MarkovSource, weights: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Total weight of the states ending in each depth-`depth` context w,
    and that total weighted by P(1 | state), from (possibly batched)
    per-state weights such as counts or the stationary law over 2**D
    states, D >= memory.  A deeper state's parameter is that of its low
    (most recent) `memory` bits, so theta is tiled to the weights' states."""
    theta = np.tile(source.state_theta, weights.shape[-1] >> source.memory)
    return _fold(weights, depth), _fold(weights * theta, depth)


def aggregate_moments(
    source: MarkovSource, occ: np.ndarray, ones: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate count arrays to (n_w, n_w1, n_w * ptilde_w) at `depth`.

    occ/ones hold counts at some depth D >= max(depth, memory) in their
    trailing axis and may be batched (..., 2**D).
    """
    count_depth = int(occ.shape[-1]).bit_length() - 1
    if occ.shape[-1] != 1 << count_depth:
        raise ValueError("count arrays must span a power-of-two state space")
    if depth > count_depth or count_depth < source.memory:
        raise ValueError("count depth must cover both the target depth and the memory")
    mass, weighted = _aggregate(source, occ, depth)
    return mass, _fold(ones, depth), weighted


def log2_empirical_product(n_w: np.ndarray, n_w1: np.ndarray, weighted: np.ndarray) -> float:
    """log2 of prod_w ptilde_w^{n_w1} (1-ptilde_w)^{n_w0}, skipping empty contexts."""
    mask = n_w > 0
    nw = n_w[mask].astype(np.float64)
    nw1 = n_w1[mask].astype(np.float64)
    pt = weighted[mask] / nw
    return float(np.sum(nw1 * np.log2(pt) + (nw - nw1) * np.log2(1.0 - pt)))


# ---------------------------------------------------------------------------
# continuity checking
# ---------------------------------------------------------------------------


class ContinuityViolation(NamedTuple):
    s1: str
    s2: str
    w: str
    symbol: int
    excess: float  # |ratio - 1| actually observed
    allowed: float


def _prefix_min_delta(delta: DeltaSpec, upto: int) -> np.ndarray:
    return np.minimum.accumulate([delta(m) for m in range(upto + 1)])


def check_continuity(source: MarkovSource, delta: DeltaSpec) -> list[ContinuityViolation]:
    """All violations of the pairwise ratio condition; empty means pass.

    For every pair of leaves and both symbols, every common suffix w
    must satisfy |p(a|s1)/p(a|s2) - 1| <= delta(|w|), within
    CONTINUITY_TOL; since shorter common suffixes are checked too, each
    pair is tested against the running minimum of delta up to its
    longest common suffix.

    The check folds the state-ordered parameters: two leaves of a
    suffix-free tree share the longest common suffix of any two states
    they cover, so the largest and smallest parameter among the states
    ending in w are the worst pair with w as a common suffix.  One
    violation is listed per such class w and symbol (by depth, symbol 1
    before 0, then suffix code), naming the leaves of those two states;
    a full or uneven tree alike.
    """
    L = source.memory
    if L == 0:
        return []
    dmin = _prefix_min_delta(delta, L - 1)
    th = source.state_theta
    excess, bad = _full_tree_excesses(th, dmin, CONTINUITY_TOL)
    leaves, idx = source.tree.leaves, source.tree.state_leaf_index
    out = []
    for d in range(L):
        classes = slice((1 << d) - 1, (2 << d) - 1)  # the depth-d suffixes
        for k, symbol in enumerate((1, 0)):
            cols = np.flatnonzero(bad[k, classes])
            view = th.reshape(1 << (L - d), 1 << d)[:, cols]
            if not symbol:
                view = 1.0 - view
            hi = idx[(view.argmax(axis=0) << d) | cols].tolist()
            lo = idx[(view.argmin(axis=0) << d) | cols].tolist()
            for c, a, b, e in zip(cols.tolist(), hi, lo, excess[k, classes][cols].tolist()):
                w = _code_to_string(c, d)
                out.append(ContinuityViolation(leaves[a], leaves[b], w, symbol, e, float(dmin[d])))
    return out


def _full_tree_excesses(th, dmin, tol):
    # the check of state-ordered thetas, one source per row of th's leading
    # axes: the ratio excess max/min - 1 of every common-suffix class, for
    # symbol 1 (theta, row 0 of the axis before last) and symbol 0
    # (1 - theta, row 1), and whether it is over dmin[d] + tol.  The
    # depth-d classes, one per suffix code c < 2**d, sit at 2**d - 1 + c.
    # Each class's max and min fold bottom up, depth d's from the two depth
    # d + 1 classes that share its suffix; the min folds as the max of
    # -theta, and symbol 0's come from symbol 1's: max(1 - theta) is
    # 1 - min(theta) exactly, as rounding is monotone
    L = th.shape[-1].bit_length() - 1
    ext = np.empty(th.shape[:-1] + (2, 2 << L))  # heap order: the depth-d classes at 2**d + c
    ext[..., 0, 1 << L :] = th
    np.negative(th, out=ext[..., 1, 1 << L :])
    for d in range(L - 1, -1, -1):
        k = 1 << d
        np.maximum(ext[..., 2 * k : 3 * k], ext[..., 3 * k : 4 * k], out=ext[..., k : 2 * k])
    hi, lo = ext[..., 0, 1 : 1 << L], -ext[..., 1, 1 : 1 << L]
    excess = np.empty(ext.shape[:-1] + ((1 << L) - 1,))
    np.divide(hi, lo, out=excess[..., 0, :])
    np.divide(1.0 - lo, 1.0 - hi, out=excess[..., 1, :])
    excess -= 1.0
    return excess, excess > dmin[_class_depths(L)] + tol


@functools.lru_cache(maxsize=MAX_SCAN_DEPTH + 1)
def _class_depths(L: int) -> np.ndarray:
    # the depth of each common-suffix class in _full_tree_excesses' order
    depths = np.repeat(np.arange(L), 1 << np.arange(L))
    depths.setflags(write=False)
    return depths


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _check_depth(ell: int, least: int = 0) -> None:
    """Reject a context depth outside least..MAX_SCAN_DEPTH before anything
    is drawn or allocated: a depth-ell source or coder holds 2**ell states."""
    if not least <= ell <= MAX_SCAN_DEPTH:
        raise ValueError(f"depth must lie in {least}..{MAX_SCAN_DEPTH}, got {ell}")


def random_hypercube_source(ell: int, half_width: float, seed: int | None = None) -> MarkovSource:
    """Full depth-ell source with every parameter uniform in 1/2 +- half_width.

    These near-fair sources dominate the redundancy of the class while
    mixing fast.  The exact pairwise ratio band they satisfy is
    4h/(1-2h) at every common-suffix depth, which is asserted here.
    """
    _check_depth(ell)
    if not 0.0 <= half_width < 0.25:
        raise ValueError("half_width must lie in [0, 1/4)")
    vals = 0.5 + np.random.default_rng(seed).uniform(-half_width, half_width, size=1 << ell)
    src = MarkovSource(full_tree(ell), vals.tolist())
    if ell > 0 and half_width > 0.0:
        band = 4.0 * half_width / (1.0 - 2.0 * half_width)
        for arr in (src.state_theta, 1.0 - src.state_theta):
            spread = float(arr.max() / arr.min()) - 1.0
            if spread > band + 1e-12:
                raise AssertionError("hypercube draw escaped its ratio band")
    return src


def random_continuity_source(ell: int, delta: DeltaSpec, seed: int | None = None) -> MarkovSource:
    """Full depth-ell source satisfying the continuity condition for delta.

    Built by multiplicative refinement: the root parameter is drawn
    near 1/2 and each depth-d refinement perturbs both children within
    a multiplicative band of half-width delta(d)/3, so cumulative
    products stay inside the delta envelope with high probability; the
    draw is verified and rejection-resampled on failure, up to 200 tries
    (_CONTINUITY_TRIES) from np.random.default_rng(seed).

    Tries are drawn and checked a batch at a time: eight, then twice as
    many each batch, up to _CONTINUITY_BATCH_BYTES of uniforms and never
    past the try budget.  The source returned is the first admissible
    try, the one drawing and checking one try after another would return.

    The band budget shrinks with depth: for delta = exp:1 generation
    succeeds up to depth 12 (seeds 0-4 all pass at 12, four of five at
    13, none at 14, where the 200 draws take about 0.15 s before
    ContinuityGenerationError: the median call over seeds 0-4 in fresh
    processes on a 2-core x86_64 machine).
    """
    _check_depth(ell, 1)
    rng = np.random.default_rng(seed)
    low, span, dmin = _refinement_plan(ell, delta)
    width = low.size
    cap = max(1, _CONTINUITY_BATCH_BYTES // (8 * width))
    size = done = 0
    while done < _CONTINUITY_TRIES:
        size = min(max(_CONTINUITY_FIRST_BATCH, 2 * size), cap, _CONTINUITY_TRIES - done)
        vals = _refine(rng.random((size, width)), low, span, ell)
        # a full tree's sorted leaves are the state codes in order, so each
        # row is already the state-ordered theta check_continuity would test
        bad = _full_tree_excesses(vals, dmin, CONTINUITY_TOL)[1].reshape(size, -1).any(axis=1)
        first = int(bad.argmin())
        if not bad[first]:
            return MarkovSource(full_tree(ell), vals[first])
        done += size
    raise ContinuityGenerationError(
        f"no admissible source after {_CONTINUITY_TRIES} draws; band budget too wide for {delta.describe()}"
    )


@functools.lru_cache(maxsize=16)
def _refinement_plan(ell: int, delta: DeltaSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per uniform of a depth-ell try, rng.uniform's low and span (high -
    low): 0.45..0.55 for the root, then -band..band, band = delta(d)/3,
    for the 2**(d+1) of each depth d; and the running minimum of delta the
    try is checked against.  Read-only, built once per (ell, delta)."""
    width = (2 << ell) - 1
    low, span = np.empty(width), np.empty(width)
    low[0], span[0] = 0.45, 0.55 - 0.45
    for d in range(ell):
        band = delta(d) / 3.0
        level = slice((2 << d) - 1, (4 << d) - 1)
        low[level], span[level] = -band, band - -band
    dmin = _prefix_min_delta(delta, ell - 1)
    for arr in (low, span, dmin):
        arr.setflags(write=False)
    return low, span, dmin


def _refine(u: np.ndarray, low: np.ndarray, span: np.ndarray, ell: int) -> np.ndarray:
    # the (k, 2**ell) state-ordered thetas of k tries from their uniforms,
    # in place and with the float operations of drawing one try at a time:
    # rng.uniform(low, high) is low + (high - low) * u, a depth-d
    # refinement multiplies both copies of the depth-(d - 1) parameters
    # (the root's at d = 0) by its 2**(d+1) factors 1 + u, and np.clip is
    # a max then a min
    k = len(u)
    u *= span
    u += low
    u[:, 1:] += 1.0
    for d in range(ell):
        m = 1 << d
        level = u[:, 2 * m - 1 : 4 * m - 1].reshape(k, 2, m)  # a view: each row's slice halved
        level *= u[:, None, m - 1 : 2 * m - 1]
    vals = u[:, (1 << ell) - 1 :]
    np.maximum(vals, 1e-4, out=vals)
    np.minimum(vals, 1.0 - 1e-4, out=vals)
    return vals


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_EMPTY_CONTEXT = "-"


def format_source(source: MarkovSource) -> str:
    """One record per line: a `memory` header then `context theta` rows.

    The empty context (memory 0) is written as `-`.  Floats use repr so
    parse(format(source)) round-trips exactly.
    """
    lines = [f"memory {source.memory}"]
    for leaf, p in zip(source.tree.leaves, source.probs):
        lines.append(f"{leaf or _EMPTY_CONTEXT} {p!r}")
    return "\n".join(lines) + "\n"


def parse_source(text: str) -> MarkovSource:
    memory = None
    theta: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "memory":
            if memory is not None:
                raise ValueError(f"line {lineno}: duplicate memory header")
            if len(parts) != 2 or not parts[1].isdigit():
                raise ValueError(f"line {lineno}: malformed memory header")
            memory = int(parts[1])
            if memory > MAX_SCAN_DEPTH:
                raise ValueError(f"line {lineno}: memory {memory} exceeds the cap {MAX_SCAN_DEPTH}")
            continue
        if memory is None:
            raise ValueError(f"line {lineno}: context row before memory header")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected `context theta`")
        ctx = "" if parts[0] == _EMPTY_CONTEXT else parts[0]
        if len(ctx) > memory:
            raise ValueError(f"line {lineno}: context {parts[0]!r} is longer than memory {memory}")
        if ctx in theta:
            raise ValueError(f"line {lineno}: duplicate context {parts[0]!r}")
        theta[ctx] = float(parts[1])
    if memory is None:
        raise ValueError("missing memory header")
    tree = ContextTree(theta.keys())
    if tree.memory != memory:
        raise ValueError(f"header says memory {memory} but leaves imply {tree.memory}")
    return MarkovSource(tree, theta)
