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
reshape-sum.
"""

from __future__ import annotations

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
    "CountTable",
    "ContinuityViolation",
    "ContinuityGenerationError",
    "StationaryConvergenceError",
    "as_bits",
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

STATIONARY_TOL = 1e-13
STATIONARY_MAX_ITER = 10**6
_TRIAL_BUDGET_BYTES = 64 << 20  # float64 uniforms drawn at once for Monte Carlo trials


def _chunk_sizes(trials: int, n: int):
    """Split `trials` rows of n uniforms into chunks under the trial budget."""
    chunk = max(1, _TRIAL_BUDGET_BYTES // (8 * max(n, 1)))
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        yield t
        done += t


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
    """Normalize a bit sequence (str of 0/1, iterable, or array) to uint8."""
    if isinstance(x, str):
        if any(ch not in "01" for ch in x):
            raise ValueError(f"bit string may contain only 0/1, got {x!r}")
        return np.frombuffer(x.encode(), dtype=np.uint8) - ord("0")
    arr = np.asarray(x, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bit sequence may contain only 0/1")
    return arr


def bits_to_str(bits) -> str:
    return "".join("1" if b else "0" for b in np.asarray(bits).ravel())


def state_code(history, depth: int) -> int:
    """Encode the last `depth` bits of a history as a context code."""
    if depth == 0:
        return 0
    bits = as_bits(history)
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
        used = set()
        lookup = np.empty(1 << memory, dtype=np.int32)
        index = {leaf: i for i, leaf in enumerate(self.leaves)}
        for code in range(1 << memory):
            word = _code_to_string(code, memory)
            matches = [word[len(word) - k :] if k else "" for k in range(memory + 1)]
            matches = [w for w in matches if w in leaf_set]
            if len(matches) != 1:
                raise ValueError(
                    f"word {word!r} has {len(matches)} leaf suffixes; "
                    "leaf set is not a complete suffix-free cover"
                )
            used.add(matches[0])
            lookup[code] = index[matches[0]]
        if used != leaf_set:
            unused = sorted(leaf_set - used)
            raise ValueError(f"unreachable leaves {unused}")
        object.__setattr__(self, "_memory", memory)
        object.__setattr__(self, "_state_leaf", lookup)

    @property
    def memory(self) -> int:
        return self._memory

    @property
    def state_leaf_index(self) -> np.ndarray:
        """Map from length-`memory` context code to leaf index."""
        return self._state_leaf

    def is_full(self) -> bool:
        return len(self.leaves) == 1 << self.memory

    def context_of(self, history) -> str:
        """The unique leaf that is a suffix of the history."""
        code = state_code(history, self.memory)
        return self.leaves[int(self._state_leaf[code])]


def full_tree(ell: int) -> ContextTree:
    """The complete depth-ell tree: every length-ell word is a leaf."""
    if ell < 0:
        raise ValueError("depth must be non-negative")
    if ell == 0:
        return ContextTree(("",))
    return ContextTree("".join(p) for p in itertools.product("01", repeat=ell))


# ---------------------------------------------------------------------------
# count tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountTable:
    """Per-context counts for one sample: occurrences n_w and ones n_w1.

    Arrays are indexed by context code; Sum_w n_w equals the sample
    length, and a depth-(d+1) table aggregates exactly to the depth-d
    table for the same sample and past.
    """

    depth: int
    occurrences: np.ndarray
    ones: np.ndarray

    def __post_init__(self):
        for arr in (self.occurrences, self.ones):
            arr.setflags(write=False)

    @property
    def total(self) -> int:
        return int(self.occurrences.sum())

    def row(self, w: str) -> tuple[int, int]:
        """(n_w, n_w1) for a context given as a bit string."""
        if len(w) != self.depth:
            raise ValueError(f"context {w!r} is not of depth {self.depth}")
        code = state_code(w, self.depth) if self.depth else 0
        return int(self.occurrences[code]), int(self.ones[code])

    def aggregate(self, depth: int) -> "CountTable":
        """Collapse to a shallower depth by summing sibling rows."""
        if not 0 <= depth <= self.depth:
            raise ValueError("can only aggregate to a shallower depth")
        shape = (1 << (self.depth - depth), 1 << depth)
        return CountTable(
            depth,
            self.occurrences.reshape(shape).sum(axis=0),
            self.ones.reshape(shape).sum(axis=0),
        )


def count_table(x, past, depth: int) -> CountTable:
    """Count contexts of each bit of x, rolling through past then x."""
    bits = as_bits(x)
    s0 = state_code(past, depth)
    occ, ones = _kernels.count_batch(bits[None, :], s0, depth)
    return CountTable(depth, occ[0], ones[0])


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
            probs = tuple(float(theta[s]) for s in tree.leaves)
        else:
            probs = tuple(float(v) for v in theta)
            if len(probs) != len(tree.leaves):
                raise ValueError("theta length does not match leaf count")
        if any(not 0.0 < p < 1.0 for p in probs):
            raise ValueError("every transition probability must lie strictly in (0, 1)")
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "probs", probs)

    # -- structure ----------------------------------------------------------

    @property
    def memory(self) -> int:
        return self.tree.memory

    def theta(self, leaf: str) -> float:
        return self.probs[self.tree.leaves.index(leaf)]

    @cached_property
    def state_theta(self) -> np.ndarray:
        """P(1 | state) for every length-`memory` state code."""
        vals = np.asarray(self.probs)[self.tree.state_leaf_index]
        vals.setflags(write=False)
        return vals

    @cached_property
    def _log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        th = self.state_theta
        return np.log2(th), np.log2(1.0 - th)

    def _past_code(self, past) -> int:
        return state_code(past, self.memory)

    # -- probabilities ------------------------------------------------------

    def log_prob(self, past, x) -> float:
        """log2 probability of x given the past, by the chain rule."""
        bits = as_bits(x)
        if bits.size == 0:
            return 0.0
        lt1, lt0 = self._log_tables
        out = _kernels.log2_prob_batch(lt1, lt0, self._past_code(past), self.memory, bits[None, :])
        return float(out[0])

    def log2_prob_batch(self, past, bits: np.ndarray) -> np.ndarray:
        lt1, lt0 = self._log_tables
        return _kernels.log2_prob_batch(lt1, lt0, self._past_code(past), self.memory, bits)

    def log2_prob_all(self, past, n: int) -> np.ndarray:
        """log2 probability of every length-n sequence (lexicographic)."""
        lt1, lt0 = self._log_tables
        return _kernels.enum_source_log2(lt1, lt0, self._past_code(past), self.memory, n)

    # -- sampling -----------------------------------------------------------

    def sample(self, past, n: int, seed: int | None = None, rng=None) -> np.ndarray:
        """Draw n bits continuing the past; deterministic given the seed."""
        if rng is None:
            rng = np.random.default_rng(seed)
        if n == 0:
            return np.empty(0, np.uint8)
        u = rng.random((1, n))
        return _kernels.sample_batch(self.state_theta, self._past_code(past), self.memory, u)[0]

    def _sample_chunks(self, past, n: int, trials: int, rng):
        """Yield `trials` length-n samples as (t, n) bit batches, drawing
        the uniforms from rng row after row under the trial budget."""
        s0 = self._past_code(past)
        for t in _chunk_sizes(trials, n):
            u = rng.random((t, n))
            yield _kernels.sample_batch(self.state_theta, s0, self.memory, u)

    # -- stationary law -----------------------------------------------------

    def stationary(self, tol: float = STATIONARY_TOL, max_iter: int = STATIONARY_MAX_ITER) -> np.ndarray:
        """Stationary distribution over length-`memory` states (power iteration)."""
        key = "_stationary_cache"
        if tol == STATIONARY_TOL and max_iter == STATIONARY_MAX_ITER and key in self.__dict__:
            return self.__dict__[key]
        m = 1 << self.memory
        th = self.state_theta
        codes = np.arange(m, dtype=np.int64)
        mask = m - 1
        idx1 = ((codes << 1) | 1) & mask
        idx0 = (codes << 1) & mask
        pi = np.full(m, 1.0 / m)
        residual = math.inf
        for _ in range(max_iter):
            w1 = pi * th
            new = np.bincount(idx1, weights=w1, minlength=m)
            new += np.bincount(idx0, weights=pi - w1, minlength=m)
            new /= new.sum()
            residual = float(np.abs(new - pi).sum())
            pi = new
            if residual <= tol:
                break
        else:
            raise StationaryConvergenceError(residual, max_iter)
        pi.setflags(write=False)
        if tol == STATIONARY_TOL and max_iter == STATIONARY_MAX_ITER:
            self.__dict__[key] = pi
        return pi

    def leaf_stationary(self) -> np.ndarray:
        """Stationary mass of each leaf, aligned with tree.leaves."""
        pi = self.stationary()
        return np.bincount(self.tree.state_leaf_index, weights=pi, minlength=len(self.tree.leaves))

    def aggregate_conditional(self, w) -> float:
        """Stationary-weighted P(1 | recent history ends with w).

        For |w| >= memory this is just the leaf parameter; otherwise it
        averages the parameters of the leaves extending w by their
        stationary mass.
        """
        w = bits_to_str(as_bits(w)) if not isinstance(w, str) else w
        if len(w) >= self.memory:
            return self.theta(self.tree.context_of(w))
        members = [i for i, s in enumerate(self.tree.leaves) if s.endswith(w)]
        if not members:
            raise ValueError(f"no leaf extends context {w!r}; conditional undefined")
        mass = self.leaf_stationary()
        den = float(mass[members].sum())
        if den <= 0.0:
            raise ValueError(f"context {w!r} has zero stationary mass")
        num = float(sum(mass[i] * self.probs[i] for i in members))
        return num / den

    # -- truncation ---------------------------------------------------------

    def truncate(self, ell: int) -> "MarkovSource":
        """Depth-ell approximation: each length-ell context w inherits the
        parameter of its all-zeros extension to full memory."""
        if ell < 0:
            raise ValueError("depth must be non-negative")
        if ell >= self.memory:
            return self
        pad = "0" * (self.memory - ell)
        tree = full_tree(ell)
        theta = {w: self.theta(self.tree.context_of(pad + w)) for w in tree.leaves}
        return MarkovSource(tree, theta)

    # -- text form ----------------------------------------------------------

    def to_text(self) -> str:
        return format_source(self)


# ---------------------------------------------------------------------------
# empirical aggregated conditionals
# ---------------------------------------------------------------------------


def empirical_aggregate(source: MarkovSource, x, past, w) -> float | None:
    """Count-weighted average of leaf parameters over the leaves extending w.

    Returns None when w never occurs in the sample (callers skip such
    contexts); for |w| >= memory the leaf parameter is returned
    regardless of counts.
    """
    w = bits_to_str(as_bits(w)) if not isinstance(w, str) else w
    if len(w) >= source.memory:
        return source.theta(source.tree.context_of(w))
    table = count_table(x, past, source.memory)
    k = len(w)
    shape = (1 << (source.memory - k), 1 << k)
    col = state_code(w, k) if k else 0
    n_w = int(table.occurrences.reshape(shape)[:, col].sum())
    if n_w == 0:
        return None
    counts_leaf = np.bincount(
        source.tree.state_leaf_index, weights=table.occurrences, minlength=len(source.tree.leaves)
    )
    members = [i for i, s in enumerate(source.tree.leaves) if s.endswith(w)]
    num = float(sum(counts_leaf[i] * source.probs[i] for i in members))
    return num / n_w


def expanded_theta(source: MarkovSource, depth: int) -> np.ndarray:
    """P(1 | state) over 2**depth states for depth >= memory.

    Tiling works because a deeper state's leaf is determined by its low
    (most recent) `memory` bits.
    """
    if depth < source.memory:
        raise ValueError("expansion depth below the source memory")
    return np.tile(source.state_theta, 1 << (depth - source.memory))


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
    shape = occ.shape[:-1] + (1 << (count_depth - depth), 1 << depth)
    n_w = occ.reshape(shape).sum(axis=-2)
    n_w1 = ones.reshape(shape).sum(axis=-2)
    weighted = (occ * expanded_theta(source, count_depth)).reshape(shape).sum(axis=-2)
    return n_w, n_w1, weighted


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
    vals = np.empty(upto + 1)
    best = math.inf
    for m in range(upto + 1):
        best = min(best, delta(m))
        vals[m] = best
    return vals


def check_continuity(
    source: MarkovSource, delta: DeltaSpec, tol: float = 1e-12
) -> list[ContinuityViolation]:
    """All violations of the pairwise ratio condition; empty means pass.

    For every pair of leaves and both symbols, every common suffix w
    must satisfy |p(a|s1)/p(a|s2) - 1| <= delta(|w|); since shorter
    common suffixes are checked too, each pair is tested against the
    running minimum of delta up to its longest common suffix.
    """
    L = source.memory
    if L == 0:
        return []
    dmin = _prefix_min_delta(delta, L - 1)
    violations: list[ContinuityViolation] = []
    if source.tree.is_full():
        th = source.state_theta
        leaves = source.tree.leaves
        idx = source.tree.state_leaf_index
        for d in range(L):
            cols = 1 << d
            view1 = th.reshape(1 << (L - d), cols)
            view0 = 1.0 - view1
            for symbol, view in ((1, view1), (0, view0)):
                hi = view.max(axis=0)
                lo = view.min(axis=0)
                excess = hi / lo - 1.0
                bad = np.nonzero(excess > dmin[d] + tol)[0]
                for col in bad:
                    r_hi = int(view[:, col].argmax())
                    r_lo = int(view[:, col].argmin())
                    c_hi = (r_hi << d) | int(col)
                    c_lo = (r_lo << d) | int(col)
                    violations.append(
                        ContinuityViolation(
                            leaves[int(idx[c_hi])],
                            leaves[int(idx[c_lo])],
                            _code_to_string(int(col), d),
                            symbol,
                            float(excess[col]),
                            float(dmin[d]),
                        )
                    )
        return violations
    # general (non-full) trees: direct pairwise scan
    leaves = source.tree.leaves
    for i, s1 in enumerate(leaves):
        for s2 in leaves[i + 1 :]:
            lcs = 0
            while lcs < min(len(s1), len(s2)) and s1[len(s1) - 1 - lcs] == s2[len(s2) - 1 - lcs]:
                lcs += 1
            allowed = dmin[min(lcs, L - 1)]
            w = s1[len(s1) - lcs :] if lcs else ""
            for symbol in (1, 0):
                a = source.theta(s1) if symbol else 1.0 - source.theta(s1)
                b = source.theta(s2) if symbol else 1.0 - source.theta(s2)
                excess = max(a / b, b / a) - 1.0
                if excess > allowed + tol:
                    violations.append(ContinuityViolation(s1, s2, w, symbol, excess, allowed))
    return violations


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def random_hypercube_source(ell: int, half_width: float, seed: int | None = None, rng=None) -> MarkovSource:
    """Full depth-ell source with every parameter uniform in 1/2 +- half_width.

    These near-fair sources dominate the redundancy of the class while
    mixing fast.  The exact pairwise ratio band they satisfy is
    4h/(1-2h) at every common-suffix depth, which is asserted here.
    """
    if not 0.0 <= half_width < 0.25:
        raise ValueError("half_width must lie in [0, 1/4)")
    if rng is None:
        rng = np.random.default_rng(seed)
    vals = 0.5 + rng.uniform(-half_width, half_width, size=1 << ell)
    tree = full_tree(ell)
    theta = {w: float(vals[state_code(w, ell) if ell else 0]) for w in tree.leaves}
    src = MarkovSource(tree, theta)
    if ell > 0 and half_width > 0.0:
        band = 4.0 * half_width / (1.0 - 2.0 * half_width)
        for arr in (src.state_theta, 1.0 - src.state_theta):
            spread = float(arr.max() / arr.min()) - 1.0
            if spread > band + 1e-12:
                raise AssertionError("hypercube draw escaped its ratio band")
    return src


def random_continuity_source(
    ell: int,
    delta: DeltaSpec,
    seed: int | None = None,
    rng=None,
    max_tries: int = 200,
) -> MarkovSource:
    """Full depth-ell source satisfying the continuity condition for delta.

    Built by multiplicative refinement: the root parameter is drawn
    near 1/2 and each depth-d refinement perturbs both children within
    a multiplicative band of half-width delta(d)/3, so cumulative
    products stay inside the delta envelope with high probability; the
    draw is verified and rejection-resampled on failure.
    """
    if ell < 1:
        raise ValueError("depth must be at least 1")
    if rng is None:
        rng = np.random.default_rng(seed)
    tree = full_tree(ell)
    for _ in range(max_tries):
        vals = np.array([rng.uniform(0.45, 0.55)])
        for d in range(ell):
            band = delta(d) / 3.0
            u = rng.uniform(-band, band, size=2 * len(vals))
            vals = np.concatenate([vals, vals]) * (1.0 + u)
        vals = np.clip(vals, 1e-4, 1.0 - 1e-4)
        theta = {w: float(vals[state_code(w, ell)]) for w in tree.leaves}
        src = MarkovSource(tree, theta)
        if not check_continuity(src, delta):
            return src
    raise ContinuityGenerationError(
        f"no admissible source after {max_tries} draws; band budget too wide for {delta.describe()}"
    )


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
            continue
        if memory is None:
            raise ValueError(f"line {lineno}: context row before memory header")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected `context theta`")
        ctx = "" if parts[0] == _EMPTY_CONTEXT else parts[0]
        if ctx in theta:
            raise ValueError(f"line {lineno}: duplicate context {parts[0]!r}")
        theta[ctx] = float(parts[1])
    if memory is None:
        raise ValueError("missing memory header")
    tree = ContextTree(theta.keys())
    if tree.memory != memory:
        raise ValueError(f"header says memory {memory} but leaves imply {tree.memory}")
    return MarkovSource(tree, theta)
