"""Hot numeric kernels, written in numpy.

Every kernel works on a whole batch of rows or a whole enumeration per
call; none loops over sequences in Python.  :func:`active_backend` names
the implementation ("numpy") for run metadata.

Conventions shared by every kernel:

* A depth-d context is encoded as the integer whose bit j holds the bit
  emitted j+1 steps earlier (most recent bit = least significant bit).
  "w is a suffix of s" then reads ``code(s) & (2**|w| - 1) == code(w)``
  and rolling a context forward is ``((s << 1) | b) & (2**d - 1)``.
* Counting builds every position's code ``(context << 1) | bit`` from
  ``depth + 1`` shifted views of the bits, the past filling the first
  ``depth`` columns, in the narrowest unsigned type that holds it (uint8
  below depth 8, uint16 below 16, else uint32), doubling the codes by
  adds rather than ``<<`` (numpy runs ``<<`` on uint8 and uint16 element
  by element, an add vectorized: about 14x faster on uint8 under numpy
  2.4), then one integer ``bincount`` per row block of about 2**16
  positions.  Short contexts in large batches (depth at most 4, rows of
  at least 1024 bits, at least 2**15 positions in all) are counted from
  bit planes instead: each row packed 64 positions to a word, plane j
  the words shifted j positions, one mask word per context built by
  splitting the row's mask by each plane in turn, and the counts are the
  masks' popcounts (``np.bitwise_count``), per row blocks of about 2**18
  positions.  That path costs about 2**(depth + 1) word operations per
  64 positions: it was 6x faster at 64 rows of 16384 bits at depth 2 and
  2.3x at 256 rows of 4096 bits at depth 4, and slower from depth 5 or 6
  on and at the smallest batches, where its fixed costs dominate.  Both
  paths give the same integers.
* ``log2_prob_batch`` is derived from the count table, so it differs
  from a sequential chain-rule sum by rounding only (about 1e-9 at
  n = 65536).
* Enumeration kernels index the 2**n binary sequences by the integer
  whose most significant bit is the first symbol, so results are in
  lexicographic sequence order.  The source enumeration and the
  domination path sums walk the prefix tree one level at a time, so
  level t touches 2**t rows, and add each position's term in sequence
  order.  Past the first ell levels a prefix's source state is its last
  ell bits, periodic in the row with period 2**ell, so each source level
  adds the two 2**ell-entry tables to the last level seen as
  (-1, 2**ell) and writes the sums straight into the next level's
  strided bit-0 and bit-1 rows, without a gather.  The domination path
  sums keep each level in bit-reversed order instead: level t + 1 is the
  bit-0 children of level t's nodes, in level t's order, then their bit-1
  children, so one multiply of the path weights, seen as (rows, 1, 2**t),
  by the level's conditionals p0 and p1, stored side by side as
  (rows, 2, 2**t), writes the whole next level.  The conditionals are
  hashed in place for every node at once, the nodes of each level in
  that same order, and one gather puts the leaves back in lexicographic
  order before the bincount adds them up.  The ML and KT
  enumerations walk the first n//2 bits from the past and the rest from
  each context state those prefixes end in, keep each half's distinct
  per-context count rows, and sum the context terms once per distinct
  (prefix, suffix) pair, each pair summed as its whole-sequence row
  would be, so every value is the same float.  The walks, the distinct
  rows and the scatter indices of one (depth, past, n) form its plan,
  kept read-only for later calls of that shape while it takes no more
  memory than one result (8 * 2**n bytes; at most 8 plans, the oldest
  dropped first), so a repeat call only gathers, sums and scatters into
  a fresh output.
* The sampler settles a batch in blocks of about 2**17 draws: each block
  prefills every bit that is the same in every state (u < min theta is a
  1, u >= max theta a 0) and settles the ambiguous draws in between run
  by run.  A run is a maximal sequence of ambiguous draws, each within ell
  positions of the one before; pass k evaluates the k-th draw of every
  run, whose ell bits before it are final by then, so each draw is
  evaluated once and the block is the sequential result.  Where a block's
  longest run makes settling dearer, a fallback takes the whole batch:
  from 36 rows on a loop over positions, all rows at once, and below that
  a row-by-row loop in plain Python.  The path is chosen once per batch
  from (T, n, ell, p), p = max theta - min theta, before any uniform is
  drawn: a draw is ambiguous with probability p, a run goes on past it
  with probability 1 - (1 - p)**ell, and the longest-run law of Erdos and
  Renyi predicts a block's longest run from these.  The loop over
  positions is chosen when the predicted longest run times the blocks
  exceeds a third of the row length (a pass costs about three of its
  positions), the row loop when 1024 draws, plus 64 per pass, plus half a
  draw per ambiguous draw, exceed a block's draws; so a small batch of
  fewer than 1024 draws runs row by row.  Every path gives the same bits,
  so a wrong prediction costs only time.  A fallback takes its batch's
  uniforms at once, a settle one block's at a time, so the Monte Carlo
  chunks hold a whole chunk's uniforms only when they fall back.
* All randomness enters as pre-drawn uniforms (or an explicit 64-bit
  seed for the hash-derived process generator), so every public kernel
  is a deterministic function of its arguments.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "active_backend",
    "splitmix64",
    "child_seed",
    "kt_tables",
    "sample_batch",
    "count_batch",
    "log2_prob_batch",
    "enum_source_log2",
    "enum_ml_log2",
    "enum_kt_log2",
    "domination_dist",
    "azuma_failures",
]

_M64 = (1 << 64) - 1


def active_backend() -> str:
    """Name of the implementation serving the kernels, for run metadata."""
    return "numpy"


def splitmix64(x: int) -> int:
    """One splitmix64 step: map any 64-bit int to a well-mixed 64-bit int."""
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def child_seed(root: int, label: str) -> int:
    """Derive a task seed from a 64-bit root seed and a task label.

    root XOR fnv1a64(label), then splitmix64.  Used for all seed
    splitting so that independent tasks never share a stream.  A root
    outside 0 .. 2**64 - 1 raises ValueError rather than aliasing another.
    """
    _check_root(root)
    return splitmix64(root ^ _fnv1a64(label.encode()))


def _child_seeds(root: int, prefix: str, count: int) -> list[int]:
    # child_seed(root, f"{prefix}{i}") for i < count, the prefix hashed once
    _check_root(root)
    h = _fnv1a64(prefix.encode())
    return [splitmix64(root ^ _fnv1a64(str(i).encode(), h)) for i in range(count)]


def _check_root(root):
    if not 0 <= root <= _M64:
        raise ValueError(f"seed {root} is outside 0..2^64-1")


def _fnv1a64(data: bytes, h: int = 0xCBF29CE484222325) -> int:
    # FNV-1a over data, carried on from h, the hash of the bytes before it
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _M64
    return h


# ---------------------------------------------------------------------------
# add-half probability tables
# ---------------------------------------------------------------------------

_KT_TABLES = (np.zeros(1), np.zeros(1))


def kt_tables(nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative log2 tables for the add-half (KT) rule.

    ``G[a] = sum_{i<a} log2(i + 1/2)`` and ``H[m] = sum_{k<m} log2(k+1)``;
    a per-context run with a ones and b zeros contributes
    ``G[a] + G[b] - H[a+b]`` bits, independent of symbol order.
    """
    global _KT_TABLES
    tables = _KT_TABLES
    if len(tables[0]) <= nmax:
        size = max(nmax + 1, 2 * len(tables[0]), 1024)
        idx = np.arange(size, dtype=np.float64)
        tables = (
            np.concatenate(([0.0], np.cumsum(np.log2(idx + 0.5)))),
            np.concatenate(([0.0], np.cumsum(np.log2(idx + 1.0)))),
        )
        # one binding swap, so a thread never sees a new G next to an old H
        _KT_TABLES = tables
    return tables


# ---------------------------------------------------------------------------
# sampling and counting
# ---------------------------------------------------------------------------

# below this many rows the plain-Python row loop, not the loop over
# positions, is the fallback to settling: it is faster there whatever n and
# ell (see CHANGES.md)
_ROW_LOOP_ROWS = 36
# a settle of a block costs about as much as the row loop on
# _SETTLE_FIXED_DRAWS draws, plus _SETTLE_PASS_DRAWS per pass, plus half a
# draw per ambiguous draw (fit over T 1-35, n 64-4096, ell 1-7, with some
# margin; see CHANGES.md), so a small batch of fewer draws runs row by row
_SETTLE_FIXED_DRAWS = 1024
_SETTLE_PASS_DRAWS = 64
# larger batches are settled in blocks of about this many draws, so the
# prefill's scratch arrays and each block's uniforms stay small whatever T
# and n
_SETTLE_DRAWS = 1 << 17
# one settle pass costs about as much as this many positions of the loop
# over positions, a block's own set-up included (the crossover measured over
# ell 1-7, T 36-2048 and n 256-16384, see CHANGES.md)
_SETTLE_PASS_POSITIONS = 3
# counting by bincount walks row blocks of about this many positions (or
# one row), so its scratch codes stay small whatever T and n
_COUNT_POSITIONS = 1 << 16
# contexts of at most this depth, in rows of at least _PLANE_ROW bits and
# batches of at least _PLANE_POSITIONS, are counted from bit planes.  A
# plane count costs about 2**(depth + 1) word operations per 64 positions,
# and per row a sum over its words that numpy runs slowly on short rows;
# a bincount costs about the same at every depth.  Measured over T 1-256,
# n 256-65536 and depth 0-7 (numpy 2.4.6, one core of a 2-core x86_64; see
# BENCH_count_planes.json), the planes won at all 85 shapes inside this
# rule: (256, 4096, 2) 2.56 against 0.40 ms, (256, 4096, 4) 2.79 against
# 1.23 ms, the narrowest (32, 1024, 4) 0.093 against 0.090 ms.  Outside it
# they lost at depth 4 with n = 512 (64 rows: 0.096 against 0.113 ms),
# with 8 rows of 1024 bits from depth 3 on, at depth 5 below about 2**17
# positions and at depth 6 and deeper everywhere (48 rows of 16384 bits at
# depth 7: 2.00 against 6.16 ms).  The wins left outside are on short
# rows at depth 3 or less (10x at depth 0 in 256 rows of 512 bits) and at
# depth 5 in large batches (at most 1.3x)
_PLANE_DEPTH = 4
_PLANE_ROW = 1024
_PLANE_POSITIONS = 1 << 15
# the bit-plane count walks row blocks of about this many 64-bit words (or
# one row), so its scratch stays small whatever T and n
_PLANE_WORDS = 1 << 12


def sample_batch(theta: np.ndarray, state0: int, ell: int, u: np.ndarray) -> np.ndarray:
    """Markov-sample a (trials, n) batch of bits from pre-drawn uniforms.

    theta[s] is the probability of a 1 in state s, for the 2**ell states;
    state0 (in 0 .. 2**ell - 1) encodes the past.  Bit i of a row is
    ``u[i] < theta[s]`` with s the state before it.  Row t is the same
    whatever the batch size.
    """
    return _sample_rows(theta, state0, ell, u.shape, lambda r, k: u[r : r + k])


def _sample_rows(theta, state0, ell, shape, draw):
    # Sample a (T, n) batch whose uniforms come from draw(r, k): the
    # uniforms of rows r .. r + k - 1, asked for in row order, all at once
    # for a fallback and one settle block at a time otherwise.
    T, n = shape
    out = np.empty((T, n), np.uint8)
    step = max(1, _SETTLE_DRAWS // max(n, 1))
    loop = _fallback(theta, ell, T, n, step)
    if loop is not None:
        loop(theta, state0, ell, draw(0, T), out)
        return out
    for r in range(0, T, step):
        out[r : r + step] = _settle(theta, state0, ell, draw(r, min(step, T - r)))
    return out


def _fallback(theta, ell, T, n, step):
    # The path of a (T, n) batch settled in blocks of step rows, chosen
    # before any uniform is drawn: the fallback loop where it is cheaper
    # than settling, else None.  A settle costs a pass per draw of its
    # longest run, which _longest_run predicts from theta.
    draws = min(step, T) * n
    p = float(theta.max() - theta.min())
    longest = min(_longest_run(draws, p, ell), n)  # no run outlasts its row
    if T < _ROW_LOOP_ROWS:
        costly = _SETTLE_FIXED_DRAWS + longest * _SETTLE_PASS_DRAWS + draws * p / 2 > draws
        return _row_loop if costly else None
    costly = -(-T // step) * longest * _SETTLE_PASS_POSITIONS > n
    return _sample_loop if costly else None


def _longest_run(draws, p, ell):
    # The expected longest run among draws uniforms, each ambiguous with
    # probability p = max theta - min theta.  A run goes on past a draw
    # with probability q = 1 - (1 - p)**ell, so the draws hold about
    # N = draws * p * (1 - q) runs of geometric size, and the longest is
    # near log(N) / log(1/q) + 1 (the longest-run law: P. Erdos and
    # A. Renyi, "On a new law of large numbers", J. Analyse Math. 23,
    # 1970; M. F. Schilling, "The longest run of heads", College Math. J.
    # 21, 1990).  Under e runs the law fails (it falls under 1 draw below
    # one run) and the mean size 1 / (1 - q) stands in: theta U(.01, .99)
    # at ell 6 has p near 0.97 and 1 - q near 1e-9, so fewer than one run,
    # longer than any row, is expected.  Infinite at q = 1.
    if not p:
        return 0.0
    q = 1.0 - (1.0 - p) ** ell
    runs = draws * p * (1.0 - q)
    if runs >= math.e and q:
        return math.log(runs) / -math.log(q) + 1.0
    return 1.0 / (1.0 - q) if q < 1.0 else math.inf


def _row_loop(theta, state0, ell, u, out):
    # one row at a time in plain Python, into out
    mask = (1 << ell) - 1
    th = theta.tolist()
    for t in range(len(u)):
        s, row = int(state0), []
        for x in u[t].tolist():
            b = x < th[s]
            row.append(b)
            s = ((s << 1) | b) & mask
        out[t] = row


def _sample_loop(theta, state0, ell, u, out):
    # one position at a time over all rows, into out
    T, n = u.shape
    mask = (1 << ell) - 1
    s = np.full(T, state0, np.int64)
    for i in range(n):
        b = (u[:, i] < theta[s]).astype(np.uint8)
        out[:, i] = b
        s = ((s << 1) | b) & mask


def _settle(theta, state0, ell, u):
    # Exact pre-pass for a block of rows.  A draw u < min(theta) is a 1 and
    # one with u >= max(theta) a 0 in every state, so every bit is prefilled
    # with u < min(theta); only the ambiguous draws in between read their
    # state.  A run is a maximal sequence of ambiguous draws, each within
    # ell positions of the one before; each row starts with its ell past
    # columns, so no run crosses into the next row.  Pass k evaluates the
    # k-th draw of every run that has one: the ell bits before it are then
    # final (prefilled, the past, or earlier draws of its run), so each
    # draw is evaluated once and the block is the sequential result.  A
    # pass carries each run's state forward in a fixed number of steps, so
    # its cost does not grow with ell.
    T, n = u.shape
    lo, hi = theta.min(), theta.max()
    at = np.flatnonzero((u >= lo) & (u < hi))  # ambiguous draws in row-major order
    ext = np.empty((T, ell + n), np.uint8)  # per row: the past, oldest bit first, then the bits
    ext[:, :ell] = (state0 >> np.arange(ell - 1, -1, -1)) & 1
    np.less(u, lo, out=ext[:, ell:], casting="unsafe")
    if not at.size:
        return ext[:, ell:]
    pos = at + ell * (at // n + 1)  # and where they sit in ext
    gap = np.empty_like(pos)  # from the draw before; the first one starts a run
    gap[0] = ell + 1
    np.subtract(pos[1:], pos[:-1], out=gap[1:])
    first = np.flatnonzero(gap > ell)  # each run's first draw
    size = np.empty_like(first)  # and its draws
    np.subtract(first[1:], first[:-1], out=size[:-1])
    size[-1] = pos.size - first[-1]
    longest = int(size.max())
    flat = ext.reshape(-1)
    # each draw's state from the prefilled bits, where the ambiguous ones
    # read 0; the earlier draws of its run are or-ed in as they settle
    s = flat[pos - 1].astype(np.intp)
    for j in range(2, ell + 1):
        s |= flat[pos - j].astype(np.intp) << (j - 1)
    ua = np.take(u, at)
    gap -= 1
    mask = (1 << ell) - 1
    # runs by decreasing size, so the runs with a k-th draw lead
    first = first[np.argsort(-size)]
    alive = np.cumsum(np.bincount(size, minlength=longest + 1)[::-1])[::-1]
    bits = np.empty(pos.size, bool)
    carry = np.zeros(first.size, np.intp)  # per run: its last draw's state with that draw's bit shifted in
    for k in range(longest):
        i = first[: alive[k + 1]] + k
        si = s[i] | ((carry[: i.size] << gap[i]) & mask)
        b = ua[i] < theta[si]
        bits[i] = b
        carry = (si << 1) | b
    flat[pos] = bits
    return ext[:, ell:]


def _windows(ext, k, n):
    # the code of every k-bit window ext[..., i : i + k], i < n, its first bit
    # the most significant, in the narrowest unsigned type that holds k bits:
    # the first column cast, then one shifted view per further bit.  Codes
    # are doubled by adding them to themselves: numpy's << on uint8 and
    # uint16 runs element by element, the add is vectorized (numpy 2.4 on a
    # 2-core x86_64: 0.08 against 0.006 ms per 2**17 uint8 codes), and for
    # unsigned codes the two are the same integer
    code_type = np.uint8 if k <= 8 else np.uint16 if k <= 16 else np.uint32
    if not k:
        return np.zeros(ext.shape[:-1] + (n,), code_type)
    codes = ext[..., :n].astype(code_type)
    for j in range(1, k):
        np.add(codes, codes, out=codes)
        codes |= ext[..., j : j + n]
    return codes


def _count(bits, state0, depth):
    # shared by both public counting kernels, so neither traces as the other;
    # short contexts in large batches are counted from bit planes, the rest
    # by bincount (the rule and its measurement are at _PLANE_DEPTH)
    T, n = bits.shape
    if depth <= _PLANE_DEPTH and n >= _PLANE_ROW and T * n >= _PLANE_POSITIONS:
        return _count_planes(bits, state0, depth)
    return _count_codes(bits, state0, depth)


def _count_codes(bits, state0, depth):
    # Per row block, every position's code (context << 1) | bit is the
    # (depth + 1)-bit window of the past and the bits ending at it; one
    # bincount with an offset per row then counts the block
    T, n = bits.shape
    m2 = 2 << depth
    past = (int(state0) >> np.arange(depth - 1, -1, -1)) & 1
    occ = np.empty((T, m2 >> 1), np.int64)
    ones = np.empty((T, m2 >> 1), np.int64)
    step = max(1, _COUNT_POSITIONS // max(n, m2))
    for r in range(0, T, step):
        rows = min(step, T - r)
        ext = np.empty((rows, depth + n), np.uint8)
        ext[:, :depth] = past
        ext[:, depth:] = bits[r : r + rows]
        codes = _windows(ext, depth + 1, n) + np.arange(0, rows * m2, m2, dtype=np.intp)[:, None]
        table = np.bincount(codes.ravel(), minlength=rows * m2).reshape(rows, m2 >> 1, 2)
        np.add(table[:, :, 0], table[:, :, 1], out=occ[r : r + rows])
        ones[r : r + rows] = table[:, :, 1]
    return occ, ones


def _count_planes(bits, state0, depth):
    # Per row block, each row is packed 64 positions to a little-endian word
    # (position i at bit i % 64 of word i // 64), after one word that holds
    # the past as positions -depth .. -1, its top bits.  Plane j, bit i, is the
    # bit j positions before position i: the words shifted left by j, with
    # the top j bits of the word before carried in.  The context masks are
    # built level by level: level 0 is the positions of the row (the padding
    # of the last word excluded), and level j splits each mask by plane j,
    # the ones to masks[k:2k] and the zeros kept in masks[:k], so plane j
    # gives bit j - 1 of the mask's index and the oldest bit the top one, as
    # in a context code.  A mask's popcount is its context's occurrences and
    # that of the mask and plane 0 its ones.  The bytes past a row's packed
    # bits are never written: every mask excludes them, and no position of
    # the row reads a later one
    T, n = bits.shape
    m = 1 << depth
    words_per_row = -(-n // 64)
    valid = np.full(words_per_row, _M64, np.uint64)
    if n % 64:
        valid[-1] = (1 << (n % 64)) - 1
    past = sum(((int(state0) >> j) & 1) << (63 - j) for j in range(depth))
    occ = np.empty((T, m), np.int64)
    ones = np.empty((T, m), np.int64)
    step = max(1, min(T, _PLANE_WORDS // max(words_per_row, 1)))
    # one block's scratch, allocated once and viewed by every block: its
    # words, after the past, its masks, and one plane and its carry
    scratch_words = np.empty((step, words_per_row + 1), "<u8")
    scratch_words[:, 0] = past
    scratch_masks = np.empty((m, step, words_per_row), np.uint64)
    scratch_plane = np.empty((step, words_per_row), np.uint64)
    scratch_carry = np.empty_like(scratch_plane)
    for r in range(0, T, step):
        rows = min(step, T - r)
        words, masks = scratch_words[:rows], scratch_masks[:, :rows]
        plane, carry = scratch_plane[:rows], scratch_carry[:rows]
        packed = np.packbits(bits[r : r + rows], axis=1, bitorder="little")
        words.view(np.uint8)[:, 8 : 8 + packed.shape[1]] = packed
        now, before = words[:, 1:], words[:, :-1]
        masks[0] = valid
        for j in range(1, depth + 1):
            k = 1 << (j - 1)
            np.left_shift(now, np.uint64(j), out=plane)
            np.right_shift(before, np.uint64(64 - j), out=carry)
            plane |= carry
            np.bitwise_and(masks[:k], plane, out=masks[k : 2 * k])
            np.invert(plane, out=plane)
            masks[:k] &= plane
        occ[r : r + rows] = np.bitwise_count(masks).sum(axis=-1).T
        masks &= now
        ones[r : r + rows] = np.bitwise_count(masks).sum(axis=-1).T
    return occ, ones


def count_batch(bits: np.ndarray, state0: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial context counts (occurrences, ones) at the given depth."""
    return _count(bits, state0, depth)


def log2_prob_batch(lt1, lt0, state0: int, ell: int, bits: np.ndarray) -> np.ndarray:
    """Per-trial log2 probability given per-state log2 symbol weights,
    sum_s n_s1 lt1[s] + n_s0 lt0[s] over the depth-ell count table.

    The package counts and scores through count_batch instead.  This
    stays only because perfbench's warm-up calls it and its metrics name
    it; ROADMAP.md ("Delete what the system no longer needs") deletes it
    with the benchmark's next upkeep."""
    occ, ones = _count(bits, state0, ell)
    return _source_log2(occ, ones, lt1, lt0)


def _source_log2(occ, ones, lt1, lt0):
    # log2 probability of (trials, 2**ell) count tables under per-state weights
    return ones @ lt1 + (occ - ones) @ lt0


# ---------------------------------------------------------------------------
# exact enumerations over all 2**n sequences
# ---------------------------------------------------------------------------


def enum_source_log2(lt1, lt0, state0: int, ell: int, n: int) -> np.ndarray:
    """log2 probability of every length-n sequence, lexicographic order."""
    # prefix p of t bits is in state ((state0 << t) | p) & mask, which is
    # p & mask once t >= ell: the states of a level repeat with period
    # k = min(2**t, 2**ell).  Prefix p = q*k + r has the children 2p + b,
    # row (q, r, b) of the next level seen as (-1, k, 2), so each level adds
    # the k-state tables to acc seen as (-1, k) and writes both children's
    # columns in place; the first ell levels gather their k tables
    mask = (1 << ell) - 1
    acc = np.zeros(1)
    for t in range(n):
        k = min(1 << t, mask + 1)
        if t < ell:
            s = ((state0 << t) | np.arange(k)) & mask
            l1, l0 = lt1[s], lt0[s]
        else:
            l1, l0 = lt1, lt0
        rows = np.empty(2 << t).reshape(-1, k, 2)
        np.add(acc.reshape(-1, k), l0, out=rows[:, :, 0])
        np.add(acc.reshape(-1, k), l1, out=rows[:, :, 1])
        acc = rows.reshape(-1)
    return acc


def _np_walk_codes(depth, states, n, stride):
    # per-context packed counts occ*stride + ones of every length-n
    # continuation of each start state, walked one level at a time: prefix
    # p of level t has the child rows 2p (bit 0) and 2p+1 (bit 1), so each
    # start's rows stay in lexicographic order, one block per start in the
    # order given
    m = 1 << depth
    s = np.asarray(states, np.int64).reshape(-1)
    codes = np.zeros((s.size, m), np.int16)
    for _ in range(n):
        parent = np.repeat(s, 2)  # the context state of every child's parent
        bit = np.arange(parent.size, dtype=np.int64) & 1
        codes = np.repeat(codes, 2, axis=0)
        # one increment per row, so a plain indexed add is exact
        codes.reshape(-1)[np.arange(0, codes.size, m) + parent] += (bit + stride).astype(np.int16)
        s = ((parent << 1) | bit) & (m - 1)
    return codes


def _np_half_codes(depth, state0, n):
    # the first n//2 bits walked from the past, the rest from each state
    # those prefixes end in; packed with stride n + 1, sequence
    # a * 2**(n - n//2) + c has the codes prefix[a] + suffix[k, c] where
    # starts[k] == end[a].  The largest code, n*n + 2n, fits int16 for every
    # n under ENUMERATION_CAP
    h = n // 2
    prefix = _np_walk_codes(depth, [state0], h, n + 1)
    # prefix a ends in the state of the past followed by the h bits of a
    end = ((state0 << h) | np.arange(1 << h)) & ((1 << depth) - 1)
    starts = np.flatnonzero(np.bincount(end, minlength=1 << depth))
    suffix = _np_walk_codes(depth, starts, n - h, n + 1)
    return prefix, end, starts, suffix.reshape(starts.size, 1 << (n - h), 1 << depth)


def _distinct_rows(rows):
    # the distinct rows of a 2-D integer array in lexicographic order, and
    # the index of each row among them: np.unique(rows, axis=0,
    # return_inverse=True) without importing numpy.ma
    order = np.lexsort(rows.T[::-1])
    ordered = rows.take(order, axis=0)
    new = np.ones(len(rows), bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    index = np.empty(len(rows), np.intp)
    index[order] = np.cumsum(new) - 1
    return ordered.compress(new, axis=0), index


def _np_enum_sum(term, depth, state0, n):
    # term[code] summed over contexts for every sequence, in lexicographic
    # order.  Sequences that end their prefix in the same state share one
    # grid: it is evaluated once per distinct (prefix, suffix) pair of code
    # rows, each summed over the context axis as a whole-sequence row would
    # be, and scattered back to every sequence with that pair.  The output
    # is fresh on every call, so a caller may write to it
    plan = _enum_plan(depth, state0, n)  # first, so a refused shape allocates nothing
    out = np.empty((1 << (n // 2), 1 << (n - n // 2)))
    for rows, ua, ia, uc, ic in plan:
        # the indices are added in intp, which take uses without a
        # conversion pass
        grid = term.take(np.add(ua, uc, dtype=np.intp)).sum(axis=-1)
        out[rows] = grid.take(ic, axis=1)[ia]
    return out.reshape(-1)


# the enumeration plans kept, at most this many, the oldest dropped first;
# a plan is kept only while it is no larger than one result, 8 * 2**n bytes.
# Against 512 KB at n = 16 a plan takes 17 KB at depth 2 and 169 KB at
# depth 4, but 2.3 MB at depth 6, so deep shapes rebuild theirs every call
_ENUM_PLANS = 8
# the largest dense suffix code rows a plan may build; a larger shape is
# refused before anything is allocated (the walk's np.repeat briefly holds
# half as much again)
_ENUM_ROW_BYTES = 1 << 30
_enum_plans: dict = {}
_enum_plans_lock = threading.Lock()


def _enum_plan(depth, state0, n):
    # what _np_enum_sum needs of one (depth, state0, n) besides term, one
    # entry per start state of the suffixes: the sequences whose prefix
    # ends there (rows), their distinct prefix code rows (ua, as a column)
    # and each one's index among them (ia), the distinct suffix code rows
    # (uc) and each suffix's index among them (ic).  Codes stay int16; the
    # arrays are read-only, as a kept plan is shared by every later call
    key = (depth, state0, n)
    plan = _enum_plans.get(key)
    if plan is not None:
        return plan
    # the suffixes start from at most min(2**d, 2**h) states, and each of
    # their 2**(n-h) walks is an int16 row of 2**d contexts
    h = n // 2
    size = (min(1 << depth, 1 << h) << (n - h) << depth) * 2
    if size > _ENUM_ROW_BYTES:
        raise ValueError(
            f"exact enumeration at depth {depth} and n = {n} needs {size / 2**30:g} GiB of "
            f"count rows, over the {_ENUM_ROW_BYTES / 2**30:g} GiB limit"
        )
    prefix, end, starts, suffix = _np_half_codes(depth, state0, n)
    plan = []
    for s, rows_c in zip(starts, suffix):
        rows = np.flatnonzero(end == s)
        ua, ia = _distinct_rows(prefix.take(rows, axis=0))
        uc, ic = _distinct_rows(rows_c)
        entry = (rows, ua[:, None], ia, uc, ic)
        for part in entry:
            part.setflags(write=False)
        plan.append(entry)
    plan = tuple(plan)
    if sum(part.nbytes for entry in plan for part in entry) <= 8 << n:
        with _enum_plans_lock:
            _enum_plans[key] = plan
            if len(_enum_plans) > _ENUM_PLANS:
                del _enum_plans[next(iter(_enum_plans))]
    return plan


def _code_table(n):
    # the (occ, ones) pair of every code as ((n+1)**2, 1) columns, so the
    # closed forms give one context term per code (ones > occ never occurs)
    return np.divmod(np.arange((n + 1) ** 2, dtype=np.int64)[:, None], n + 1)


def _ml_log2(occ, ones):
    # maximized log2 likelihood summed over the last (context) axis, with
    # 0*log(0) = 0; integer counts feed log2 directly, no float64 copy, and
    # log2 runs in float64 whatever the width of the integers
    zeros = occ - ones
    safe_occ = np.where(occ > 0, occ, 1)
    safe_one = np.where(ones > 0, ones, 1)
    safe_zero = np.where(zeros > 0, zeros, 1)
    f8 = np.float64
    term = ones * (np.log2(safe_one, dtype=f8) - np.log2(safe_occ, dtype=f8))
    term += zeros * (np.log2(safe_zero, dtype=f8) - np.log2(safe_occ, dtype=f8))
    return term.sum(axis=-1)


def _kt_log2(occ, ones, gtab, htab):
    # add-half log2 probability summed over the last (context) axis
    return (gtab[ones] + gtab[occ - ones] - htab[occ]).sum(axis=-1)


# the per-code terms come from the same closed forms and are summed over
# the same context axis, so the gathered values equal a direct evaluation
def enum_ml_log2(depth: int, state0: int, n: int) -> np.ndarray:
    """Per-sequence maximized log2 probability over depth-d Markov models."""
    return _np_enum_sum(_ml_log2(*_code_table(n)), depth, state0, n)


def enum_kt_log2(depth: int, state0: int, n: int) -> np.ndarray:
    """Per-sequence add-half mixture log2 probability at the given depth."""
    gtab, htab = kt_tables(n)
    return _np_enum_sum(_kt_log2(*_code_table(n), gtab, htab), depth, state0, n)


# splitmix64's steps on uint64 arrays, for the unit uniforms the domination
# processes hash from their seeds
_SM1 = np.uint64(0x9E3779B97F4A7C15)
_SM2 = np.uint64(0xBF58476D1CE4E5B9)
_SM3 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV53 = 1.0 / float(1 << 53)
# processes walk in blocks of about this many path weights, so a batch of
# seeds costs few level passes (eight blocks of four processes at n = 12)
# and each of the block's five scratch arrays of that many 8-byte entries
# stays at 128 KB; blocks twice as large were a little faster but doubled
# the scratch memory
_DOMINATION_PATHS = 1 << 14
# the plans kept, one per n while 2**n <= _DOMINATION_PATHS: a plan takes
# 24 * 2**n bytes (96 KB at n = 12, 24 MB at n = 20), so the kept ones take
# at most 384 KB each and under 768 KB together; larger n rebuild theirs
# every call
_domination_plans: dict = {}


def _domination_plan(n):
    # what domination_dist needs of n besides the seeds: every history node's
    # heap index times _SM3, levels in turn, the nodes of level i at
    # 2**i .. 2**(i+1) - 1 in bit-reversed order (level i + 1 is 2h for every
    # node h of level i, then 2h + 1); the lexicographic index of the leaf at
    # each position of the last level, whose take puts the leaves back in
    # lexicographic order, as it is its own inverse; and the number of ones
    # of every sequence, lexicographic order.  The arrays are read-only, as a
    # kept plan is shared by every later call
    plan = _domination_plans.get(n)
    if plan is not None:
        return plan
    heap = np.zeros(2 << n, np.int64)
    heap[1] = 1
    for i in range(n):
        np.multiply(heap[1 << i : 2 << i], 2, out=heap[2 << i : 3 << i])
        np.add(heap[2 << i : 3 << i], 1, out=heap[3 << i : 4 << i])
    with np.errstate(over="ignore"):
        nodes = heap[: 1 << n].astype(np.uint64) * _SM3
    leaves = heap[1 << n :] - (1 << n)
    ones = np.zeros(1, np.int64)
    for i in range(n):
        ones = np.repeat(ones, 2) + (np.arange(2 << i) & 1)
    plan = (nodes, leaves, ones)
    for part in plan:
        part.setflags(write=False)
    if 1 << n <= _DOMINATION_PATHS:
        _domination_plans[n] = plan
    return plan


def domination_dist(n: int, q: float, seed, randomized: bool) -> np.ndarray:
    """Exact distribution of sum(X) for history-dependent binary processes.

    Conditionals are q exactly (randomized=False) or hashed per history
    node into [q, 1) (randomized=True); the path sum is exact over all
    2^n histories.  One int seed gives shape (n+1,); a 1-D sequence of
    seeds gives one row per seed, each equal to its single-seed result.
    """
    seeds = np.asarray(seed, dtype=np.uint64)
    single = seeds.ndim == 0
    seeds = seeds.reshape(-1)
    nodes, leaves, ones = _domination_plan(n)
    m = 1 << n
    step = max(1, _DOMINATION_PATHS >> n)
    rows = min(step, seeds.size)
    # per block of processes: two uint64 arrays that hash the nodes in place
    # and then, seen as float64, take the path weights of alternate levels;
    # the conditionals p0 = 1 - p1 and p1 of every node side by side, so a
    # level multiplies its weights by both at once and writes the bit-0
    # children, then the bit-1 children, as the next level's order has them;
    # and the offset bins of the bincount, the same for every block
    hashed = np.empty((2, rows << n), np.uint64)
    weights = hashed.view(np.float64)
    cond = np.empty((rows, 2, m))
    if not randomized:
        cond[:, 1] = q
        np.subtract(1.0, cond[:, 1], out=cond[:, 0])
    bins = (ones + (n + 1) * np.arange(rows)[:, None]).reshape(-1)
    out = np.empty((seeds.size, n + 1))
    for r in range(0, seeds.size, step):
        block = seeds[r : r + step]
        b = block.size
        p = cond[:b]
        if randomized:
            # u = (splitmix64(seed ^ node * _SM3) >> 11) / 2**53, each step
            # in place
            z, t = hashed[:, : b << n].reshape(2, b, m)
            np.bitwise_xor(block[:, None], nodes, out=z)
            with np.errstate(over="ignore"):
                z += _SM1
                for shift, mult in ((_S30, _SM2), (_S27, _SM3)):
                    np.right_shift(z, shift, out=t)
                    z ^= t
                    z *= mult
            np.right_shift(z, _S31, out=t)
            z ^= t
            z >>= _S11
            p1 = p[:, 1]
            # copyto casts without the 64 KB buffers a casting multiply takes
            np.copyto(p1, z, casting="unsafe")
            p1 *= _INV53
            p1 *= 1.0 - q  # q + (1 - q) * u, in that order
            p1 += q
            np.subtract(1.0, p1, out=p[:, 0])
        prob = np.ones((b, 1))
        for i in range(n):
            nxt = weights[i & 1, : b << (i + 1)].reshape(b, 2, 1 << i)
            np.multiply(prob[:, None, :], p[:, :, 1 << i : 2 << i], out=nxt)
            prob = nxt.reshape(b, 2 << i)
        lex = weights[n & 1, : b << n].reshape(b, m)
        np.take(prob, leaves, axis=1, out=lex, mode="clip")  # "raise" would buffer out
        # offset bins per row; bincount adds each row's paths in order
        out[r : r + b] = np.bincount(
            bins[: b << n], weights=lex.reshape(-1), minlength=b * (n + 1)
        ).reshape(b, n + 1)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# stopped fair walks
# ---------------------------------------------------------------------------


def azuma_failures(u: np.ndarray, gamma: float, kind: int) -> int:
    """Count trials whose stopped fair walk satisfies |S_tau| >= gamma*sqrt(tau).

    kind 0 stops at n, kind 1 at the first crossing of gamma*sqrt(k) and
    kind 2 at the first return to zero after ten steps (else at n).
    """
    T, n = u.shape
    # |S_k| <= k, so int8 steps and an int16 walk hold every n < 2**15
    steps = np.where(u < 0.5, np.int8(1), np.int8(-1))
    cs = np.cumsum(steps, axis=1, dtype=np.int16 if n < 1 << 15 else np.int64)
    k = np.arange(1, n + 1)
    if kind == 0:
        return int((np.abs(cs[:, -1]) >= gamma * math.sqrt(n)).sum())
    if kind == 1:
        return int((np.abs(cs) >= gamma * np.sqrt(k)).any(axis=1).sum())
    hit = (cs == 0) & (k >= 10)
    any_hit = hit.any(axis=1)
    first = np.where(any_hit, hit.argmax(axis=1), n - 1)
    tau = first + 1
    s_tau = cs[np.arange(T), first]
    return int((np.abs(s_tau) >= gamma * np.sqrt(tau)).sum())
