"""Hot numeric kernels: numba JIT with pure-numpy fallbacks.

The backend is picked at import time from the MDELTA_BACKEND environment
variable (``auto`` | ``numba`` | ``numpy``) and can be switched at runtime
with :func:`set_backend`; the benchmark script uses that to time both
paths on identical inputs.

Conventions shared by every kernel:

* A depth-d context is encoded as the integer whose bit j holds the bit
  emitted j+1 steps earlier (most recent bit = least significant bit).
  "w is a suffix of s" then reads ``code(s) & (2**|w| - 1) == code(w)``
  and rolling a context forward is ``((s << 1) | b) & (2**d - 1)``.
* The numpy backend counts through a state array, the context code
  before every position: ``depth`` shifted views of the bits, the past
  filling the first ``depth`` columns, then one integer ``bincount``.
* ``log2_prob_batch`` is derived from the count table on every backend,
  so it differs from a sequential chain-rule sum by rounding only (about
  1e-9 at n = 65536).  The other kernels stay per-backend.
* Enumeration kernels index the 2**n binary sequences by the integer
  whose most significant bit is the first symbol, so results are in
  lexicographic sequence order.  The numpy enumerations and path sums
  walk the prefix tree one level at a time, so level t touches 2**t
  rows, and add each position's term in sequence order.
* The numpy sampler runs small batches row by row in plain Python and
  loops over positions, all rows at once, for larger ones.
* All randomness enters as pre-drawn uniforms (or an explicit 64-bit
  seed for the hash-derived process generator), which keeps the two
  backends bit-for-bit interchangeable on integer outputs.
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via MDELTA_BACKEND=numpy
    HAVE_NUMBA = False

__all__ = [
    "HAVE_NUMBA",
    "active_backend",
    "available_backends",
    "set_backend",
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


def splitmix64(x: int) -> int:
    """One splitmix64 step: map any 64-bit int to a well-mixed 64-bit int."""
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def child_seed(root: int, label: str) -> int:
    """Derive a task seed from a 64-bit root seed and a task label.

    root XOR fnv1a64(label), then splitmix64.  Used for all seed
    splitting so that independent tasks never share a stream.
    """
    h = 0xCBF29CE484222325
    for byte in label.encode():
        h = ((h ^ byte) * 0x100000001B3) & _M64
    return splitmix64((root & _M64) ^ h)


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
# splitmix-derived unit uniforms (shared by both backends)
# ---------------------------------------------------------------------------

_SM1 = np.uint64(0x9E3779B97F4A7C15)
_SM2 = np.uint64(0xBF58476D1CE4E5B9)
_SM3 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV53 = 1.0 / float(1 << 53)


def _py_mix_unit(z):
    z = z + _SM1
    z = (z ^ (z >> _S30)) * _SM2
    z = (z ^ (z >> _S27)) * _SM3
    z = z ^ (z >> _S31)
    return float(z >> _S11) * _INV53


def _np_mix_unit(z):
    with np.errstate(over="ignore"):
        z = z + _SM1
        z = (z ^ (z >> _S30)) * _SM2
        z = (z ^ (z >> _S27)) * _SM3
        z = z ^ (z >> _S31)
    return (z >> _S11).astype(np.float64) * _INV53


# ---------------------------------------------------------------------------
# kernel bodies: plain loops (JIT-compiled) and vectorized fallbacks
# ---------------------------------------------------------------------------


def _py_sample_batch(theta, state0, ell, u):
    T, n = u.shape
    mask = (1 << ell) - 1 if ell > 0 else 0
    out = np.empty((T, n), np.uint8)
    for t in range(T):
        s = state0
        for i in range(n):
            b = 1 if u[t, i] < theta[s] else 0
            out[t, i] = b
            s = ((s << 1) | b) & mask
    return out


# fewer rows than this run one by one in plain Python, which beats the loop
# over positions below about 37 rows whatever n and ell (see CHANGES.md)
_ROW_LOOP_ROWS = 36


def _np_sample_batch(theta, state0, ell, u):
    T, n = u.shape
    mask = (1 << ell) - 1 if ell > 0 else 0
    out = np.empty((T, n), np.uint8)
    if T < _ROW_LOOP_ROWS:
        th = theta.tolist()
        for t in range(T):
            s, row = int(state0), []
            for x in u[t].tolist():
                b = x < th[s]
                row.append(b)
                s = ((s << 1) | b) & mask
            out[t] = row
        return out
    s = np.full(T, state0, np.int64)
    for i in range(n):
        b = (u[:, i] < theta[s]).astype(np.uint8)
        out[:, i] = b
        s = ((s << 1) | b) & mask
    return out


def _py_count_batch(bits, state0, depth):
    T, n = bits.shape
    m = 1 << depth
    mask = m - 1 if depth > 0 else 0
    occ = np.zeros((T, m), np.int64)
    ones = np.zeros((T, m), np.int64)
    for t in range(T):
        s = state0
        for i in range(n):
            b = bits[t, i]
            occ[t, s] += 1
            ones[t, s] += b
            s = ((s << 1) | b) & mask
    return occ, ones


def _np_states(bits, state0, depth):
    T, n = bits.shape
    states = np.zeros((T, n), np.int64)
    if depth == 0:
        return states
    past = (int(state0) >> np.arange(depth - 1, -1, -1)) & 1
    ext = np.concatenate((np.broadcast_to(past.astype(np.uint8), (T, depth)), bits), axis=1)
    for k in range(depth):  # oldest lag first, one shifted view each
        states <<= 1
        states |= ext[:, k : k + n]
    return states


def _np_count_batch(bits, state0, depth):
    T, n = bits.shape
    m2 = 2 << depth
    flat = _np_states(bits, state0, depth)
    flat <<= 1
    flat |= bits
    flat += np.arange(0, T * m2, m2, dtype=np.int64)[:, None]
    table = np.bincount(flat.ravel(), minlength=T * m2).reshape(T, m2 >> 1, 2)
    ones = np.ascontiguousarray(table[:, :, 1], dtype=np.int64)
    return table.sum(axis=2, dtype=np.int64), ones


def _py_enum_source_log2(lt1, lt0, state0, ell, n):
    N = 1 << n
    mask = (1 << ell) - 1 if ell > 0 else 0
    out = np.empty(N)
    for x in range(N):
        s = state0
        acc = 0.0
        for i in range(n):
            b = (x >> (n - 1 - i)) & 1
            acc += lt1[s] if b else lt0[s]
            s = ((s << 1) | b) & mask
        out[x] = acc
    return out


def _np_levels(state0, depth, n):
    # walk the prefix tree one level at a time: prefix p of level t has the
    # child rows 2p (bit 0) and 2p+1 (bit 1), so rows stay in lexicographic
    # order; yields the parent's context state and the bit of every child
    mask = (1 << depth) - 1
    s = np.full(1, state0, np.int64)
    for t in range(n):
        parent, bit = np.repeat(s, 2), np.arange(2 << t, dtype=np.int64) & 1
        yield parent, bit
        s = ((parent << 1) | bit) & mask


def _np_enum_source_log2(lt1, lt0, state0, ell, n):
    acc = np.zeros(1)
    for parent, bit in _np_levels(state0, ell, n):
        acc = np.repeat(acc, 2) + np.where(bit == 1, lt1[parent], lt0[parent])
    return acc


def _py_enum_ml_log2(depth, state0, n):
    N = 1 << n
    m = 1 << depth
    mask = m - 1 if depth > 0 else 0
    out = np.empty(N)
    occ = np.zeros(m, np.int64)
    ones = np.zeros(m, np.int64)
    for x in range(N):
        for j in range(m):
            occ[j] = 0
            ones[j] = 0
        s = state0
        for i in range(n):
            b = (x >> (n - 1 - i)) & 1
            occ[s] += 1
            ones[s] += b
            s = ((s << 1) | b) & mask
        acc = 0.0
        for j in range(m):
            nw = occ[j]
            if nw > 0:
                a = ones[j]
                c = nw - a
                if a > 0:
                    acc += a * (math.log2(a) - math.log2(nw))
                if c > 0:
                    acc += c * (math.log2(c) - math.log2(nw))
        out[x] = acc
    return out


def _py_enum_kt_log2(depth, state0, n, gtab, htab):
    N = 1 << n
    m = 1 << depth
    mask = m - 1 if depth > 0 else 0
    out = np.empty(N)
    occ = np.zeros(m, np.int64)
    ones = np.zeros(m, np.int64)
    for x in range(N):
        for j in range(m):
            occ[j] = 0
            ones[j] = 0
        s = state0
        for i in range(n):
            b = (x >> (n - 1 - i)) & 1
            occ[s] += 1
            ones[s] += b
            s = ((s << 1) | b) & mask
        acc = 0.0
        for j in range(m):
            if occ[j] > 0:
                a = ones[j]
                acc += gtab[a] + gtab[occ[j] - a] - htab[occ[j]]
        out[x] = acc
    return out


def _np_enum_codes(depth, state0, n):
    # per-sequence, per-context packed counts occ*(n+1) + ones; the largest
    # code, n*n + 2n, fits int16 for every n under ENUMERATION_CAP
    m = 1 << depth
    codes = np.zeros((1, m), np.int16)
    for parent, bit in _np_levels(state0, depth, n):
        codes = np.repeat(codes, 2, axis=0)
        # one increment per row, so a plain indexed add is exact
        codes.reshape(-1)[np.arange(0, codes.size, m) + parent] += (bit + (n + 1)).astype(np.int16)
    return codes


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
def _np_enum_ml_log2(depth, state0, n):
    return _ml_log2(*_code_table(n))[_np_enum_codes(depth, state0, n)].sum(axis=-1)


def _np_enum_kt_log2(depth, state0, n, gtab, htab):
    return _kt_log2(*_code_table(n), gtab, htab)[_np_enum_codes(depth, state0, n)].sum(axis=-1)


def _py_domination_dist(n, q, seed, randomized):
    # exact distribution of the number of ones over all 2^n paths of a
    # history-dependent process; conditionals hashed per history node
    dist = np.zeros(n + 1)
    N = 1 << n
    for x in range(N):
        prob = 1.0
        ones = 0
        node = 1  # heap index of the current history node
        for i in range(n):
            b = (x >> (n - 1 - i)) & 1
            if randomized:
                u = _py_mix_unit(seed ^ (np.uint64(node) * _SM3))
                p1 = q + (1.0 - q) * u
            else:
                p1 = q
            prob *= p1 if b else (1.0 - p1)
            ones += b
            node = node * 2 + b
        dist[ones] += prob
    return dist


def _np_domination_dist(n, q, seed, randomized):
    # every history node (heap index 1 .. 2**n - 1) is hashed once; node c
    # extends node c >> 1 by the bit c & 1 with factor fac[c], and rows 2p,
    # 2p+1 of each level extend prefix p, so level i reads fac[2**(i+1):]
    if randomized:
        with np.errstate(over="ignore"):
            u = _np_mix_unit(seed ^ (np.arange(1 << n, dtype=np.uint64) * _SM3))
        p1 = q + (1.0 - q) * u
    else:
        p1 = np.full(1 << n, q)
    fac = np.stack((1.0 - p1, p1), axis=1).ravel()
    prob = np.ones(1)
    ones = np.zeros(1, np.int64)
    for i in range(n):
        prob = np.repeat(prob, 2) * fac[2 << i : 4 << i]
        ones = np.repeat(ones, 2) + (np.arange(2 << i) & 1)
    return np.bincount(ones, weights=prob, minlength=n + 1)


def _py_azuma_failures(u, gamma, kind):
    # kind: 0 fixed horizon, 1 first passage over gamma*sqrt(k), 2 zero return
    T, n = u.shape
    fails = 0
    for t in range(T):
        s = 0
        if kind == 0:
            for i in range(n):
                s += 1 if u[t, i] < 0.5 else -1
            if abs(s) >= gamma * math.sqrt(n):
                fails += 1
        elif kind == 1:
            for i in range(n):
                s += 1 if u[t, i] < 0.5 else -1
                if abs(s) >= gamma * math.sqrt(i + 1.0):
                    fails += 1
                    break
        else:
            tau = n
            for i in range(n):
                s += 1 if u[t, i] < 0.5 else -1
                if i + 1 >= 10 and s == 0:
                    tau = i + 1
                    break
            if abs(s) >= gamma * math.sqrt(tau):
                fails += 1
    return fails


def _np_azuma_failures(u, gamma, kind):
    T, n = u.shape
    steps = np.where(u < 0.5, 1, -1)
    cs = np.cumsum(steps, axis=1)
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


# ---------------------------------------------------------------------------
# backend registry
# ---------------------------------------------------------------------------

_NUMPY_IMPL = {
    "sample_batch": _np_sample_batch,
    "count_batch": _np_count_batch,
    "enum_source_log2": _np_enum_source_log2,
    "enum_ml_log2": _np_enum_ml_log2,
    "enum_kt_log2": _np_enum_kt_log2,
    "domination_dist": _np_domination_dist,
    "azuma_failures": _np_azuma_failures,
}

_BACKENDS: dict[str, dict] = {"numpy": _NUMPY_IMPL}

if HAVE_NUMBA:
    _jit = njit(cache=True, nogil=True)
    _nb_mix_unit = _jit(_py_mix_unit)

    def _py_domination_dist_nb(n, q, seed, randomized):
        dist = np.zeros(n + 1)
        N = 1 << n
        for x in range(N):
            prob = 1.0
            ones = 0
            node = np.uint64(1)
            for i in range(n):
                b = (x >> (n - 1 - i)) & 1
                if randomized:
                    u = _nb_mix_unit(seed ^ (node * _SM3))
                    p1 = q + (1.0 - q) * u
                else:
                    p1 = q
                prob = prob * p1 if b else prob * (1.0 - p1)
                ones += b
                node = node * np.uint64(2) + np.uint64(b)
            dist[ones] += prob
        return dist

    _BACKENDS["numba"] = {
        "sample_batch": _jit(_py_sample_batch),
        "count_batch": _jit(_py_count_batch),
        "enum_source_log2": _jit(_py_enum_source_log2),
        "enum_ml_log2": _jit(_py_enum_ml_log2),
        "enum_kt_log2": _jit(_py_enum_kt_log2),
        "domination_dist": _jit(_py_domination_dist_nb),
        "azuma_failures": _jit(_py_azuma_failures),
    }


def _resolve(name: str) -> str:
    if name == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r} (use auto, numba or numpy)")
    if name == "numba" and not HAVE_NUMBA:
        raise RuntimeError("MDELTA_BACKEND=numba but numba is not importable")
    return name


_ACTIVE = _resolve(os.environ.get("MDELTA_BACKEND", "auto").lower())


def active_backend() -> str:
    """Name of the backend currently serving the kernels."""
    return _ACTIVE


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def set_backend(name: str) -> str:
    """Switch kernel backend at runtime; returns the resolved name."""
    global _ACTIVE
    _ACTIVE = _resolve(name.lower())
    return _ACTIVE


# ---------------------------------------------------------------------------
# public dispatchers
# ---------------------------------------------------------------------------


def sample_batch(theta: np.ndarray, state0: int, ell: int, u: np.ndarray) -> np.ndarray:
    """Markov-sample a (trials, n) batch of bits from pre-drawn uniforms.

    theta[s] is the probability of a 1 in state s; state0 encodes the
    past.  Bit-identical across backends.
    """
    return _BACKENDS[_ACTIVE]["sample_batch"](theta, state0, ell, u)


def _count(bits, state0, depth):
    # shared by both public dispatchers, so neither traces as the other
    return _BACKENDS[_ACTIVE]["count_batch"](np.ascontiguousarray(bits), state0, depth)


def count_batch(bits: np.ndarray, state0: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial context counts (occurrences, ones) at the given depth."""
    return _count(bits, state0, depth)


def log2_prob_batch(lt1, lt0, state0: int, ell: int, bits: np.ndarray) -> np.ndarray:
    """Per-trial log2 probability given per-state log2 symbol weights,
    sum_s n_s1 lt1[s] + n_s0 lt0[s] over the depth-ell count table."""
    occ, ones = _count(bits, state0, ell)
    return ones @ lt1 + (occ - ones) @ lt0


def enum_source_log2(lt1, lt0, state0: int, ell: int, n: int) -> np.ndarray:
    """log2 probability of every length-n sequence, lexicographic order."""
    return _BACKENDS[_ACTIVE]["enum_source_log2"](lt1, lt0, state0, ell, n)


def enum_ml_log2(depth: int, state0: int, n: int) -> np.ndarray:
    """Per-sequence maximized log2 probability over depth-d Markov models."""
    return _BACKENDS[_ACTIVE]["enum_ml_log2"](depth, state0, n)


def enum_kt_log2(depth: int, state0: int, n: int) -> np.ndarray:
    """Per-sequence add-half mixture log2 probability at the given depth."""
    gtab, htab = kt_tables(n)
    return _BACKENDS[_ACTIVE]["enum_kt_log2"](depth, state0, n, gtab, htab)


def domination_dist(n: int, q: float, seed: int, randomized: bool) -> np.ndarray:
    """Exact distribution of sum(X) for a history-dependent binary process.

    Conditionals are q exactly (randomized=False) or hashed per history
    node into [q, 1) (randomized=True); the path sum is exact over all
    2^n histories.
    """
    return _BACKENDS[_ACTIVE]["domination_dist"](n, q, np.uint64(seed), randomized)


def azuma_failures(u: np.ndarray, gamma: float, kind: int) -> int:
    """Count trials whose stopped fair walk satisfies |S_tau| >= gamma*sqrt(tau)."""
    return int(_BACKENDS[_ACTIVE]["azuma_failures"](u, gamma, kind))
