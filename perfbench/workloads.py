"""The benchmark's three workloads: what each item runs, and how its output is checked.

Every workload is a list of item kinds that the runner visits round-robin,
one client in a closed loop.  Item k runs kind ``k % len(kinds)`` in round
``r = k // len(kinds)``; all of its inputs derive from the run seed through
``child_seed(seed, label)`` with ``r`` in the label, so an item is the same
whatever the timing, and a traced pass can repeat an untraced one exactly.

Import this module only after ``run.import_mdelta()`` has put the
checkout's ``src`` on the path.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from mdelta import _kernels, child_seed, codec, coders, lemmas, redundancy, source
from mdelta.delta import DeltaSpec

EXP1 = DeltaSpec.parse("exp:1")
REFERENCES_PATH = Path(__file__).with_name("references.json")

CODEC_N = 4096
CODEC_POOL = 24
CODEC_CODERS = ("kt", "mixture", "source")
SHTARKOV_DEPTH, SHTARKOV_N = 2, 16
AVG_MEMORY, AVG_DEPTH, AVG_N = 4, 2, 16
# The exact-average sources come from a fixed pool so that each value can
# be recorded once (references.json); the run seed picks which members
# are checked and in what order.  Each item still builds its source.
AVG_POOL_ROOT, AVG_POOL = 0, 64
MC_TRIALS = 48


@functools.cache
def references() -> dict:
    """Exact-oracle values recorded by record_references.py."""
    return json.loads(REFERENCES_PATH.read_text())


@dataclass(frozen=True)
class Kind:
    """One kind of item.

    ``run(r)`` is the timed operation a user would perform.  ``check(r, out)``
    judges its output untimed and returns ``(ok, digest, work)``: ``digest``
    repeats exactly for the same item, ``work`` holds the counts that the
    throughput metrics sum.
    """

    name: str
    run: Callable[[int], Any]
    check: Callable[[int, Any], tuple[bool, Any, dict]]


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


def codec_pool(seed: int, size: int = CODEC_POOL) -> list[tuple[source.MarkovSource, np.ndarray]]:
    """Pre-sampled n=4096 sequences, each from its own memory-6 exp:1 source."""
    past = "0" * 6
    pool = []
    for i in range(size):
        src = source.random_continuity_source(6, EXP1, seed=child_seed(seed, f"codec-src{i}"))
        pool.append((src, src.sample(past, CODEC_N, seed=child_seed(seed, f"codec-x{i}"))))
    return pool


def make_coder(name: str, src: source.MarkovSource) -> coders.SequentialCoder:
    past = "0" * src.memory
    if name == "kt":
        return coders.KTCoder(4, past)
    if name == "mixture":
        return coders.MixtureCoder(4, past, horizon=CODEC_N)
    if name == "source":
        return coders.SourceCoder(src, past)
    raise ValueError(f"unknown coder {name!r}")


def codec_kind(pool, coder: str, decoder: str | None = None) -> Kind:
    """Encode, pack, unpack and decode ``pool[r % len(pool)]``.

    ``decoder`` names a different coder for the decode side; the check then
    fails, which is how the smoke test injects a silently wrong decode.
    """
    ideal: dict[int, float] = {}

    def run(r):
        src, x = pool[r % len(pool)]
        enc = make_coder(coder, src)
        dec = make_coder(decoder or coder, src)
        t0 = time.perf_counter()
        code = codec.encode(enc, x)
        data = codec.pack_stream(code, enc.depth, len(x))
        t1 = time.perf_counter()
        code_bits, _, n = codec.unpack_stream(data)
        y = codec.decode(dec, code_bits, n)
        t2 = time.perf_counter()
        return len(code), data, y, t1 - t0, t2 - t1

    def check(r, out):
        code_len, data, y, enc_s, dec_s = out
        i = r % len(pool)
        src, x = pool[i]
        if i not in ideal:
            ideal[i] = -make_coder(coder, src).log2_prob(x)
        ok = bool(np.array_equal(y, x)) and code_len <= math.ceil(ideal[i]) + 2
        work = {"bits": len(x), "encode_s": enc_s, "decode_s": dec_s, "overhead_bits": code_len - ideal[i]}
        return ok, (data, y.tobytes()), work

    name = coder if decoder is None else f"{coder}-decoded-as-{decoder}"
    return Kind(f"codec-{name}", run, check)


def codec_kinds(seed: int) -> list[Kind]:
    """codec: each item round-trips one pre-sampled sequence through the codec.

    Chosen because nearly all time goes to the coders' per-bit
    prob_one/push and the integer range-coder loop while the kernels sit
    idle.  Encode and decode are timed apart, so a gain on one side cannot
    hide a loss on the other.  The sequences are built in set-up: a user
    encodes data they already have.
    """
    pool = codec_pool(seed)
    return [codec_kind(pool, name) for name in CODEC_CODERS]


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def avg_pool_source(i: int) -> source.MarkovSource:
    return source.random_continuity_source(AVG_MEMORY, EXP1, seed=child_seed(AVG_POOL_ROOT, f"avg-src{i}"))


def exact_avg_value(i: int) -> float:
    past = "0" * AVG_MEMORY
    coder = coders.KTCoder(AVG_DEPTH, past)
    return redundancy.exact_avg_redundancy(avg_pool_source(i), past, coder, AVG_N)


def _trunc_chain_kind(seed: int, tag: str) -> Kind:
    def run(r):
        src = source.random_continuity_source(6, EXP1, seed=child_seed(seed, f"exact-tc{tag}{r}-src"))
        past = "0" * 6
        x = src.sample(past, 4096, seed=child_seed(seed, f"exact-tc{tag}{r}-x"))
        return lemmas.verify_truncation(src, past, 3, x, EXP1), lemmas.verify_chaining(src, past, 3, x, EXP1)

    def check(r, out):
        t, c = out
        return t.ok and c.ok, (t.margin, t.margin_vs_ml, c.margin, c.allowance), {"verdicts": 2}

    return Kind(f"exact-truncation-chaining{tag}", run, check)


def exact_kinds(seed: int) -> list[Kind]:
    """exact: the exact oracles, each on inputs drawn fresh in the item.

    Chosen because every kernel call here is single-row (T=1) or an
    enumeration over 2^n rows, the shapes the counting and sampling
    rewrites target, with no batched rows and no codec work.  Users pay
    for drawing a fresh source per check, so that stays inside the item.
    Truncation and chaining, the single-row case, run twice per round;
    that also puts the median and the 90th percentile of item time inside
    one kind's range instead of on the edge between two.
    """

    def shtarkov(r):
        past = format(child_seed(seed, f"exact-sh{r}") % (1 << SHTARKOV_DEPTH), f"0{SHTARKOV_DEPTH}b")
        return past, coders.shtarkov_sum(SHTARKOV_DEPTH, past, SHTARKOV_N)

    def shtarkov_check(r, out):
        past, res = out
        ok = abs(res.log2_sum - references()["shtarkov"][past]) <= lemmas.EXACT_TOL_SUM
        return ok, res.log2_sum, {"verdicts": 1}

    def exact_avg(r):
        i = child_seed(seed, f"exact-avg{r}") % AVG_POOL
        return i, exact_avg_value(i)

    def exact_avg_check(r, out):
        i, value = out
        return abs(value - references()["exact_avg"][i]) <= lemmas.EXACT_TOL_LOG, value, {"verdicts": 1}

    def domination(r):
        q = (0.1, 0.3, 0.5)[r % 3]
        return lemmas.verify_domination(n=12, q=q, processes=32, seed=child_seed(seed, f"exact-dom{r}"))

    def domination_check(r, rep):
        ok = rep.verdict and rep.extras["equality_gap"] <= lemmas.EXACT_TOL_SUM
        return ok, (rep.empirical, rep.failures), {"verdicts": 1}

    return [
        _trunc_chain_kind(seed, "a"),
        Kind("exact-shtarkov", shtarkov, shtarkov_check),
        Kind("exact-avg-redundancy", exact_avg, exact_avg_check),
        _trunc_chain_kind(seed, "b"),
        Kind("exact-domination", domination, domination_check),
    ]


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def _mc_avg_kind(seed: int, n: int, tag: str = "") -> Kind:
    def run(r):
        choice = redundancy.optimal_ell(n, EXP1, "refined")
        ell = choice.scanned
        past = "0" * ell
        src = source.random_hypercube_source(ell, EXP1(ell), seed=child_seed(seed, f"mc-n{n}{tag}-{r}-src"))
        coder = coders.MixtureCoder(ell, past, horizon=n)
        est = redundancy.mc_avg_redundancy(
            src, past, coder, n, MC_TRIALS, seed=child_seed(seed, f"mc-n{n}{tag}-{r}-trials")
        )
        return choice.scanned_value, est

    def check(r, out):
        bound, est = out
        return est.mean <= bound + 5.0 * est.se, (est.mean, est.se), {"mc_bits": est.trials * n}

    return Kind(f"mc-redundancy-n{n}{tag}", run, check)


def _harness_kind(seed: int, harness: str, **kwargs) -> Kind:
    def run(r):
        return getattr(lemmas, harness)(seed=child_seed(seed, f"mc-{harness}-{r}"), **kwargs)

    def check(r, rep):
        work = {"mc_bits": rep.trials * rep.params["n"]}
        return rep.verdict, (rep.empirical, rep.slack, rep.failures), work

    return Kind(f"mc-{harness}", run, check)


def mc_kinds(seed: int) -> list[Kind]:
    """mc: Monte Carlo redundancy estimates and the MC lemma harnesses.

    Chosen because every kernel row is batched (T=48 to 2048): a change
    that helps only single-row calls, or picks a sampler for the wrong
    batch size, must show no gain here or a loss.  The redundancy items
    take the shape of acceptance criterion 9 and ``mdelta experiment``;
    the largest n runs twice per round, which also keeps the median and the
    90th percentile of item time off the edge between two kinds.
    """
    return [
        _mc_avg_kind(seed, 2**10),
        _harness_kind(seed, "verify_state_count", ell=2, delta_at=1 / 16, n=2**14, trials=64),
        _mc_avg_kind(seed, 2**14, "a"),
        _mc_avg_kind(seed, 2**12),
        _harness_kind(seed, "estimate_inv_ns", ell=3, delta_at=1 / 16, n=2**12, trials=256),
        _mc_avg_kind(seed, 2**14, "b"),
        _harness_kind(seed, "verify_mse", ell=2, delta_at=1 / 16, n=2**12, trials=256),
        _harness_kind(seed, "verify_deviation", ell=2, n=2**12, trials=256, delta=EXP1),
        _harness_kind(seed, "verify_azuma_stopped", n=100, gamma=5.0, trials=2048, kind="first-passage"),
    ]


WORKLOADS = {"codec": codec_kinds, "exact": exact_kinds, "mc": mc_kinds}

# largest sequence length each workload feeds the add-half tables
KT_TABLE_N = {"codec": CODEC_N, "exact": 4096, "mc": 2**14}


def warm_up(workload: str) -> None:
    """Grow the add-half tables and touch every kernel once, as the
    acceptance suite's ``warm_kernels`` fixture does."""
    _kernels.kt_tables(KT_TABLE_N[workload])
    theta = np.array([0.4, 0.6])
    u = np.random.default_rng(0).random((2, 8))
    bits = _kernels.sample_batch(theta, 0, 1, u)
    _kernels.count_batch(bits, 0, 1)
    _kernels.log2_prob_batch(np.log2(theta), np.log2(1 - theta), 0, 1, bits)
    _kernels.enum_source_log2(np.log2(theta), np.log2(1 - theta), 0, 1, 4)
    _kernels.enum_ml_log2(1, 0, 4)
    _kernels.enum_kt_log2(1, 0, 4)
    _kernels.domination_dist(4, 0.3, 1, True)
    _kernels.domination_dist(4, 0.3, 1, False)
    _kernels.azuma_failures(u, 1.0, 1)
