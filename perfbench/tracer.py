"""Outside-in tracing of the mdelta layers, for the benchmark's traced run.

The program records no spans of its own yet, so the benchmark wraps the
public functions of each layer module (``_kernels``, ``source``,
``coders``, ``codec``, ``redundancy``, ``lemmas``) from outside.  Every
name that holds such a function is rebound, including names a module
imported from another (``lemmas.random_continuity_source`` is the same
function as ``source.random_continuity_source`` and is called through the
``lemmas`` binding).  Coders' per-bit ``prob_one``/``push`` get exact call
counters only; a span per bit would time the tracer, so their time comes
from an untraced replay over the same bits (:func:`replay_ns_per_bit`).

A span is ``[name, start_ns, end_ns, parent, item, work]``: ``parent`` is
the index of the enclosing span (-1 at the top), ``item`` the benchmark
item it belongs to, ``work`` the units it processed (rows, bits,
sequences, paths, steps or trials) where the layer has them.  Spans stay
in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path

LAYERS = {"kernels": "_kernels", "source": "source", "coders": "coders",
          "codec": "codec", "redundancy": "redundancy", "lemmas": "lemmas"}
# classes whose public methods are layer entry points
CLASSES = {"source": ("MarkovSource",),
           "coders": ("SequentialCoder", "KTCoder", "MixtureCoder", "SourceCoder", "NMLCoder")}
# Helpers called per leaf, seed, bit string or coder reset: a span around
# them would cost more than the work it times and marks no layer boundary.
SKIP = {"splitmix64", "child_seed", "active_backend", "available_backends", "set_backend",
        "as_bits", "bits_to_str", "state_code", "theta", "reset", "probs"}
PER_BIT = ("prob_one", "push")
CODER_KEYS = {"KTCoder": "kt", "MixtureCoder": "mixture", "SourceCoder": "source"}


def _rows_bits(a):
    return {"rows": int(a.shape[0]), "bits": int(a.size)}


# units of work per span, from the call's bound arguments and its result
WORK = {
    "kernels.sample_batch": lambda a, r: _rows_bits(a["u"]),
    "kernels.count_batch": lambda a, r: _rows_bits(a["bits"]),
    "kernels.log2_prob_batch": lambda a, r: _rows_bits(a["bits"]),
    "kernels.enum_source_log2": lambda a, r: {"sequences": 1 << a["n"]},
    "kernels.enum_ml_log2": lambda a, r: {"sequences": 1 << a["n"]},
    "kernels.enum_kt_log2": lambda a, r: {"sequences": 1 << a["n"]},
    "kernels.domination_dist": lambda a, r: {"paths": 1 << a["n"]},
    "kernels.azuma_failures": lambda a, r: {"steps": int(a["u"].size)},
    "codec.encode": lambda a, r: {"bits": len(a["x"])},
    "codec.decode": lambda a, r: {"bits": int(a["n"])},
    "redundancy.mc_avg_redundancy": lambda a, r: {"trials": r.trials},
    "redundancy.exact_avg_redundancy": lambda a, r: {"trials": 1 << a["n"]},
}


def lemma_work(args, result):
    # harness reports carry their trial count; the per-sample checks count one
    return {"trials": getattr(result, "trials", 1)}


class Tracer:
    """Installs the wrappers on enter and restores every binding on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        import mdelta

        modules = {layer: importlib.import_module(f"mdelta.{m}") for layer, m in LAYERS.items()}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and _public(name):
                    wrappers[id(obj)] = self._span(f"{layer}.{name}", obj)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for name, obj in list(vars(cls).items()):
                    if not (inspect.isfunction(obj) and _public(name)):
                        continue
                    if name in PER_BIT:
                        key = f"coders.{CODER_KEYS.get(cls_name, cls_name.lower())}.{name}"
                        self._patch(cls, name, self._counter(key, obj))
                    else:
                        self._patch(cls, name, self._span(f"{layer}.{cls_name}.{name}", obj))
        for mod in [*modules.values(), mdelta]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, name, wrappers[id(obj)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _span(self, name, fn):
        work = WORK.get(name, lemma_work if name.startswith("lemmas.") else None)
        sig = inspect.signature(fn) if work else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work:
                rec[5] = work(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def run_item(self, k: int, fn, *args):
        """Run one benchmark item under a root span named ``item``."""
        self.item = k
        return self._span("item", fn)(*args)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "item", "work")
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
            fh.write(json.dumps({"counters": dict(self.counts)}) + "\n")


def _public(name: str) -> bool:
    return not name.startswith("_") and name not in SKIP


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

ROW_KERNELS = ("sample_batch", "count_batch", "log2_prob_batch")
ENUM_KERNELS = ("enum_ml_log2", "enum_kt_log2", "enum_source_log2")
HARNESSES = ("verify_truncation", "verify_chaining", "verify_domination", "verify_state_count",
             "estimate_inv_ns", "verify_mse", "verify_deviation", "verify_azuma_stopped")


class _Agg:
    """Calls, busy time (outermost spans only), self time and work of a span set."""

    def __init__(self, spans, dur, child, member):
        self.calls, self.s, self.self_s, self.work = 0, 0.0, 0.0, Counter()
        for i, rec in enumerate(spans):
            if not member(rec):
                continue
            self.calls += 1
            self.self_s += (dur[i] - child[i]) * 1e-9
            if rec[5]:
                self.work.update(rec[5])
            p = rec[3]
            while p >= 0 and not member(spans[p]):
                p = spans[p][3]
            if p < 0:
                self.s += dur[i] * 1e-9


def layer_metrics(tracer: Tracer, replay: dict[str, float], overhead_ratio: float) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``; unexercised layers read 0."""
    spans = tracer.spans
    dur = [rec[2] - rec[1] for rec in spans]
    child = [0] * len(spans)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            child[rec[3]] += dur[i]

    def agg(pred):
        return _Agg(spans, dur, child, pred)

    def named(*names):
        return agg(lambda rec: rec[0] in names)

    def method(layer, meth):
        return agg(lambda rec: rec[0].startswith(layer + ".") and rec[0].endswith("." + meth))

    out = {}
    for k in ROW_KERNELS:
        for shape, single in (("t1", True), ("batched", False)):
            a = agg(lambda rec, k=k, single=single: rec[0] == f"kernels.{k}"
                    and rec[5] is not None and (rec[5]["rows"] == 1) == single)
            out[f"kernels.{k}.{shape}.calls"] = (a.calls, "count")
            out[f"kernels.{k}.{shape}.bits"] = (a.work["bits"], "bits")
            out[f"kernels.{k}.{shape}.s"] = (a.s, "s")
    for k, unit in [*((k, "sequences") for k in ENUM_KERNELS), ("domination_dist", "paths"),
                    ("azuma_failures", "steps")]:
        a = named(f"kernels.{k}")
        out[f"kernels.{k}.calls"] = (a.calls, "count")
        out[f"kernels.{k}.{unit}"] = (a.work[unit], unit)
        out[f"kernels.{k}.s"] = (a.s, "s")
    kernel_s = agg(lambda rec: rec[0].startswith("kernels.")).s
    item_s = named("item").s
    out["kernels.share"] = (kernel_s / item_s if item_s else 0.0, "ratio")

    for k in ("random_continuity_source", "random_hypercube_source", "aggregate_moments"):
        a = named(f"source.{k}")
        out[f"source.{k}.calls"] = (a.calls, "count")
        out[f"source.{k}.s"] = (a.s, "s")
    a = named("source.MarkovSource.truncate")
    out["source.MarkovSource.truncate.calls"] = (a.calls, "count")
    out["source.MarkovSource.truncate.s"] = (a.s, "s")

    for key in CODER_KEYS.values():
        for meth in PER_BIT:
            out[f"coders.{key}.{meth}.calls"] = (tracer.counts[f"coders.{key}.{meth}"], "count")
        out[f"coders.{key}.replay_ns_per_bit"] = (replay.get(key, 0.0), "ns/bit")
    a = method("coders", "log2_prob_batch")
    out["coders.log2_prob_batch.calls"] = (a.calls, "count")
    out["coders.log2_prob_batch.s"] = (a.s, "s")
    out["coders.log2_prob_batch.self_s"] = (a.self_s, "s")
    a = method("coders", "log2_prob_all")
    out["coders.log2_prob_all.calls"] = (a.calls, "count")
    out["coders.log2_prob_all.s"] = (a.s, "s")
    a = named("coders.shtarkov_sum")
    out["coders.shtarkov_sum.calls"] = (a.calls, "count")
    out["coders.shtarkov_sum.s"] = (a.s, "s")

    for k in ("encode", "decode"):
        a = named(f"codec.{k}")
        out[f"codec.{k}.calls"] = (a.calls, "count")
        out[f"codec.{k}.bits"] = (a.work["bits"], "bits")
        out[f"codec.{k}.s"] = (a.s, "s")
        per_bit = a.self_s * 1e9 / a.work["bits"] if a.work["bits"] else 0.0
        out[f"codec.{k}.self_ns_per_bit"] = (per_bit, "ns/bit")
    for k in ("pack_stream", "unpack_stream"):
        out[f"codec.{k}.s"] = (named(f"codec.{k}").s, "s")

    timed = (("redundancy", ("mc_avg_redundancy", "exact_avg_redundancy")), ("lemmas", HARNESSES))
    for layer, names in timed:
        for k in names:
            a = named(f"{layer}.{k}")
            out[f"{layer}.{k}.calls"] = (a.calls, "count")
            out[f"{layer}.{k}.trials"] = (a.work["trials"], "trials")
            out[f"{layer}.{k}.s"] = (a.s, "s")
            out[f"{layer}.{k}.self_s"] = (a.self_s, "s")
    a = named("redundancy.optimal_ell")
    out["redundancy.optimal_ell.calls"] = (a.calls, "count")
    out["redundancy.optimal_ell.s"] = (a.s, "s")

    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def replay_ns_per_bit(coder, bits, reps: int = 3) -> float:
    """Median ns per bit of ``prob_one`` then ``push`` over ``bits``, untraced."""
    times = []
    for _ in range(reps):
        coder.reset()
        t0 = time.perf_counter_ns()
        for b in bits.tolist():
            coder.prob_one()
            coder.push(b)
        times.append(time.perf_counter_ns() - t0)
    coder.reset()
    times.sort()
    return times[len(times) // 2] / len(bits)
