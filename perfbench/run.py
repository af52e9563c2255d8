"""mdelta benchmark: one client in a closed loop, on the numpy kernel backend.

Run from the root of a checkout:

    python3 perfbench/run.py --workload codec|exact|mc --seed N --seconds S --trace 0|1

The workloads are defined and motivated in ``workloads.py``.  Each item's
output is checked; a wrong or raising item counts as failed and the run
goes on.  Every metric is printed as ``name value unit``, and the last line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Set-up
time is the median over fresh processes, each timed from its spawn through
``import mdelta``, input generation and warm-up to being ready for its
first item.

The speed of a small shared machine drifts by a third over minutes, which
no amount of averaging within a run removes.  So every reported time is
rescaled to a nominal machine speed: multiplied by ``REF_MS / ref``, where
``ref`` is the time of :func:`reference_ms`, a fixed loop that shares no
code with mdelta, measured untimed before each item (median over the run)
and before each set-up process.  A change to the program moves the
reported times exactly as it moves the raw ones; the raw times and ``ref``
are printed on the ``# meta`` line.  The process is pinned to one CPU, so
the scheduler cannot move it between cores that other work loads unevenly.

``--trace 1`` runs items untraced for half the time, then the same items
again under ``tracer.Tracer``; it reports the per-layer metrics, counts
any traced output that differs from the untraced one as failed, and
writes the spans to ``.bench_out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
REF_MS = 4.0  # nominal time of reference_ms(), the speed reported times are rescaled to
# the unit of work each workload's work_per_s counts
WORK_UNIT = {"codec": "bits", "exact": "verdicts", "mc": "mc_bits"}


def import_mdelta():
    """Import the checkout's own mdelta on the numpy backend, never loading numba."""
    if not (ROOT / "src" / "mdelta" / "__init__.py").is_file():
        raise ImportError(f"no mdelta sources under {ROOT / 'src'}")
    sys.modules["numba"] = None  # makes `import numba` fail, so the numpy backend serves every kernel
    os.environ["MDELTA_BACKEND"] = "numpy"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import mdelta

    if mdelta.active_backend() != "numpy":
        raise ImportError(f"expected the numpy backend, got {mdelta.active_backend()}")
    return mdelta


@functools.cache
def _reference_inputs():
    import numpy as np

    return np.random.default_rng(0).random(1 << 16), np.zeros(64, np.int64)


def reference_ms() -> float:
    """Wall time in ms of a fixed loop doing the three kinds of work the
    workloads do: Python integer arithmetic, numpy scalar indexing and
    whole-array numpy calls."""
    import numpy as np

    array, table = _reference_inputs()
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for i in range(2000):
        table[i & 63] += 1
        acc += int(table[(i * 7) & 63])
    for _ in range(2):
        np.sort(array).cumsum()
    return (time.perf_counter() - t0) * 1e3


@dataclass
class Record:
    kind: str
    seconds: float
    ok: bool
    digest: object
    work: dict
    ref_ms: float


def run_items(kinds, seconds=None, count=None, tracer=None, calibrate=False) -> list[Record]:
    """Run items round-robin over ``kinds`` for ``seconds`` of wall time, or
    exactly ``count`` items.  Only ``kind.run`` is timed; with ``calibrate``
    each item is preceded by an untimed :func:`reference_ms`."""
    records = []
    start = time.perf_counter()
    k = 0
    while (k < count) if count is not None else (k == 0 or time.perf_counter() - start < seconds):
        kind = kinds[k % len(kinds)]
        r = k // len(kinds)
        ref = reference_ms() if calibrate else 0.0
        t0 = time.perf_counter()
        try:
            out = tracer.run_item(k, kind.run, r) if tracer else kind.run(r)
            elapsed = time.perf_counter() - t0
            ok, digest, work = kind.check(r, out)
        except Exception:  # an item that raises is a failed item, not a failed run
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            ok, digest, work = False, None, {}
        records.append(Record(kind.name, elapsed, bool(ok), digest, work, ref))
        k += 1
    return records


def end_to_end(workload: str, records: list[Record]) -> tuple[dict, dict]:
    """End-to-end metrics of one run except set-up time, rescaled to the
    nominal speed, and the same figures raw."""
    ref = statistics.median(r.ref_ms for r in records)
    ms = [r.seconds * 1e3 for r in records]
    busy = sum(r.seconds for r in records)
    done = sum(r.work.get(WORK_UNIT[workload], 0) for r in records if r.ok)
    raw = {
        "item_ms_p50": statistics.median(ms),
        "item_ms_p90": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
        "work_per_s": done / busy,
        "ref_ms": ref,
    }
    scale = REF_MS / ref
    metrics = {
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "item_ms_p50": (raw["item_ms_p50"] * scale, "ms"),
        "item_ms_p90": (raw["item_ms_p90"] * scale, "ms"),
        "work_per_s": (raw["work_per_s"] / scale, "1/s"),
    }
    return metrics, raw


def workload_details(workload: str, records: list[Record]) -> dict:
    """The workload's own throughput and quality figures, rescaled like the
    end-to-end metrics; printed, not gated."""
    scale = REF_MS / statistics.median(r.ref_ms for r in records)
    ok = [r for r in records if r.ok]
    busy = sum(r.seconds for r in records) * scale
    if workload == "codec":
        if not ok:
            return {}
        bits = sum(r.work["bits"] for r in ok)
        return {
            "encode_bits_per_s": (bits / (sum(r.work["encode_s"] for r in ok) * scale), "bits/s"),
            "decode_bits_per_s": (bits / (sum(r.work["decode_s"] for r in ok) * scale), "bits/s"),
            "overhead_bits": (statistics.fmean(r.work["overhead_bits"] for r in ok), "bits"),
        }
    if workload == "exact":
        return {"verdicts_per_s": (sum(r.work["verdicts"] for r in ok) / busy, "1/s")}
    return {"mc_bits_per_s": (sum(r.work["mc_bits"] for r in ok) / busy, "bits/s")}


def traced_run(workload: str, seed: int, seconds: float, kinds) -> tuple[dict, int, int]:
    """Per-layer metrics, attempted and failed counts of a traced run."""
    import tracer as tr
    import workloads as w

    untraced = run_items(kinds, seconds=seconds / 2)
    with tr.Tracer() as tracer:
        traced = run_items(kinds, count=len(untraced), tracer=tracer)
    mismatched = [a.kind for a, b in zip(untraced, traced) if a.digest != b.digest]
    for kind in mismatched:
        print(f"# traced output differs from untraced: {kind}", file=sys.stderr)
    replay = {}
    if workload == "codec":
        src, x = w.codec_pool(seed, size=1)[0]
        replay = {name: tr.replay_ns_per_bit(w.make_coder(name, src), x) for name in w.CODEC_CODERS}
    ratio = sum(r.seconds for r in traced) / sum(r.seconds for r in untraced)
    metrics = tr.layer_metrics(tracer, replay, ratio)
    tracer.write(Path.cwd() / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl")
    records = untraced + traced
    return metrics, len(records), sum(not r.ok for r in records) + len(mismatched)


def setup_samples(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw seconds, reference ms) of fresh processes' set-up, each timed
    from spawn to ready for the first item."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        ref = statistics.median(reference_ms() for _ in range(3))
        t0 = time.perf_counter()
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                "--setup-only"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append((time.perf_counter() - t0, ref))
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up process failed")
    return samples


def metadata(workload: str, seed: int, mdelta, nproc: int) -> dict:
    import numpy as np

    return {
        "workload": workload, "seed": seed, "backend": mdelta.active_backend(),
        "numpy": np.__version__, "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": nproc, "pinned_cpus": sorted(os.sched_getaffinity(0)),
    }


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORK_UNIT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    try:
        mdelta = import_mdelta()
    except ImportError as exc:
        print(f"error: cannot import mdelta from this checkout: {exc}", file=sys.stderr)
        return 2
    import workloads as w

    kinds = w.WORKLOADS[args.workload](args.seed)
    w.warm_up(args.workload)
    own_setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print("ready", flush=True)
        return 0

    meta = metadata(args.workload, args.seed, mdelta, nproc)
    if args.trace:
        metrics, attempted, failed = traced_run(args.workload, args.seed, args.seconds, kinds)
        details = {}
    else:
        records = run_items(kinds, seconds=args.seconds, calibrate=True)
        metrics, raw = end_to_end(args.workload, records)
        details = workload_details(args.workload, records)
        setups = setup_samples(args.workload, args.seed)
        metrics["setup_s"] = (statistics.median(s * REF_MS / ref for s, ref in setups), "s")
        raw["setup_s"] = statistics.median(s for s, _ in setups)
        raw["in_process_setup_s"] = own_setup_s
        meta.update(items=len(records), raw=raw)
        attempted, failed = len(records), sum(not r.ok for r in records)
        for r in records:
            if not r.ok:
                print(f"# failed item: {r.kind}", file=sys.stderr)

    print("# meta " + json.dumps(meta))
    for name, (value, unit) in {**details, **metrics}.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
