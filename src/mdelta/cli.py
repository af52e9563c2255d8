"""Command-line driver: generation, coding, measurement and verification
with reproducible, self-describing artifacts.

Every artifact starts with `#` metadata lines carrying the library
version, the root seed and a hash of the resolved configuration, so a
run can be reproduced from the file alone.  All randomness flows from
the single --seed via labeled splitting (see _kernels.child_seed).

Exit codes: 0 success, 1 a verification verdict failed, 2 bad usage.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, _kernels, codec, coders, lemmas, redundancy
from .delta import DeltaSpec
from .source import (
    MarkovSource,
    as_bits,
    bits_to_str,
    format_source,
    parse_source,
    random_continuity_source,
    random_hypercube_source,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _worker_count(tasks: int) -> int:
    cap = os.environ.get("MDELTA_THREADS")
    limit = int(cap) if cap else (os.cpu_count() or 1)
    return max(1, min(limit, tasks))


def _parse_ells(text: str) -> list[int]:
    """Depth lists: `4`, `1..12`, or `2,3,5`."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    if "," in text:
        return [int(v) for v in text.split(",")]
    return [int(text)]


def _parse_ns(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _depth(text) -> int:
    """Context depth from the command line or a stream header; capped so
    that no 2^depth state table can exhaust memory."""
    depth = int(text)
    if not 0 <= depth <= redundancy.MAX_SCAN_DEPTH:
        raise argparse.ArgumentTypeError(f"depth {depth} is outside 0..{redundancy.MAX_SCAN_DEPTH}")
    return depth


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected a boolean (1/true/yes or 0/false/no), got {text!r}")
    return word in ("1", "true", "yes")


def _config_hash(args: argparse.Namespace) -> str:
    # hash the computation, not where its artifacts land
    skip = {"func", "subparser", "out", "infile", "config"}
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _meta(args: argparse.Namespace) -> dict:
    return {
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "config": _config_hash(args),
    }


def _write_csv(path: str, meta: dict, header: list[str], rows: list[list]) -> None:
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _read_bits_file(path: str) -> np.ndarray:
    chunks = []
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            chunks.append(line)
    return as_bits("".join(chunks))


def _write_bits_file(path: str, bits, meta: dict) -> None:
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(bits_to_str(bits))
    Path(path).write_text("\n".join(lines) + "\n")


def _load_source(path: str) -> MarkovSource:
    return parse_source(Path(path).read_text())


def _build_coder(kind: str, ell: int, past: str, n: int, source: MarkovSource | None):
    if kind == "kt":
        return coders.KTCoder(ell, past)
    if kind == "mixture":
        return coders.MixtureCoder(ell, past, horizon=n)
    if kind == "nml":
        return coders.NMLCoder(ell, past, horizon=n)
    if kind == "source":
        if source is None:
            raise ValueError("--coder source needs --source FILE")
        return coders.SourceCoder(source, past)
    raise ValueError(f"unknown coder kind {kind!r}")


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill parser-default values from a key=value file; flags win."""
    if not getattr(args, "config", None):
        return
    sub = getattr(args, "subparser", parser)
    actions = {action.dest: action for action in sub._actions}
    for lineno, raw in enumerate(Path(args.config).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{args.config}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        action = actions.get(dest)
        if action is None or not hasattr(args, dest):
            continue  # keys for other subcommands are ignored
        if getattr(args, dest) == action.default:
            # the flag's own type and choices, as if the value were typed on the command line
            value = _parse_bool(value) if isinstance(action.default, bool) else (action.type or str)(value)
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"{args.config}:{lineno}: {key} must be one of {', '.join(action.choices)}")
            setattr(args, dest, value)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen_source(args) -> int:
    delta = DeltaSpec.parse(args.delta) if args.delta else None
    if args.kind == "hypercube":
        half = args.delta_at if args.delta_at is not None else (delta(args.ell) if delta else None)
        if half is None:
            raise ValueError("hypercube generation needs --delta-at or --delta")
        src = random_hypercube_source(args.ell, half, seed=args.seed)
    else:
        if delta is None:
            raise ValueError("continuity generation needs --delta")
        src = random_continuity_source(args.ell, delta, seed=args.seed)
    header = "".join(f"# {k}={v}\n" for k, v in _meta(args).items())
    Path(args.out).write_text(header + format_source(src))
    print(f"gen-source: wrote memory-{src.memory} source with {len(src.tree.leaves)} leaves to {args.out}")
    return 0


def _cmd_sample(args) -> int:
    src = _load_source(args.source)
    past = args.past if args.past is not None else "0" * src.memory
    bits = src.sample(past, args.n, seed=args.seed)
    _write_bits_file(args.out, bits, _meta(args))
    print(f"sample: wrote {args.n} bits to {args.out} ({int(bits.sum())} ones)")
    return 0


def _cmd_prob(args) -> int:
    src = _load_source(args.source)
    past = args.past if args.past is not None else "0" * src.memory
    if args.infile is None and args.x is None:
        raise ValueError("prob needs --in FILE or --x BITS")
    bits = _read_bits_file(args.infile) if args.infile else as_bits(args.x)
    lp = src.log_prob(past, bits)
    print(f"log2 p(x | past) = {lp!r}")
    if args.coder:
        coder = _build_coder(args.coder, args.ell, past, len(bits), src)
        lq = coder.log2_prob(bits)
        print(f"log2 q(x) = {lq!r}")
        print(f"regret = {lp - lq!r} bits")
    return 0


def _cmd_encode(args) -> int:
    bits = _read_bits_file(args.infile)
    src = _load_source(args.source) if args.source else None
    past = args.past if args.past is not None else "0" * max(args.ell, src.memory if src else 0)
    coder = _build_coder(args.coder, args.ell, past, len(bits), src)
    code = codec.encode(coder, bits)
    Path(args.out).write_bytes(codec.pack_stream(code, args.ell, len(bits)))
    ideal = -coder.log2_prob(bits)
    print(f"encode: {len(bits)} bits -> {len(code)} code bits (ideal {ideal:.2f}) in {args.out}")
    return 0


def _cmd_decode(args) -> int:
    code, depth, n = codec.unpack_stream(Path(args.infile).read_bytes())
    _depth(depth)
    if args.ell is not None and args.ell != depth:
        raise codec.CodecError(f"stream says depth {depth}, flags say {args.ell}")
    src = _load_source(args.source) if args.source else None
    past = args.past if args.past is not None else "0" * max(depth, src.memory if src else 0)
    coder = _build_coder(args.coder, depth, past, n, src)
    bits = codec.decode(coder, code, n)
    _write_bits_file(args.out, bits, _meta(args))
    print(f"decode: recovered {n} bits into {args.out}")
    return 0


def _cmd_bounds(args) -> int:
    delta = DeltaSpec.parse(args.delta)
    ells = _parse_ells(args.ell) if args.ell else list(redundancy.default_ell_range(args.n))
    report = redundancy.bound_report(args.n, delta, ells)
    rows = [
        [args.n, r.ell, report.delta, r.lower, r.upper_truncation, r.upper_refined, r.r_ell, r.clamped]
        for r in report.rows
    ]
    meta = _meta(args) | {"log_base": 2, "ub_t12_variant": "safe(max of plain,doubled)"}
    _write_csv(args.out, meta, ["n", "ell", "delta", "lb_t1", "ub_prop", "ub_t12", "r_ell", "clamped"], rows)
    best_l = report.best_lower
    best_p = report.best_upper_truncation
    best_r = report.best_upper_refined
    print(
        f"bounds: n={args.n} delta={report.delta} "
        f"lower max {best_l[1]:.3f} @ ell={best_l[0]}; "
        f"upper min {best_p[1]:.3f} @ ell={best_p[0]} (truncation), "
        f"{best_r[1]:.3f} @ ell={best_r[0]} (refined); {len(rows)} rows -> {args.out}"
    )
    return 0


def _cmd_redundancy(args) -> int:
    src = _load_source(args.source)
    past = args.past if args.past is not None else "0" * max(src.memory, args.ell)
    coder = _build_coder(args.coder, args.ell, past, args.n, src)
    rows = []
    if args.exact:
        value = redundancy.exact_avg_redundancy(src, past, coder, args.n)
        print(f"exact average redundancy = {value!r} bits")
    else:
        seed = _kernels.child_seed(args.seed, "regret")
        est = redundancy.mc_avg_redundancy(src, past, coder, args.n, args.trials, seed=seed)
        for lp, lq in zip(est.logp.tolist(), est.logq.tolist()):
            rows.append([seed, args.n, args.ell, lp, lq, lp - lq])
        print(f"mc average redundancy = {est.mean!r} +- {est.se!r} bits ({args.trials} trials)")
    if args.out:
        _write_csv(args.out, _meta(args), ["seed", "n", "ell", "logp", "logq", "regret"], rows)
        print(f"redundancy: wrote {len(rows)} rows -> {args.out}")
    return 0


def _cmd_nml(args) -> int:
    result = coders.shtarkov_sum(args.ell, args.past or "", args.n)
    print(repr(result.log2_sum))
    return 0


class _Task(NamedTuple):
    """One `verify` row: the harness is named, not bound, so it is looked
    up in `lemmas` when the task runs."""

    choice: str  # the `verify` argument that selects the task, besides "all"
    name: str
    harness: str
    kwargs: dict
    seed_label: str
    trials: tuple[int, int] | None = None  # (default, divisor): (--trials or default) // divisor
    options: tuple[str, ...] = ()  # command-line options passed through by name


def _domination_task(q: float) -> _Task:
    return _Task("domination", f"domination-q{q}", "verify_domination",
                 {"n": 12, "q": q, "processes": 200}, f"dom{q}")


_VERIFY_TASKS = (
    *(_domination_task(q) for q in (0.1, 0.3, 0.5)),
    _Task("state-count", "state-count", "verify_state_count",
          {"ell": 2, "delta_at": 1 / 16, "n": 2**14}, "state-count", (10**4, 1)),
    *(_Task("inv-ns", f"inv-ns-ell{e}", "estimate_inv_ns",
            {"ell": e, "delta_at": 1 / 16, "n": 2**12}, f"inv{e}", (10**4, 1)) for e in (2, 3)),
    *(_Task("mse", f"mse-ell{e}", "verify_mse",
            {"ell": e, "delta_at": 1 / 16, "n": 2**12}, f"mse{e}", (10**4, 1)) for e in (2, 3)),
    _Task("azuma", "azuma-first-passage", "verify_azuma_stopped",
          {"n": 100, "kind": "first-passage"}, "azuma-fp", (10**6, 1), ("gamma",)),
    _Task("azuma", "azuma-fixed", "verify_azuma_stopped",
          {"n": 100, "kind": "fixed"}, "azuma-fixed", (10**6, 5), ("gamma",)),
    _Task("azuma", "azuma-random", "verify_azuma_stopped",
          {"n": 100, "kind": "random"}, "azuma-random", (10**6, 5), ("gamma",)),
    _Task("deviation", "deviation", "verify_deviation",
          {"ell": 2, "n": 2**12}, "deviation", (10**4, 1), ("delta",)),
    _Task("truncation", "truncation", "verify_truncation_batch",
          {"ell": 3, "n": 4096}, "truncation", None, ("count", "delta")),
    _Task("chaining", "chaining", "verify_chaining_batch",
          {"ell": 3, "n": 4096}, "chaining", None, ("count", "delta")),
)
_VERIFY_CHOICES = ("all", *dict.fromkeys(task.choice for task in _VERIFY_TASKS))


def _verify_tasks(args) -> list[tuple[str, object]]:
    if args.lemma == "domination" and args.q is not None:
        rows = [_domination_task(args.q)]
    else:
        rows = [task for task in _VERIFY_TASKS if args.lemma in ("all", task.choice)]
    options = {"gamma": args.gamma, "count": args.count, "delta": DeltaSpec.parse(args.delta)}
    tasks = []
    for task in rows:
        kwargs = dict(task.kwargs, seed=_kernels.child_seed(args.seed, task.seed_label))
        if task.trials is not None:
            default, divisor = task.trials
            kwargs["trials"] = (default if args.trials is None else args.trials) // divisor
        kwargs.update((key, options[key]) for key in task.options)
        tasks.append((task.name, functools.partial(_run_harness, task.harness, kwargs)))
    return tasks


def _run_harness(harness: str, kwargs: dict):
    return getattr(lemmas, harness)(**kwargs)


def _cmd_verify(args) -> int:
    tasks = _verify_tasks(args)
    workers = _worker_count(len(tasks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(lambda t: t[1](), tasks))
    else:
        reports = [fn() for _, fn in tasks]
    rows = []
    all_ok = True
    for (name, _), rep in zip(tasks, reports):
        params = ";".join(f"{k}={v}" for k, v in rep.params.items())
        rows.append(
            [name, params, rep.trials, rep.failures, rep.empirical, rep.bound, rep.slack,
             "pass" if rep.verdict else "fail"]
        )
        status = "pass" if rep.verdict else "FAIL"
        print(
            f"verify {name}: {status} (empirical {rep.empirical:.3g} vs bound {rep.bound:.3g}"
            f" + slack {rep.slack:.3g}; {rep.trials} trials)"
        )
        all_ok &= rep.verdict
    if args.out:
        _write_csv(
            args.out, _meta(args),
            ["lemma", "params", "trials", "failures", "empirical", "bound", "slack", "verdict"],
            rows,
        )
        print(f"verify: wrote {len(rows)} rows -> {args.out}")
    return 0 if all_ok else 1


def _cmd_experiment(args) -> int:
    if args.name != "redundancy-vs-n":
        raise ValueError(f"unknown experiment {args.name!r}")
    delta = DeltaSpec.parse(args.delta)
    ns = _parse_ns(args.n)
    if sorted(ns) != ns:
        raise ValueError("--n values must be increasing for redundancy-vs-n")
    rows = []
    means = []

    def run_source(task):
        # redundancy-dominant family at the scanned depth: near-fair,
        # fast mixing, memory equal to the coder depth
        n, ell, bound, idx = task
        memory = min(ell, 10)
        half = delta(memory)
        src_seed = _kernels.child_seed(args.seed, f"exp-n{n}-src{idx}")
        src = random_hypercube_source(memory, half, seed=src_seed)
        past = "0" * max(memory, ell)
        coder = coders.MixtureCoder(ell, past, horizon=n)
        est = redundancy.mc_avg_redundancy(
            src, past, coder, n, args.trials, seed=_kernels.child_seed(args.seed, f"exp-n{n}-mc{idx}")
        )
        return [n, ell, idx, est.mean, est.se, bound, est.mean <= bound + 5.0 * est.se]

    for n in ns:
        choice = redundancy.optimal_ell(n, delta, "refined")
        tasks = [(n, choice.scanned, choice.scanned_value, i) for i in range(args.sources)]
        workers = _worker_count(len(tasks))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(run_source, tasks))
        rows.extend(out)
        mean_regret = float(np.mean([r[3] for r in out]))
        means.append(mean_regret)
        print(
            f"experiment: n={n} ell={choice.scanned} mean regret {mean_regret:.2f}"
            f" vs bound {choice.scanned_value:.2f}"
        )
    if len(ns) >= 2:
        logn = np.log2(ns)
        slope = float(np.polyfit(logn, np.log2(means), 1)[0])
        print(f"experiment: slope of log2(regret) vs log2(n) = {slope:.3f} (reported, not asserted)")
    _write_csv(
        args.out, _meta(args),
        ["n", "ell", "source", "regret_mean", "regret_se", "bound_t12", "within_bound"],
        rows,
    )
    print(f"experiment: wrote {len(rows)} rows -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdelta",
        description="Universal coding of binary context-tree Markov sources under a continuity constraint",
    )
    parser.add_argument("--config", help="key=value file supplying defaults (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-source", help="draw a source and write its text form")
    p.add_argument("--kind", choices=("hypercube", "continuity"), default="continuity")
    p.add_argument("--ell", type=_depth, required=True)
    p.add_argument("--delta", default="exp:1")
    p.add_argument("--delta-at", type=float, default=None, help="hypercube half-width override")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_source, subparser=p)

    p = sub.add_parser("sample", help="sample bits from a source file")
    p.add_argument("--source", required=True)
    p.add_argument("--past", default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample, subparser=p)

    p = sub.add_parser("prob", help="log2 probability of a sample under a source")
    p.add_argument("--source", required=True)
    p.add_argument("--past", default=None)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--x", default=None, help="inline bit string")
    p.add_argument("--coder", choices=("kt", "mixture", "nml", "source"), default=None)
    p.add_argument("--ell", type=_depth, default=0)
    p.set_defaults(func=_cmd_prob, subparser=p)

    p = sub.add_parser("encode", help="arithmetic-encode an ASCII bits file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--coder", choices=("kt", "mixture", "nml", "source"), default="kt")
    p.add_argument("--ell", type=_depth, default=0)
    p.add_argument("--past", default=None)
    p.add_argument("--source", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_encode, subparser=p)

    p = sub.add_parser("decode", help="decode a stream back to bits")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--coder", choices=("kt", "mixture", "nml", "source"), default="kt")
    p.add_argument("--ell", type=_depth, default=None)
    p.add_argument("--past", default=None)
    p.add_argument("--source", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_decode, subparser=p)

    p = sub.add_parser("bounds", help="evaluate the closed-form bounds over a depth grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--ell", default=None, help="depth grid, e.g. 1..12 (default: full scan range)")
    p.add_argument("--out", default="bounds.csv")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bounds, subparser=p)

    p = sub.add_parser("redundancy", help="measure regret of a coder against a source")
    p.add_argument("--source", required=True)
    p.add_argument("--coder", choices=("kt", "mixture", "nml", "source"), default="kt")
    p.add_argument("--ell", type=_depth, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--past", default=None)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--exact", action="store_true", help="exhaustive enumeration (n <= 20)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_redundancy, subparser=p)

    p = sub.add_parser("nml", help="exact log2 normalizer of maximized likelihoods")
    p.add_argument("--ell", type=_depth, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--past", default=None)
    p.set_defaults(func=_cmd_nml, subparser=p)

    p = sub.add_parser("verify", help="run verification harnesses")
    p.add_argument("lemma", choices=_VERIFY_CHOICES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--gamma", type=float, default=5.0)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--delta", default="exp:1")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify, subparser=p)

    p = sub.add_parser("experiment", help="orchestrated measurement runs")
    p.add_argument("name", choices=("redundancy-vs-n",))
    p.add_argument("--delta", default="exp:1")
    p.add_argument("--n", required=True, help="comma-separated increasing lengths")
    p.add_argument("--sources", type=int, default=50)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="experiment.csv")
    p.set_defaults(func=_cmd_experiment, subparser=p)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser)
        return args.func(args)
    except (ValueError, IndexError, OSError, codec.CodecError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
