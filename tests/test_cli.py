import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mdelta import lemmas
from mdelta.cli import main
from mdelta.delta import DeltaSpec
from mdelta.redundancy import refined_upper_bound
from mdelta.source import ContinuityGenerationError, StationaryConvergenceError


def read_data_lines(path):
    return [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]


def test_nml_prints_exact_value(capsys):
    assert main(["nml", "--ell", "0", "--n", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - math.log2(2.5)) < 1e-12


def test_nml_past_defaults_to_zeros(capsys):
    assert main(["nml", "--ell", "2", "--n", "3"]) == 0
    assert main(["nml", "--ell", "2", "--n", "3", "--past", "00"]) == 0
    default, zeros = capsys.readouterr().out.split()
    assert default == zeros


def test_prob_past_defaults_to_the_deeper_of_source_and_coder(tmp_path, capsys):
    # a depth-4 coder on a memory-2 source gets the past 0000, as encode does
    src = tmp_path / "src.txt"
    assert main(["gen-source", "--ell", "2", "--seed", "4", "--out", str(src)]) == 0
    argv = ["prob", "--source", str(src), "--x", "0110100111", "--coder", "kt", "--ell", "4"]
    capsys.readouterr()
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--past", "0000"]) == 0
    assert capsys.readouterr().out == default


def test_enumeration_over_the_row_limit_exits_two_before_allocating(capsys):
    # depth 10 at n = 20 needs 2 GiB of suffix count rows
    tracemalloc.start()
    try:
        assert main(["nml", "--ell", "10", "--n", "20"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err == "error: exact enumeration at depth 10 and n = 20 needs 2 GiB of count rows, over the 1 GiB limit\n"
    assert peak < 1 << 20


def test_gen_sample_prob_pipeline(tmp_path, capsys):
    src = tmp_path / "src.txt"
    bits = tmp_path / "bits.txt"
    assert main(["gen-source", "--kind", "continuity", "--ell", "2", "--delta", "exp:1",
                 "--seed", "4", "--out", str(src)]) == 0
    assert main(["sample", "--source", str(src), "--n", "100", "--seed", "5",
                 "--out", str(bits)]) == 0
    assert main(["prob", "--source", str(src), "--in", str(bits)]) == 0
    out = capsys.readouterr().out
    assert "log2 p(x | past)" in out


def test_encode_decode_files(tmp_path):
    src = tmp_path / "src.txt"
    bits = tmp_path / "bits.txt"
    enc = tmp_path / "enc.bin"
    dec = tmp_path / "dec.txt"
    assert main(["gen-source", "--kind", "hypercube", "--ell", "2", "--delta-at", "0.1",
                 "--seed", "1", "--out", str(src)]) == 0
    assert main(["sample", "--source", str(src), "--n", "257", "--seed", "2",
                 "--out", str(bits)]) == 0
    assert main(["encode", "--in", str(bits), "--out", str(enc), "--coder", "kt",
                 "--ell", "2"]) == 0
    assert main(["decode", "--in", str(enc), "--out", str(dec), "--coder", "kt"]) == 0
    assert read_data_lines(bits) == read_data_lines(dec)


def test_encode_takes_no_seed(tmp_path, capsys):
    # encoding is deterministic and writes no metadata, so a seed would do nothing
    bits = tmp_path / "bits.txt"
    bits.write_text("0101\n")
    with pytest.raises(SystemExit) as err:
        main(["encode", "--seed", "1", "--in", str(bits), "--out", str(tmp_path / "enc.bin")])
    assert err.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "enc.bin").exists()


@pytest.mark.parametrize("command", [
    ["decode", "--in", "unused.bin", "--out"],
    ["bounds", "--n", "1024", "--delta", "exp:1", "--out"],
])
def test_commands_that_draw_nothing_take_no_seed(tmp_path, capsys, command):
    # neither command draws anything, so a seed would only change the metadata
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as err:
        main(command + [str(out), "--seed", "1"])
    assert err.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not out.exists()


def test_truncated_stream_exits_two(tmp_path, capsys):
    bits = tmp_path / "bits.txt"
    enc = tmp_path / "enc.bin"
    bits.write_text("".join(str((i * i) % 3 % 2) for i in range(200)) + "\n")
    assert main(["encode", "--in", str(bits), "--out", str(enc), "--ell", "2"]) == 0
    enc.write_bytes(enc.read_bytes()[:9])
    capsys.readouterr()
    assert main(["decode", "--in", str(enc), "--out", str(tmp_path / "d.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: read past the end of the code")


def test_decode_depth_mismatch_fails(tmp_path):
    bits = tmp_path / "bits.txt"
    enc = tmp_path / "enc.bin"
    bits.write_text("0101\n")
    assert main(["encode", "--in", str(bits), "--out", str(enc), "--ell", "1"]) == 0
    assert main(["decode", "--in", str(enc), "--out", str(tmp_path / "d.txt"),
                 "--ell", "3"]) == 2


def test_encode_with_the_source_coder_needs_a_source(tmp_path, capsys):
    bits, enc = tmp_path / "bits.txt", tmp_path / "enc.bin"
    bits.write_text("0110\n")
    assert main(["encode", "--in", str(bits), "--out", str(enc), "--coder", "source"]) == 2
    assert capsys.readouterr().err == "error: --coder source needs --source FILE\n"
    assert not enc.exists()


def test_encode_length_outside_header_exits_two(monkeypatch, tmp_path):
    from mdelta import cli, codec

    # a zero-stride view stands in for a 2^32-bit input file
    monkeypatch.setattr(cli, "_read_bits_file", lambda path: np.broadcast_to(np.uint8(0), (1 << 32,)))
    monkeypatch.setattr(codec, "encode", lambda coder, bits: np.zeros(8, np.uint8))
    enc = tmp_path / "enc.bin"
    assert main(["encode", "--in", "unused.txt", "--out", str(enc), "--coder", "kt",
                 "--ell", "0"]) == 2
    assert not enc.exists()


def test_bounds_row_count_and_metadata(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--n", "1048576", "--delta", "exp:1", "--ell", "1..12",
                 "--out", str(out)]) == 0
    lines = Path(out).read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# version=") for l in meta)
    assert any(l.startswith("# seed=") for l in meta)
    assert any(l.startswith("# config=") for l in meta)
    header = [l for l in lines if l.startswith("n,")]
    assert header == ["n,ell,delta,lb_t1,ub_prop,ub_t12,r_ell,clamped"]
    assert len(read_data_lines(out)) == 13  # header + 12 rows


def test_bounds_evaluates_a_listed_depth_grid(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--n", "4096", "--delta", "exp:1", "--ell", "2,3,5", "--out", str(out)]) == 0
    header, *rows = (line.split(",") for line in read_data_lines(out))
    assert [row[header.index("ell")] for row in rows] == ["2", "3", "5"]


# sha256 of the data lines (header and rows, no `#` lines) of `bounds`
# CSVs over four grids, each with clamped rows
BOUNDS_ROWS_SHA256 = {
    ("4096", "exp:1", None): "4e6fa9f7a81068fd4d950f864363faf124ad9fdab726f6450e4bff8e52c61306",
    ("1048576", "poly:2", "1..12"): "f57a59b491800260259e8db49ae75aa8b86bf26c5c6cad76ff6097551d3e2c79",
    ("65536", "dexp:1", None): "3ace60c5b8cb3531aa25c6f98c5cac97ba8f5853c923310183742b61104b4e6f",
    ("64", "exp:0.5", "1..10"): "f3091173970c51f13dfe76fd91f985c555f2c88ee6c6c383a4633f8d9d6df24d",
}


@pytest.mark.parametrize("grid", BOUNDS_ROWS_SHA256)
def test_bounds_rows_are_pinned(tmp_path, grid):
    n, delta, ell = grid
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--n", n, "--delta", delta, "--out", str(out)]
                + (["--ell", ell] if ell else [])) == 0
    lines = read_data_lines(out)
    assert any(line.endswith(",true") for line in lines[1:])
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BOUNDS_ROWS_SHA256[grid]


def test_bounds_variant_line_reproduces_ub_t12(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--n", "4096", "--delta", "exp:1", "--out", str(out)]) == 0
    meta = dict(l[2:].split("=", 1) for l in Path(out).read_text().splitlines() if l.startswith("# "))
    header, *rows = (line.split(",") for line in read_data_lines(out))
    for row in rows:
        row = dict(zip(header, row))
        ub = refined_upper_bound(4096, int(row["ell"]), DeltaSpec.parse("exp:1"), meta["ub_t12_variant"])
        assert ub == float(row["ub_t12"])


def test_redundancy_writes_regret_rows(tmp_path):
    src = tmp_path / "src.txt"
    out = tmp_path / "regret.csv"
    assert main(["gen-source", "--kind", "hypercube", "--ell", "1", "--delta-at", "0.05",
                 "--seed", "3", "--out", str(src)]) == 0
    assert main(["redundancy", "--source", str(src), "--coder", "kt", "--ell", "1",
                 "--n", "32", "--trials", "20", "--seed", "6", "--out", str(out)]) == 0
    rows = read_data_lines(out)
    assert rows[0] == "seed,n,ell,logp,logq,regret"
    assert len(rows) == 21
    for row in rows[1:]:
        seed, n, ell, logp, logq, regret = row.split(",")
        assert float(regret) == pytest.approx(float(logp) - float(logq), abs=1e-9)


def test_verify_csv_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["verify", "domination", "--seed", "7", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_domination_takes_its_own_q(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["verify", "domination", "--q", "0.2", "--out", str(out)]) == 0
    header, *rows = (line.split(",") for line in read_data_lines(out))
    assert [row[0] for row in rows] == ["domination-q0.2"]
    assert ";q=0.2;" in rows[0][1] and rows[0][-1] == "pass"


def test_verify_rows_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("MDELTA_THREADS", threads)
        outs.append(tmp_path / f"t{threads}.csv")
        assert main(["verify", "azuma", "--seed", "3", "--trials", "200", "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_verify_exit_code_on_failure(monkeypatch, tmp_path):
    failing = lemmas.VerificationReport("domination", {}, 1, 1, empirical=1.0, bound=0.0, slack=0.0)
    assert not failing.verdict
    monkeypatch.setattr(lemmas, "verify_domination", lambda **kw: failing)
    assert main(["verify", "domination", "--seed", "1"]) == 1


def test_experiment_rows_and_schema(tmp_path):
    out = tmp_path / "exp.csv"
    assert main(["experiment", "redundancy-vs-n", "--delta", "exp:1", "--n", "256,1024",
                 "--sources", "2", "--trials", "8", "--seed", "9", "--out", str(out)]) == 0
    rows = read_data_lines(out)
    assert rows[0] == "n,ell,source,regret_mean,regret_se,bound_t12,within_bound"
    assert len(rows) == 5
    ns = [int(r.split(",")[0]) for r in rows[1:]]
    assert ns == sorted(ns)


def test_experiment_rejects_unsorted_n():
    assert main(["experiment", "redundancy-vs-n", "--n", "1024,256"]) == 2


def test_experiment_rejects_no_sources(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    assert main(["experiment", "redundancy-vs-n", "--n", "256", "--sources", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: sources must be at least 1\n"
    assert not out.exists()


def run_module(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-m", "mdelta", *args], env=env, capture_output=True, text=True)


def test_python_dash_m_runs_the_cli_and_keeps_its_exit_code():
    ok = run_module("--help")
    assert ok.returncode == 0
    assert ok.stdout.startswith("usage: mdelta")
    bad = run_module("bounds", "--n", "0", "--delta", "exp:1")
    assert bad.returncode == 2
    assert bad.stderr == "error: n must be at least 2, got 0\n"


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--n", "64", "--delta", "exp:1", "--ell", "3..1"], "error: empty depth range: no ell to evaluate\n"),
    (["bounds", "--n", "64", "--delta", "exp:nan"], "error: exp delta needs a finite rate parameter, got nan\n"),
])
def test_bad_bound_inputs_exit_two_with_their_own_message(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "b.csv")]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_non_finite_gamma_exits_two(tmp_path, capsys, gamma):
    out = tmp_path / "v.csv"
    assert main(["verify", "azuma", "--gamma", gamma, "--trials", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: gamma must be positive and finite, got {gamma}\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(5 + 2**64)])
def test_seed_outside_64_bits_exits_two(tmp_path, capsys, seed):
    with pytest.raises(SystemExit) as err:
        main(["verify", "azuma", "--trials", "10", "--seed", seed])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --seed: seed {seed} is outside 0..2^64-1\n")


def test_validation_errors_exit_two(tmp_path):
    assert main(["bounds", "--n", "64", "--delta", "gauss:1"]) == 2
    # an n too large to convert to float raises OverflowError
    assert main(["bounds", "--n", "1" + "0" * 400, "--delta", "exp:1",
                 "--out", str(tmp_path / "b.csv")]) == 2
    assert main(["sample", "--source", str(tmp_path / "missing.txt"), "--n", "4",
                 "--out", str(tmp_path / "o.txt")]) == 2


@pytest.mark.parametrize("error", [
    ContinuityGenerationError("no admissible source in 200 tries"),
    StationaryConvergenceError(1e-3, 10),
])
def test_generation_errors_exit_two(monkeypatch, tmp_path, capsys, error):
    from mdelta import cli

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "random_continuity_source", fail)
    out = tmp_path / "src.txt"
    assert main(["gen-source", "--kind", "continuity", "--ell", "14", "--delta", "exp:1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_out_of_memory_exits_two(monkeypatch, tmp_path, capsys):
    # numpy's failed allocations raise a MemoryError subclass; nothing is allocated here
    from mdelta.source import MarkovSource

    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 29.8 GiB for an array with shape (1, 4000000000)")

    src, out = tmp_path / "src.txt", tmp_path / "x.txt"
    assert main(["gen-source", "--kind", "hypercube", "--ell", "1", "--delta-at", "0.1",
                 "--out", str(src)]) == 0
    monkeypatch.setattr(MarkovSource, "sample", fail)
    assert main(["sample", "--source", str(src), "--n", "4000000000", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "error: not enough memory for the requested size"
    assert not out.exists()


def test_non_utf8_inputs_exit_two_with_their_path(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\x84memory 0\n")
    src = tmp_path / "src.txt"
    assert main(["gen-source", "--kind", "hypercube", "--ell", "1", "--delta-at", "0.1",
                 "--out", str(src)]) == 0
    capsys.readouterr()
    for argv in (
        ["sample", "--source", str(bad), "--n", "4", "--out", str(tmp_path / "o.txt")],
        ["prob", "--source", str(src), "--in", str(bad)],
        ["--config", str(bad), "nml", "--ell", "1", "--n", "2"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text\n"


def test_unknown_flags_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["bounds", "--n", "64", "--delta", "exp:1", "--frobnicate"])
    assert err.value.code == 2


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nn=2\nell=0\n")
    assert main(["--config", str(cfg), "nml", "--ell", "1", "--n", "2", "--past", "0"]) == 0
    flag_wins = capsys.readouterr().out.strip()
    assert abs(float(flag_wins) - math.log2(3.25)) < 1e-12


def test_config_file_supplies_missing_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials=5\n")
    src = tmp_path / "src.txt"
    assert main(["gen-source", "--kind", "hypercube", "--ell", "1", "--delta-at", "0.1",
                 "--seed", "2", "--out", str(src)]) == 0
    out = tmp_path / "r.csv"
    assert main(["--config", str(cfg), "redundancy", "--source", str(src), "--n", "16",
                 "--ell", "1", "--out", str(out)]) == 0
    assert len(read_data_lines(out)) == 6  # header + 5 trials from config


def test_redundancy_regret_rows_are_the_library_estimate(tmp_path):
    from mdelta import coders, redundancy
    from mdelta._kernels import child_seed
    from mdelta.source import parse_source

    src_path = tmp_path / "src.txt"
    out = tmp_path / "regret.csv"
    assert main(["gen-source", "--kind", "hypercube", "--ell", "2", "--delta-at", "0.1",
                 "--seed", "8", "--out", str(src_path)]) == 0
    assert main(["redundancy", "--source", str(src_path), "--coder", "mixture", "--ell", "2",
                 "--n", "64", "--trials", "30", "--seed", "11", "--out", str(out)]) == 0
    src = parse_source(src_path.read_text())
    seed = child_seed(11, "regret")
    est = redundancy.mc_avg_redundancy(src, "00", coders.MixtureCoder(2, "00", horizon=64), 64, 30, seed=seed)
    rows = [r.split(",") for r in read_data_lines(out)[1:]]
    assert {int(r[0]) for r in rows} == {seed}
    assert [float(r[3]) for r in rows] == est.logp.tolist()
    assert [float(r[4]) for r in rows] == est.logq.tolist()
    assert np.mean([float(r[5]) for r in rows]) == est.mean


@pytest.mark.parametrize("coder", ["kt", "mixture", "source", "nml"])
def test_redundancy_exact_writes_its_value(tmp_path, capsys, coder):
    src = tmp_path / "src.txt"
    out = tmp_path / "exact.csv"
    assert main(["gen-source", "--kind", "hypercube", "--ell", "2", "--delta-at", "0.1",
                 "--seed", "5", "--out", str(src)]) == 0
    capsys.readouterr()
    assert main(["redundancy", "--exact", "--source", str(src), "--coder", coder, "--ell", "2",
                 "--n", "10", "--out", str(out)]) == 0
    printed, wrote = capsys.readouterr().out.splitlines()
    value = printed.removeprefix("exact average redundancy = ").removesuffix(" bits")
    assert wrote == f"redundancy: wrote 1 rows -> {out}"
    assert read_data_lines(out) == ["n,ell,exact_avg_redundancy", f"10,2,{value}"]
    assert repr(float(value)) == value


def test_redundancy_empty_horizon_exits_two(tmp_path, capsys):
    src = tmp_path / "src.txt"
    out = tmp_path / "regret.csv"
    assert main(["gen-source", "--kind", "hypercube", "--ell", "1", "--delta-at", "0.1",
                 "--seed", "2", "--out", str(src)]) == 0
    capsys.readouterr()
    assert main(["redundancy", "--source", str(src), "--n", "0", "--trials", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: n must be at least 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["redundancy", "--exact", "--n", "-2"], "n must be at least 0, got -2"),
    (["nml", "--ell", "1", "--n", "-1"], "n must be at least 0, got -1"),
    (["sample", "--n", "-3"], "n must be at least 0, got -3"),
    (["bounds", "--n", "0", "--delta", "exp:1"], "n must be at least 2, got 0"),
    (["bounds", "--n", "1", "--delta", "exp:1"], "n must be at least 2, got 1"),
    (["bounds", "--n", "1", "--delta", "exp:1", "--ell", "1"], "n must be at least 2, got 1"),
])
def test_out_of_range_n_exits_two(tmp_path, capsys, argv, message):
    src = tmp_path / "src.txt"
    out = tmp_path / "out.txt"
    assert main(["gen-source", "--kind", "hypercube", "--ell", "1", "--delta-at", "0.1",
                 "--seed", "2", "--out", str(src)]) == 0
    capsys.readouterr()
    if argv[0] in ("redundancy", "sample"):
        argv = argv + ["--source", str(src)]
    if argv[0] != "nml":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_too_few_trials_for_a_standard_error_exit_two(tmp_path):
    src = tmp_path / "src.txt"
    assert main(["gen-source", "--kind", "hypercube", "--ell", "1", "--delta-at", "0.1",
                 "--seed", "2", "--out", str(src)]) == 0
    assert main(["redundancy", "--source", str(src), "--n", "16", "--trials", "0"]) == 2
    assert main(["verify", "mse", "--trials", "1"]) == 2
    assert main(["verify", "inv-ns", "--trials", "1"]) == 2
    assert main(["verify", "azuma", "--trials", "0"]) == 2  # 0 is a count, not "unset"


@pytest.mark.parametrize("argv, message", [
    (["verify", "azuma", "--trials", "3"], "--trials must be at least 5 for azuma-fixed, "
     "which runs --trials // 5 trials, got 3"),
    (["verify", "all", "--trials", "4"], "--trials must be at least 5 for azuma-fixed, "
     "which runs --trials // 5 trials, got 4"),
], ids=["azuma", "all"])
def test_trials_below_a_task_divisor_name_the_flag(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("lemma", ["truncation", "chaining"])
def test_empty_exact_batch_exits_two(lemma, capsys):
    assert main(["verify", lemma, "--count", "0"]) == 2
    assert capsys.readouterr().err == "error: count must be at least 1, got 0\n"


@pytest.mark.parametrize("argv", [
    ["gen-source", "--out", "unused.txt", "--ell"],
    ["prob", "--source", "unused.txt", "--x", "01", "--ell"],
    ["encode", "--in", "unused.txt", "--out", "unused.bin", "--ell"],
    ["decode", "--in", "unused.bin", "--out", "unused.txt", "--ell"],
    ["redundancy", "--source", "unused.txt", "--n", "8", "--ell"],
    ["nml", "--n", "2", "--ell"],
])
def test_depth_above_cap_exits_two(argv):
    with pytest.raises(SystemExit) as err:
        main(argv + ["17"])
    assert err.value.code == 2


def test_stream_header_depth_above_cap_exits_two(tmp_path):
    from mdelta import codec

    enc = tmp_path / "deep.bin"
    enc.write_bytes(codec.pack_stream(np.zeros(8, np.uint8), 17, 4))
    assert main(["decode", "--in", str(enc), "--out", str(tmp_path / "d.txt")]) == 2
    assert not (tmp_path / "d.txt").exists()


def test_config_depth_above_cap_exits_two(tmp_path):
    src = tmp_path / "src.txt"
    assert main(["gen-source", "--kind", "hypercube", "--ell", "1", "--delta-at", "0.1",
                 "--seed", "2", "--out", str(src)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ell=17\n")
    assert main(["--config", str(cfg), "prob", "--source", str(src), "--x", "01", "--coder", "kt",
                 "--past", "0" * 17]) == 2


def test_config_booleans_are_strict(tmp_path):
    src = tmp_path / "src.txt"
    assert main(["gen-source", "--kind", "hypercube", "--ell", "1", "--delta-at", "0.1",
                 "--seed", "2", "--out", str(src)]) == 0
    cfg = tmp_path / "run.cfg"
    argv = ["--config", str(cfg), "redundancy", "--source", str(src), "--n", "8", "--trials", "4",
            "--out", str(tmp_path / "r.csv")]
    cfg.write_text("exact=No\n")
    assert main(argv) == 0
    assert len(read_data_lines(tmp_path / "r.csv")) == 5  # Monte Carlo rows, not exact
    cfg.write_text("exact=maybe\n")
    assert main(argv) == 2


def test_config_values_take_the_flag_type_and_choices(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "s.txt"
    argv = ["--config", str(cfg), "gen-source", "--ell", "1", "--seed", "2", "--out", str(out)]
    cfg.write_text("kind=hypercube\ndelta-at=0.1\n")  # a float, not the string "0.1"
    assert main(argv) == 0
    cfg.write_text("kind=hypercub\ndelta-at=0.1\n")  # a misspelt choice
    assert main(argv) == 2


# `mdelta verify all --seed 7 --trials 64 --count 3`, one row per task:
# (lemma, params, trials, failures, empirical, bound, slack, verdict)
VERIFY_ALL_ROWS = [
    ("domination-q0.1", "n=12;q=0.1;processes=200;seed=9931619591930628934",
     200, 0, 1.1102230246251565e-15, 0.0, 1e-12, "pass"),
    ("domination-q0.3", "n=12;q=0.3;processes=200;seed=5944775940779800385",
     200, 0, 3.6637359812630166e-15, 0.0, 1e-12, "pass"),
    ("domination-q0.5", "n=12;q=0.5;processes=200;seed=17814577077858178746",
     200, 0, 4.440892098500626e-16, 0.0, 1e-12, "pass"),
    ("state-count", "ell=2;delta_at=0.0625;n=16384;state=11;seed=11822541555508041875;k=854.6719160918663",
     64, 0, 0.0, 6.103515625e-05, 0.0, "pass"),
    ("inv-ns-ell2", "ell=2;delta_at=0.0625;n=4096;state=11;seed=9886374564974907341",
     64, 0, 0.0010338483406225635, 0.0078125, 1.3282165151065057e-05, "pass"),
    ("inv-ns-ell3", "ell=3;delta_at=0.0625;n=4096;state=111;seed=1834076429463931431",
     64, 0, 0.0019474447186894513, 0.0234375, 4.9425754356936314e-05, "pass"),
    ("mse-ell2", "ell=2;delta_at=0.0625;n=4096;state=11;seed=7100916563176246484",
     64, 2, 0.0001777380517730665, 0.0008636248934287309, 9.417812837111747e-05, "pass"),
    ("mse-ell3", "ell=3;delta_at=0.0625;n=4096;state=111;seed=12795930643750216699",
     64, 2, 0.00036006781821978803, 0.0018890680759980954, 0.00019467253811380938, "pass"),
    ("azuma-first-passage", "n=100;gamma=5.0;kind=first-passage;seed=10993054308798450863",
     64, 0, 0.0, 0.00037266531720786707, 0.0, "pass"),
    ("azuma-fixed", "n=100;gamma=5.0;kind=fixed;seed=10941010623442224532",
     12, 0, 0.0, 0.00037266531720786707, 0.0, "pass"),
    ("azuma-random", "n=100;gamma=5.0;kind=random;seed=18337710090860361467",
     12, 0, 0.0, 0.00037266531720786707, 0.0, "pass"),
    ("deviation", "ell=2;n=4096;memory=4;delta=exp:1;seed=5296252838901649008",
     64, 0, 0.0, 5.820766091346741e-11, 0.0, "pass"),
    ("truncation", "count=3;ell=3;n=4096;delta=exp:1;seed=12052470049535443406",
     3, 0, -467.5803423652619, 0.0, 1e-09, "pass"),
    ("chaining", "count=3;ell=3;n=4096;delta=exp:1;seed=11370570582814665992",
     3, 0, -69.36701608727587, 0.0, 1e-09, "pass"),
]


def test_verify_all_rows_are_pinned(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["verify", "all", "--seed", "7", "--trials", "64", "--count", "3",
                 "--out", str(out)]) == 0
    rows = [r.split(",") for r in read_data_lines(out)[1:]]
    assert len(rows) == len(VERIFY_ALL_ROWS)
    for row, want in zip(rows, VERIFY_ALL_ROWS):
        lemma, params, trials, failures, empirical, bound, slack, verdict = want
        assert row[:4] + row[7:] == [lemma, params, str(trials), str(failures), verdict]
        # floats within the exact-check tolerances, so another kernel backend also passes
        got = [float(v) for v in row[4:7]]
        assert got == pytest.approx([empirical, bound, slack], rel=1e-9, abs=1e-12)
