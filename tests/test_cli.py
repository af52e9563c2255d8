import math
from pathlib import Path

import numpy as np
import pytest

from mdelta import lemmas
from mdelta.cli import main


def read_data_lines(path):
    return [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]


def test_nml_prints_exact_value(capsys):
    assert main(["nml", "--ell", "0", "--n", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - math.log2(2.5)) < 1e-12


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


def test_decode_depth_mismatch_fails(tmp_path):
    bits = tmp_path / "bits.txt"
    enc = tmp_path / "enc.bin"
    bits.write_text("0101\n")
    assert main(["encode", "--in", str(bits), "--out", str(enc), "--ell", "1"]) == 0
    assert main(["decode", "--in", str(enc), "--out", str(tmp_path / "d.txt"),
                 "--ell", "3"]) == 2


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


def test_verify_exit_code_on_failure(monkeypatch, tmp_path):
    failing = lemmas.VerificationReport(
        "domination", {}, 1, 1, empirical=1.0, bound=0.0, slack=0.0, verdict=False
    )
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


def test_validation_errors_exit_two(tmp_path):
    assert main(["bounds", "--n", "64", "--delta", "gauss:1"]) == 2
    assert main(["sample", "--source", str(tmp_path / "missing.txt"), "--n", "4",
                 "--out", str(tmp_path / "o.txt")]) == 2


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
