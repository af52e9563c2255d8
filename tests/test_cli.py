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


def test_too_few_trials_for_a_standard_error_exit_two(tmp_path):
    src = tmp_path / "src.txt"
    assert main(["gen-source", "--kind", "hypercube", "--ell", "1", "--delta-at", "0.1",
                 "--seed", "2", "--out", str(src)]) == 0
    assert main(["redundancy", "--source", str(src), "--n", "16", "--trials", "0"]) == 2
    assert main(["verify", "mse", "--trials", "1"]) == 2
    assert main(["verify", "inv-ns", "--trials", "1"]) == 2
    assert main(["verify", "azuma", "--trials", "0"]) == 2  # 0 is a count, not "unset"


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
