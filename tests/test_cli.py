import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcluster
import gcluster.bench as bench_mod
from gcluster import stats
from gcluster import (
    Dataset,
    Partition,
    evaluate,
    kmeans_gc,
    load_csv,
    standardize,
    wards_gc,
    write_csv,
)
from gcluster.cli import main

from conftest import deadline, nearly_constant_column


def run_cli(*argv):
    return main(list(argv))


def gen_instance(tmp_path, n=60, m=3, seed=7, dist="normal"):
    path = tmp_path / f"inst_{n}_{m}_{seed}.csv"
    code = run_cli(
        "gen", "--dist", dist, "--n", str(n), "--m", str(m),
        "--seed", str(seed), "--out", str(path),
    )
    assert code == 0
    return path


def test_gen_writes_named_instance(tmp_path, capsys):
    path = gen_instance(tmp_path, n=100, m=3, seed=7)
    assert capsys.readouterr().out.strip() == "N-100-3"
    ds = load_csv(path)
    assert (ds.n, ds.m) == (100, 3)


def test_gen_minimal_uniform(tmp_path, capsys):
    gen_instance(tmp_path, n=2, m=1, seed=1, dist="uniform")
    assert capsys.readouterr().out.strip() == "U-2-1"


def test_gen_rejects_n_below_two(tmp_path):
    code = run_cli(
        "gen", "--dist", "normal", "--n", "1", "--m", "3",
        "--seed", "0", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--m", "0"), ("--seed", "-1"), ("--seed", str(2**64))],
    ids=["m-zero", "seed-negative", "seed-too-large"],
)
def test_gen_rejects_bad_flag_values(tmp_path, capsys, flag, value):
    # --seed 2**64 once exited 3 (data error) where --seed -1 exited 2
    out = tmp_path / "x.csv"
    argv = ["gen", "--dist", "normal", "--out", str(out)]
    for key, given in {"--n": "5", "--m": "3", "--seed": "0", flag: value}.items():
        argv += [key, given]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_solve_wards_writes_feasible_report(tmp_path, capsys):
    path = gen_instance(tmp_path, n=100, m=3, seed=7)
    capsys.readouterr()  # drop the gen output
    report_path = tmp_path / "report.json"
    code = run_cli(
        "solve", "--algo", "wards", "--r2t", "0.6", "--input", str(path),
        "--standardize", "--report", str(report_path),
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("k=") and " r2=" in line and line.endswith("s")

    report = json.loads(report_path.read_text())
    assert report["algorithm"] == "wards"
    assert report["n"] == 100 and report["m"] == 3
    assert report["r2"] >= 0.6 - 1e-12
    assert report["k"] == len(set(report["assignment"]))
    assert len(report["r2_per_attribute"]) == 3
    assert report["standardization"]["applied"] is True
    assert report["standardization"]["denominator"] == "n-1"
    assert report["vns"] is None
    assert report["kmeans"] is None


def test_report_is_self_contained(tmp_path):
    path = gen_instance(tmp_path, n=50, m=2, seed=3)
    report_path = tmp_path / "r.json"
    assert run_cli(
        "solve", "--algo", "vns-wards", "--r2t", "0.7", "--input", str(path),
        "--standardize", "--seed", "5", "--report", str(report_path),
    ) == 0
    report = json.loads(report_path.read_text())

    raw = load_csv(path)
    record = report["standardization"]
    means = np.array(record["means"])
    sds = np.array(record["sds"])
    rebuilt = Dataset(
        (raw.values - means) / sds,
        standardized=True,
        column_means=means,
        column_sds=sds,
    )
    part = Partition.from_labels(rebuilt, report["assignment"])
    summary = evaluate(rebuilt, part)
    assert abs(summary.r2 - report["r2"]) <= 1e-9
    assert np.allclose(summary.r2_per_attribute, report["r2_per_attribute"], atol=1e-9)


def test_solve_rejects_threshold_at_one(tmp_path):
    path = gen_instance(tmp_path)
    code = run_cli("solve", "--algo", "kmeans", "--r2t", "1.0", "--input", str(path))
    assert code == 2


def test_solve_missing_input_is_data_error(tmp_path):
    code = run_cli(
        "solve", "--algo", "wards", "--r2t", "0.6",
        "--input", str(tmp_path / "nope.csv"),
    )
    assert code == 3


@pytest.mark.parametrize(
    "payload",
    [
        "r,g\n1,2\n3,4\n5,6\n".encode("latin-1") + "caf\u00e9,7\n".encode("latin-1"),
        b"1,2\n3,4\n" + b'"' + b"9" * 131_073 + b'",5\n',
    ],
    ids=["latin-1", "oversized-field"],
)
def test_solve_unreadable_csv_is_data_error(tmp_path, capsys, payload):
    # a Latin-1 file once exited 2 (usage); an oversized field escaped as a traceback
    path = tmp_path / "bad.csv"
    path.write_bytes(payload)
    code = run_cli("solve", "--algo", "wards", "--r2t", "0.5", "--input", str(path))
    assert code == 3
    assert str(path) in capsys.readouterr().err


def test_report_records_both_r2_values(tmp_path):
    path = gen_instance(tmp_path, n=80, m=3, seed=5)
    report_path = tmp_path / "r.json"
    assert run_cli(
        "solve", "--algo", "vns-wards", "--r2t", "0.7", "--input", str(path),
        "--standardize", "--seed", "2", "--report", str(report_path),
    ) == 0
    report = json.loads(report_path.read_text())
    assert math.isclose(report["r2_incremental"], report["r2"], rel_tol=stats.REL_TOL)


@pytest.mark.parametrize("algo", ["wards", "kmeans", "vns-wards", "vns-kmeans"])
def test_solve_evaluates_once_and_reports_the_certificate(tmp_path, monkeypatch, algo):
    calls = []

    def counted(ds, p):
        calls.append(p.k)
        return evaluate(ds, p)

    monkeypatch.setattr(stats, "evaluate", counted)
    path = gen_instance(tmp_path, n=40, m=2, seed=6)
    report_path = tmp_path / "r.json"
    assert run_cli(
        "solve", "--algo", algo, "--r2t", "0.7", "--input", str(path),
        "--standardize", "--rmax", "5", "--report", str(report_path),
    ) == 0
    assert len(calls) == 1
    report = json.loads(report_path.read_text())
    ds = standardize(load_csv(path))
    fresh = evaluate(ds, Partition.from_labels(ds, report["assignment"]))
    assert report["r2"] == fresh.r2  # bit for bit, from the assignment alone
    assert report["r2_per_attribute"] == fresh.r2_per_attribute.tolist()


@pytest.mark.parametrize("starter", ["wards", "kmeans"])
def test_report_records_vns_history(tmp_path, starter):
    path = gen_instance(tmp_path, n=60, m=2, seed=4)
    report_path = tmp_path / "r.json"
    assert run_cli(
        "solve", "--algo", f"vns-{starter}", "--r2t", "0.7", "--input", str(path),
        "--standardize", "--seed", "3", "--report", str(report_path),
    ) == 0
    report = json.loads(report_path.read_text())
    record = report["vns"]
    ds = standardize(load_csv(path))
    first = wards_gc(ds, 0.7) if starter == "wards" else kmeans_gc(ds, 0.7)
    ks = [k for k, _ in record["history"]]
    assert ks[0] == first.k
    assert all(a >= b for a, b in zip(ks, ks[1:]))
    assert ks[-1] == report["k"]
    assert len(record["history"]) == record["improvements"] + 1
    assert record["iterations"] >= record["improvements"]
    assert all(r2v >= 0.7 - 1e-12 for _, r2v in record["history"])
    assert report["kmeans"] is None  # only --algo kmeans records its probes


def test_report_records_kmeans_probes(tmp_path):
    path = gen_instance(tmp_path, n=100, m=3, seed=7)
    report_path = tmp_path / "r.json"
    assert run_cli(
        "solve", "--algo", "kmeans", "--r2t", "0.6", "--input", str(path),
        "--standardize", "--report", str(report_path),
    ) == 0
    report = json.loads(report_path.read_text())
    probes = report["kmeans"]["probes"]
    assert all(len(probe) == 3 for probe in probes)  # [k, r2, feasible], no times
    # k doubles from 2 until a probe is feasible, then bisects the bracket
    a, b, expected = 1, report["n"], []
    for _, _, feasible in probes:
        c = min(2 * a, b - 1) if b == report["n"] else (a + b) // 2
        expected.append(c)
        a, b = (a, c) if feasible else (c, b)
    assert [k for k, _, _ in probes] == expected and b - a == 1
    assert [k for k, _, _ in probes][:2] == [2, 4]
    assert any(not feasible for _, _, feasible in probes[2:])  # it did bisect
    assert all(feasible == (r2v >= 0.6 - 1e-12) for _, r2v, feasible in probes)
    assert [k for k, _, feasible in probes if feasible][-1] == report["k"]


def test_solve_nan_time_limit_is_usage_error(tmp_path):
    # NaN once passed the positivity check and ran with no limit
    path = gen_instance(tmp_path, n=20, m=2, seed=1)
    code = run_cli(
        "solve", "--algo", "vns-wards", "--r2t", "0.6", "--input", str(path),
        "--time-limit", "nan",
    )
    assert code == 2


@pytest.mark.parametrize("algo", ["wards", "kmeans", "vns-wards", "vns-kmeans"])
def test_solve_rejects_a_negative_seed(tmp_path, capsys, algo):
    # wards and kmeans once ignored it; vns-* exited 2 in numpy's wording
    path = gen_instance(tmp_path, n=20, m=2, seed=1)
    capsys.readouterr()  # drop the gen output
    code = run_cli("solve", "--algo", algo, "--r2t", "0.6", "--input", str(path), "--seed", "-1")
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"


@pytest.mark.parametrize("algo", ["wards", "kmeans", "vns-wards", "vns-kmeans"])
def test_solve_rejects_a_seed_above_64_bits(tmp_path, capsys, algo):
    # every algorithm once ran to exit 0, while gen exits 2 on the same seed
    path = gen_instance(tmp_path, n=20, m=2, seed=1)
    capsys.readouterr()
    code = run_cli(
        "solve", "--algo", algo, "--r2t", "0.6", "--input", str(path), "--seed", str(2**64)
    )
    assert code == 2
    assert capsys.readouterr().err == "error: seed must fit in an unsigned 64-bit integer\n"


def test_solve_without_standardize_reports_raw_data(tmp_path):
    path = gen_instance(tmp_path, n=30, m=2, seed=2)
    report_path = tmp_path / "r.json"
    assert run_cli(
        "solve", "--algo", "wards", "--r2t", "0.6", "--input", str(path),
        "--report", str(report_path),
    ) == 0
    report = json.loads(report_path.read_text())
    assert report["standardization"] == {"applied": False}
    assert list(report) == [
        "algorithm", "n", "m", "r2t", "k", "r2", "r2_incremental", "r2_per_attribute",
        "elapsed_seconds", "converged", "termination", "assignment", "seed",
        "standardization", "vns", "kmeans",
    ]


def test_solve_warns_of_a_zeroed_constant_column(tmp_path, capsys):
    path = tmp_path / "flat_first.csv"
    path.write_text("5,1,0\n5,2,4\n5,3,1\n5,7,2\n")
    report_path = tmp_path / "r.json"
    assert run_cli(
        "solve", "--algo", "wards", "--r2t", "0.6", "--input", str(path),
        "--standardize", "--report", str(report_path),
    ) == 0
    assert capsys.readouterr().err == "warning: constant columns zeroed by standardization: 0\n"
    assert json.loads(report_path.read_text())["standardization"]["degenerate_columns"] == [0]


def test_solve_degenerate_data_is_data_error(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("1,2\n1,2\n1,2\n")
    code = run_cli("solve", "--algo", "wards", "--r2t", "0.6", "--input", str(path))
    assert code == 3


def test_solve_names_a_column_standardize_cannot_center(tmp_path, capsys):
    path = tmp_path / "narrow.csv"
    write_csv(nearly_constant_column(), path)
    code = run_cli(
        "solve", "--algo", "wards", "--r2t", "0.6", "--input", str(path), "--standardize"
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "column 1 cannot be z-scored in float64" in err and "flag" not in err


# deviations of 5e307 square to inf: the chain once looped forever on the NaN
# drops, kmeans blamed the solver (exit 4), and standardize called sd inf small;
# with three rows kmeans probes k = 2, so its distances must not come first
OVERFLOWING_CSV = "-1e308,0.5\n0.1,0.2\n"
OVERFLOWING_CSV_3 = "-1e308,0.5\n0.1,0.2\n0.3,0.4\n"


@pytest.mark.parametrize("algo", ["wards", "kmeans", "vns-wards", "vns-kmeans"])
@pytest.mark.parametrize("flags", [[], ["--standardize"]], ids=["raw", "standardized"])
@pytest.mark.parametrize("text", [OVERFLOWING_CSV, OVERFLOWING_CSV_3], ids=["n2", "n3"])
def test_solve_rejects_values_too_large_to_square(tmp_path, capsys, text, algo, flags):
    path = tmp_path / "huge.csv"
    path.write_text(text)
    with deadline(5):
        code = run_cli("solve", "--algo", algo, "--r2t", "0.5", "--input", str(path), *flags)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: column 0 ")
    assert ("spread overflows" if flags else "too large for float64") in err


_ODD_CELLS = st.sampled_from([
    "1e308", "-1.7976931348623157e308", "1e154", "-9e153", "1e-320", "-4.9e-324", "-0.0",
    "1_000", "nan", "NaN", "-nan", "inf", "-Infinity", "1e400", "", "x",
])


@st.composite
def messy_csv(draw):
    """Text of at most 8 rows and 4 columns: finite values, each column at
    its own magnitude, a few cells swapped for extreme magnitudes or NaN and
    inf spellings, maybe a ragged row, maybe a header."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    scales = [draw(st.sampled_from([1.0, 1.0, 1e-300, 1e150, 1e300])) for _ in range(m)]
    rows = [[repr(draw(st.floats(-10, 10)) * c) for c in scales] for _ in range(n)]
    for _ in range(draw(st.integers(-2, 2))):  # none in three draws of five
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = draw(_ODD_CELLS)
    if draw(st.integers(0, 3)) == 3:
        i = draw(st.integers(0, n - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    lines = [",".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(0, ",".join(f"x{j}" for j in range(m)))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(
    text=messy_csv(),
    algo=st.sampled_from(bench_mod.ALGORITHMS),
    standardized=st.booleans(),
    r2t=st.sampled_from([0.3, 0.6, 0.9]),
)
@example(text=OVERFLOWING_CSV, algo="wards", standardized=False, r2t=0.5)
@example(text=OVERFLOWING_CSV_3, algo="kmeans", standardized=False, r2t=0.5)
@example(text=OVERFLOWING_CSV_3, algo="vns-kmeans", standardized=False, r2t=0.5)
def test_solve_exits_with_a_documented_code(text, algo, standardized, r2t):
    # exit 0 only with a finite R^2 that a from-scratch evaluation certifies
    with tempfile.TemporaryDirectory() as tmp:
        path, report = Path(tmp) / "data.csv", Path(tmp) / "report.json"
        path.write_text(text)
        argv = ["solve", "--algo", algo, "--r2t", str(r2t), "--input", str(path)]
        argv += ["--rmax", "3", "--report", str(report)] + ["--standardize"] * standardized
        with deadline(10):
            code = run_cli(*argv)
        assert code in (0, 2, 3, 4)
        if code == 0:
            out = json.loads(report.read_text())
            assert math.isfinite(out["r2"]) and stats.meets_threshold(out["r2"], r2t)
            ds = standardize(load_csv(path)) if standardized else load_csv(path)
            certified = evaluate(ds, Partition.from_labels(ds, out["assignment"]))
            assert certified.r2 == out["r2"]


def test_solve_is_deterministic_modulo_time(tmp_path):
    path = gen_instance(tmp_path, n=40, m=2, seed=9)
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run_cli(
            "solve", "--algo", "vns-wards", "--r2t", "0.6", "--input", str(path),
            "--standardize", "--seed", "11", "--report", str(out),
        ) == 0
        doc = json.loads(out.read_text())
        doc.pop("elapsed_seconds")
        reports.append(doc)
    assert reports[0] == reports[1]


def test_oracle_small_instance(tmp_path, capsys):
    path = tmp_path / "three.csv"
    path.write_text("0\n0\n3\n")
    assert run_cli("oracle", "--input", str(path), "--r2t", "0.5") == 0
    out = capsys.readouterr().out
    assert "optimal_k=2" in out
    assert "components" in out


def test_oracle_rejects_large_instance(tmp_path):
    path = gen_instance(tmp_path, n=13, m=2, seed=1)
    assert run_cli("oracle", "--input", str(path), "--r2t", "0.5") == 3


def test_bench_config_run(tmp_path, capsys):
    config = tmp_path / "suite.json"
    config.write_text(
        json.dumps(
            {
                "instances": [{"dist": "normal", "n": 14, "m": 2, "seed": 4}],
                "r2t": [0.6],
                "algorithms": ["wards", "vns-wards"],
                "rmax": 10,
            }
        )
    )
    out_csv = tmp_path / "rows.csv"
    code = run_cli("bench", "--config", str(config), "--out", str(out_csv))
    assert code == 0
    printed = capsys.readouterr().out
    assert "N-14-2" in printed and "wrote 2 rows" in printed
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 3


def test_bench_preset_runs_every_algorithm(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    code = run_cli(
        "bench", "--preset", "table2-small", "--seeds", "1", "--rmax", "1",
        "--out", str(out_csv),
    )
    assert code == 0
    assert "wrote 36 rows" in capsys.readouterr().out
    assert len(out_csv.read_text().strip().splitlines()) == 1 + 36


def test_bench_preset_needs_a_seed(tmp_path):
    out_csv = tmp_path / "rows.csv"
    assert run_cli("bench", "--preset", "table2-small", "--seeds", "0", "--out", str(out_csv)) == 2
    assert not out_csv.exists()


def test_bench_requires_exactly_one_suite_source(tmp_path):
    assert run_cli("bench") == 2
    assert run_cli("bench", "--preset", "table2-small", "--config", "x.json") == 2
    assert run_cli("bench", "--preset", "unknown") == 2


def test_out_of_memory_is_a_solver_error(tmp_path, monkeypatch, capsys):
    # once a traceback and exit 1
    def no_memory(*args):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr(bench_mod, "run_algorithm", no_memory)
    path = gen_instance(tmp_path, n=20, m=2, seed=1)
    assert run_cli("solve", "--algo", "wards", "--r2t", "0.6", "--input", str(path)) == 4
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 8.00 GiB\n"


def test_bench_empty_config_is_usage_error(tmp_path):
    config = tmp_path / "empty.json"
    config.write_text(json.dumps({"instances": [], "r2t": [0.6]}))
    assert run_cli("bench", "--config", str(config)) == 2


@pytest.mark.parametrize(
    "entry",
    [
        {"dist": "gaussian", "n": 20, "m": 2, "seed": 1},  # once became uniform
        {"n": 20, "m": 2, "seed": 1},  # once a KeyError traceback
    ],
)
def test_bench_config_bad_dist_is_data_error(tmp_path, capsys, entry):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"instances": [entry], "r2t": [0.6]}))
    out_csv = tmp_path / "rows.csv"
    assert run_cli("bench", "--config", str(config), "--out", str(out_csv)) == 3
    assert "dist" in capsys.readouterr().err
    assert not out_csv.exists()


def test_bench_failed_rows_exit_4_after_writing(tmp_path, capsys):
    config = tmp_path / "suite.json"
    config.write_text(
        json.dumps(
            {
                "instances": [{"dist": "uniform", "n": 12, "m": 2, "seed": 3}],
                "r2t": [0.6],
                "algorithms": ["wards", "no-such-algorithm"],
            }
        )
    )
    out_csv = tmp_path / "rows.csv"
    assert run_cli("bench", "--config", str(config), "--out", str(out_csv)) == 4
    captured = capsys.readouterr()
    assert "U-12-2" in captured.out and "wrote 2 rows" in captured.out
    assert "row failed" in captured.err and "no-such-algorithm" in captured.err
    assert len(out_csv.read_text().strip().splitlines()) == 3


@pytest.mark.parametrize(
    "text",
    [
        # an instance with no thresholds once wrote 0 rows and exited 0
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": 1}]}),
        '{"instances": [',  # malformed JSON once exited 2
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": 1}], "r2t": ["high"]}),
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": 1}], "r2t": 0.6}),
        # a threshold outside (0, 1) once ran the whole suite, then exited 4
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": 1}], "r2t": [0.6, 1.5]}),
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": 1}], "r2t": [0.6], "rmax": "ten"}),
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": 1}], "r2t": [0.6], "time_limit": "1h"}),
        json.dumps([{"dist": "normal", "n": 12, "m": 2, "seed": 1}]),
        # these once ran after a silent coercion and exited 0
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": 1}], "r2t": [0.6], "time_limit": math.nan}),
        json.dumps({"instances": [{"dist": "normal", "n": 20.7, "m": 2, "seed": 1}], "r2t": [0.6]}),
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2.0, "seed": 1}], "r2t": [0.6]}),
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": True}], "r2t": [0.6]}),
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": "1"}], "r2t": [0.6]}),
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": 1}], "r2t": [0.6], "rmax": 1.5}),
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": 1}], "r2t": [0.6], "algorithms": "wards"}),
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": 1}], "r2t": [0.6], "algorithms": ["wards", 1]}),
        # these once ran after float() read a string or a bool, and exited 0
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": 1}], "r2t": ["0.6"]}),
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": 1}], "r2t": [0.6], "time_limit": "5"}),
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": 1}], "r2t": [0.6], "time_limit": True}),
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": 1}], "r2t": [0.6], "time_limit": 10**400}),
        # these once exited 1 with a traceback, or blamed the key "dist"
        json.dumps({"instances": 5, "r2t": [0.6]}),
        json.dumps({"instances": None, "r2t": [0.6]}),
        json.dumps({"instances": {"dist": "normal", "n": 12, "m": 2, "seed": 1}, "r2t": [0.6]}),
    ],
    ids=["no-thresholds", "bad-json", "r2t-word", "r2t-scalar", "r2t-out-of-range",
         "rmax-word", "time-limit-word", "not-an-object", "time-limit-nan", "n-float",
         "m-float", "seed-bool", "seed-string", "rmax-float", "algorithms-string",
         "algorithms-non-string", "r2t-string", "time-limit-string", "time-limit-bool",
         "time-limit-huge", "instances-number", "instances-null", "instances-object"],
)
def test_bench_config_is_checked_before_solving(tmp_path, capsys, text):
    config = tmp_path / "suite.json"
    config.write_text(text)
    out_csv = tmp_path / "rows.csv"
    assert run_cli("bench", "--config", str(config), "--out", str(out_csv)) == 3
    assert "error:" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("r2t", [0.6, "0.6"], ids=["scalar", "string"])
def test_bench_config_names_an_r2t_that_is_not_a_list(tmp_path, capsys, r2t):
    # a scalar was once worded "'float' object is not iterable", and a string
    # was read one character at a time and blamed "got '0'"
    config = tmp_path / "suite.json"
    config.write_text(
        json.dumps({"instances": [{"dist": "normal", "n": 12, "m": 2, "seed": 1}], "r2t": r2t})
    )
    out_csv = tmp_path / "rows.csv"
    assert run_cli("bench", "--config", str(config), "--out", str(out_csv)) == 3
    assert capsys.readouterr().err == f"error: r2t must be a list of thresholds, got {r2t!r}\n"
    assert not out_csv.exists()


def test_solve_uncertified_partition_is_solver_error(tmp_path, monkeypatch, capsys):
    # a solver whose partition claims R^2 = 1 while its labels form one group
    def lying_wards(ds, r2t):
        labels = np.zeros(ds.n, dtype=np.int64)
        one = Partition.from_labels(ds, labels)
        return Partition(labels, one.sizes, one.sums, evaluate(ds, one).sst, 0)

    monkeypatch.setattr(bench_mod, "wards_gc", lying_wards)
    path = gen_instance(tmp_path, n=20, m=2, seed=1)
    code = run_cli("solve", "--algo", "wards", "--r2t", "0.6", "--input", str(path))
    assert code == 4
    assert "threshold" in capsys.readouterr().err


def test_bench_per_attribute_output(tmp_path, capsys):
    config = tmp_path / "suite.json"
    config.write_text(
        json.dumps(
            {
                "instances": [{"dist": "uniform", "n": 12, "m": 3, "seed": 2}],
                "r2t": [0.6],
                "algorithms": ["wards"],
            }
        )
    )
    code = run_cli(
        "bench", "--config", str(config), "--out", str(tmp_path / "r.csv"),
        "--per-attribute",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "R2_j:" in out
    line = next(l for l in out.splitlines() if "R2_j:" in l)
    assert len(line.split("R2_j:")[1].split()) == 3  # one ratio per attribute


def test_gen_unwritable_path_is_data_error(tmp_path):
    code = run_cli(
        "gen", "--dist", "normal", "--n", "5", "--m", "2", "--seed", "0",
        "--out", str(tmp_path / "no_such_dir" / "x.csv"),
    )
    assert code == 3


def test_solve_infeasible_configuration(tmp_path):
    path = gen_instance(tmp_path, n=20, m=2, seed=1)
    code = run_cli(
        "solve", "--algo", "vns-wards", "--r2t", "0.6", "--input", str(path),
        "--rmax", "0",
    )
    assert code == 2


def test_console_entry_point_runs():
    # the subprocess imports the package this process imported, installed
    # or not: pytest's own pythonpath setting does not reach it
    here = str(Path(gcluster.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gcluster.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "solve" in proc.stdout
