"""End-to-end tests of the command-line interface, run in process through
main() so exit codes and stdout/stderr are observable without subprocesses.
Fresh-interpreter tests confirm the console script and which scipy modules
an import or a command loads."""
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtsens
from mtsens import (
    Contrast,
    TreatmentMatrix,
    ignorance_region,
    load_confounder,
    load_outcome,
    robustness_value,
    select_dim,
)
from mtsens import cli
from mtsens.cli import main
from mtsens.errors import ConvergenceError


def _run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture(scope="module")
def linear_models(tmp_path_factory):
    """Simulated linear dataset plus fitted model files, shared read-only."""
    root = tmp_path_factory.mktemp("linear")
    data_dir = root / "data"
    models_dir = root / "models"
    rc = main(
        [
            "simulate",
            "--preset",
            "linear",
            "--seed",
            "3",
            "--n",
            "400",
            "--out-dir",
            str(data_dir),
        ]
    )
    assert rc == 0
    csv_path = data_dir / "linear_data.csv"
    rc = main(
        [
            "fit",
            "--treatments",
            str(csv_path),
            "--outcome",
            "y",
            "--m",
            "1",
            "--out-dir",
            str(models_dir),
        ]
    )
    assert rc == 0
    return {"csv": csv_path, "models": models_dir, "root": root}


def test_simulate_gwas_deterministic(tmp_path, monkeypatch):
    # identical argv from two working directories must produce identical
    # bytes, provenance lines included
    argv = [
        "simulate",
        "--preset",
        "gwas",
        "--seed",
        "7",
        "--n",
        "80",
        "--k",
        "12",
        "--out-dir",
        "out",
    ]
    dirs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        monkeypatch.chdir(d)
        assert main(list(argv)) == 0
        dirs.append(d)
    for fname in ("gwas_data.csv", "gwas_truth.json"):
        b0 = (dirs[0] / "out" / fname).read_bytes()
        b1 = (dirs[1] / "out" / fname).read_bytes()
        assert b0 == b1


def test_simulate_seed_changes_data(tmp_path):
    for seed in ("1", "2"):
        assert (
            main(
                [
                    "simulate",
                    "--preset",
                    "gwas",
                    "--seed",
                    seed,
                    "--n",
                    "50",
                    "--k",
                    "8",
                    "--out-dir",
                    str(tmp_path / seed),
                ]
            )
            == 0
        )
    a = (tmp_path / "1" / "gwas_data.csv").read_bytes()
    b = (tmp_path / "2" / "gwas_data.csv").read_bytes()
    assert a != b


def test_fit_writes_model_files(linear_models, capsys):
    for fname in ("factor_model.json", "confounder.json", "outcome.json"):
        assert (linear_models["models"] / fname).exists()
    doc = json.loads((linear_models["models"] / "outcome.json").read_text())
    assert "_provenance" in doc


def test_fit_prints_covariance_spectrum(linear_models, tmp_path, capsys):
    rc, out, _ = _run(
        ["fit", "--treatments", str(linear_models["csv"]), "--outcome", "y", "--m", "1",
         "--out-dir", str(tmp_path / "m")],
        capsys,
    )
    assert rc == 0
    rows = [l for l in linear_models["csv"].read_text().splitlines() if not l.startswith("#")]
    t = np.array([[float(v) for v in r.split(",")[:-1]] for r in rows[1:]])
    lam = np.linalg.eigvalsh(np.cov(t.T, bias=True))[::-1]
    expected = ", ".join(f"{v:.4g}" for v in lam[:10])
    assert f"covariance eigenvalues: {expected}\n" in out


def test_fit_select_dim_matches_fixed_m(tmp_path, capsys):
    # --select-dim builds one covariance for the choice and the fit; the
    # model files must equal those of --m at the chosen dimension
    rc, _, _ = _run(
        ["simulate", "--preset", "gwas", "--seed", "5", "--n", "400", "--k", "12",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert rc == 0
    csv_path = tmp_path / "gwas_data.csv"
    rc, out, _ = _run(
        ["fit", "--treatments", str(csv_path), "--outcome", "y", "--select-dim",
         "eigen_gap", "--out-dir", str(tmp_path / "sel")],
        capsys,
    )
    assert rc == 0
    m = int(re.search(r"fitted factor model: m = (\d+),", out).group(1))
    names, data = cli._read_table(str(csv_path))
    t_data = data[:, [i for i, name in enumerate(names) if name != "y"]]
    assert m == select_dim(TreatmentMatrix(t_data), method="eigen_gap")
    rc, _, _ = _run(
        ["fit", "--treatments", str(csv_path), "--outcome", "y", "--m", str(m),
         "--out-dir", str(tmp_path / "fixed")],
        capsys,
    )
    assert rc == 0
    for fname in ("factor_model.json", "confounder.json", "outcome.json"):
        docs = [json.loads((tmp_path / d / fname).read_text()) for d in ("sel", "fixed")]
        for doc in docs:
            del doc["_provenance"]
        assert docs[0] == docs[1], fname


def _write_csv(path, names, data):
    rows = [",".join(map(repr, row)) for row in np.asarray(data).tolist()]
    path.write_text(",".join(names) + "\n" + "\n".join(rows) + "\n")


def _model_lines(models_dir, fname):
    """A model file's lines without its provenance."""
    lines = (models_dir / fname).read_text().splitlines()
    return [line for line in lines if not line.startswith('"_provenance"')]


def test_fit_model_files_do_not_depend_on_where_the_outcome_is(tmp_path, capsys):
    # outcome as the first, middle or last column (the treatments a view or
    # a copy of the table) or as its own file: the same model files, and the
    # same arrays as the API's fits, bit for bit
    data = mtsens.gen_gwas(n=300, k=12, m=3, seed=4)
    t, y = data.treatments.data, data.y
    names = [f"t{j + 1}" for j in range(12)]
    for where, at in (("first", 0), ("middle", 6), ("last", 12)):
        _write_csv(tmp_path / f"{where}.csv", names[:at] + ["y"] + names[at:],
                   np.insert(t, at, y, axis=1))
    _write_csv(tmp_path / "t.csv", names, t)
    _write_csv(tmp_path / "y.csv", ["y"], y[:, None])
    runs = {where: (tmp_path / f"{where}.csv", "y") for where in ("first", "middle", "last")}
    runs["file"] = (tmp_path / "t.csv", str(tmp_path / "y.csv"))
    for where, (csv_path, outcome) in runs.items():
        rc, _, err = _run(["fit", "--treatments", str(csv_path), "--outcome", outcome,
                           "--m", "3", "--out-dir", str(tmp_path / where)], capsys)
        assert rc == 0, err
    files = ("factor_model.json", "confounder.json", "outcome.json")
    for where in ("first", "middle", "file"):
        for fname in files:
            assert _model_lines(tmp_path / where, fname) == _model_lines(
                tmp_path / "last", fname), (where, fname)

    tm = TreatmentMatrix(np.array(t))
    fm = mtsens.fit_ppca(tm, 3)
    cc = mtsens.conditional_confounder(fm)
    lin = mtsens.fit_linear(tm, y)
    models = tmp_path / "last"
    fm_file = mtsens.load_factor_model(models / "factor_model.json")
    cc_file = load_confounder(models / "confounder.json")
    lin_file = load_outcome(models / "outcome.json")
    pairs = [(fm_file.b_hat, fm.b_hat), (fm_file.singular_values, fm.singular_values),
             (fm_file.treatment_means, fm.treatment_means),
             (cc_file.coef, cc.coef), (cc_file.sigma_u_given_t, cc.sigma_u_given_t),
             (lin_file.tau_naive, lin.tau_naive)]
    for got, expected in pairs:
        assert got.tobytes() == expected.tobytes()
    assert fm_file.sigma2_t_given_u == fm.sigma2_t_given_u
    assert lin_file.intercept == lin.intercept
    assert lin_file.sigma2_y_given_t == lin.sigma2_y_given_t


@pytest.mark.parametrize("case, dependent", [("constant", ["t3"]), ("duplicate", ["t4"])])
def test_fit_singular_design_exit_2_names_the_columns(tmp_path, capsys, case, dependent):
    # a constant column centers to exact zeros, a duplicate to a singular
    # Gram: both leave the certified fit for the pivoted QR on [1, T]
    rng = np.random.default_rng(9)
    t = rng.normal(size=(60, 4))
    if case == "constant":
        t[:, 2] = 1.0
    else:
        t[:, 3] = t[:, 1]
    y = t @ np.array([1.0, -0.5, 0.2, 0.3]) + rng.normal(size=60)
    names = ["a", "b", "c", "d"]
    _write_csv(tmp_path / "t.csv", names + ["y"], np.column_stack([t, y]))
    rc, _, err = _run(["fit", "--treatments", str(tmp_path / "t.csv"), "--outcome", "y",
                       "--m", "1", "--out-dir", str(tmp_path / "m")], capsys)
    assert rc == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "SingularFitError"
    # the CLI names the CSV header's columns, the API t1..tk by position
    header = [names[int(label[1:]) - 1] for label in dependent]
    assert payload["message"].endswith(f"dependent columns: {header}")
    with pytest.raises(mtsens.SingularFitError) as exc:
        mtsens.fit_linear(TreatmentMatrix(t), y)
    assert exc.value.columns == dependent


@pytest.mark.parametrize("command", ["fit", "calibrate", "proxy"])
def test_overflowing_column_variance_exit_2(tmp_path, capsys, command):
    # a column of 1e160-scale values is finite, but its variance is not: fit
    # raised scipy's ValueError, calibrate wrote 0.0 for every other column
    # and proxy called the intercept and z dependent
    data = mtsens.gen_gwas(n=200, k=10, m=2, seed=7)
    t = data.treatments.data * np.append(1e160, np.ones(9))
    path = tmp_path / "data.csv"
    if command == "proxy":
        _write_csv(path, ["y", "t", "z"], np.column_stack([data.y, t[:, :2]]))
        argv = ["proxy", "--data", str(path)]
    else:
        _write_csv(path, [f"t{j + 1}" for j in range(10)] + ["y"], np.column_stack([t, data.y]))
        argv = [command, "--treatments", str(path), "--outcome", "y"]
        if command == "fit":
            argv += ["--m", "3", "--out-dir", str(tmp_path / "m")]
    rc, _, err = _run(argv, capsys)
    assert rc == 2, err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "InputFormatError"
    assert payload["message"] == "the variance of column 1 overflows; rescale it"


@pytest.mark.parametrize("command", ["fit", "calibrate"])
@pytest.mark.parametrize(
    "header, rc", [("a,a,y", 2), ("a,,y", 2), ("\ufeffy,a,b", 0)],
    ids=["repeated", "empty", "byte-order-mark"],
)
def test_header_names_unique_nonempty_and_without_bom(tmp_path, capsys, command, header, rc):
    # a spreadsheet's byte-order mark is not part of the first name "y"
    rng = np.random.default_rng(4)
    rows = "\n".join(",".join(map(repr, row)) for row in rng.normal(size=(30, 3)).tolist())
    path = tmp_path / "t.csv"
    path.write_text(header + "\n" + rows + "\n", encoding="utf-8")
    extra = {"fit": ["--m", "1", "--out-dir", str(tmp_path / "m")],
             "calibrate": ["--out", str(tmp_path / "c.tsv")]}[command]
    got, _, err = _run([command, "--treatments", str(path), "--outcome", "y", *extra], capsys)
    assert got == rc, err
    if rc:
        assert json.loads(err.strip().splitlines()[-1])["error"] == "InputFormatError"
    elif command == "calibrate":
        table = (tmp_path / "c.tsv").read_text().splitlines()
        assert [line.split("\t")[0] for line in table if not line.startswith("#")] == [
            "column", "a", "b"
        ]


def test_bounds_round_trip(linear_models, tmp_path, capsys):
    out = tmp_path / "bounds.json"
    rc, _, err = _run(
        [
            "bounds",
            "--models",
            str(linear_models["models"]),
            "--all-unitwise",
            "--r2",
            "0.5",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert rc == 0, err
    doc = json.loads(out.read_text())
    results = doc["results"]
    assert len(results) == 4
    ids = [r["contrast_id"] for r in results]
    assert ids == ["e1", "e2", "e3", "e4"]
    for r in results:
        assert r["bounded"]
        assert r["lower"] <= r["naive"] <= r["upper"]
        assert 0.0 <= r["rv"] <= 1.0


def test_bounds_r2_zero_collapses_to_naive(linear_models, tmp_path, capsys):
    out = tmp_path / "bounds0.json"
    rc, _, _ = _run(
        [
            "bounds",
            "--models",
            str(linear_models["models"]),
            "--contrast",
            "e1",
            "--r2",
            "0",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert rc == 0
    (rec,) = json.loads(out.read_text())["results"]
    assert rec["lower"] == rec["naive"] == rec["upper"]


def test_bounds_r2_grid(linear_models, tmp_path, capsys):
    out = tmp_path / "grid.json"
    rc, _, _ = _run(
        [
            "bounds",
            "--models",
            str(linear_models["models"]),
            "--contrast",
            "e1",
            "--r2",
            "0:1:5",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert rc == 0
    results = json.loads(out.read_text())["results"]
    assert [r["r2_cap"] for r in results] == [0.0, 0.25, 0.5, 0.75, 1.0]
    widths = [r["upper"] - r["lower"] for r in results]
    assert widths == sorted(widths)


def _write_point(path, values):
    path.write_text(
        ",".join(f"t{j + 1}" for j in range(len(values))) + "\n"
        + ",".join(repr(float(v)) for v in values) + "\n"
    )
    return path


def test_bounds_grid_equals_per_cap_regions(linear_models, tmp_path, capsys):
    # every (contrast, cap) record against its own ignorance_region call
    p1 = _write_point(tmp_path / "p1.csv", [0.5, -1.0, 2.0, 0.25])
    p2 = _write_point(tmp_path / "p2.csv", [-0.5, 0.0, 1.0, 0.75])
    grid = [0.0, 0.1, 0.37, 1.0]
    out = tmp_path / "grid.json"
    rc, _, err = _run(
        ["bounds", "--models", str(linear_models["models"]), "--all-unitwise",
         "--contrast", f"{p1},{p2}", "--r2", ",".join(map(str, grid)),
         "--out", str(out)],
        capsys,
    )
    assert rc == 0, err
    records = json.loads(out.read_text())["results"]
    cc = load_confounder(linear_models["models"] / "confounder.json")
    outcome = load_outcome(linear_models["models"] / "outcome.json")
    contrasts = [Contrast.unit(4, j) for j in range(4)]
    contrasts.append(Contrast(np.loadtxt(p1, delimiter=",", skiprows=1),
                              np.loadtxt(p2, delimiter=",", skiprows=1)))
    assert len(records) == len(contrasts) * len(grid)
    sigma = outcome.sigma()
    for i, c in enumerate(contrasts):
        naive = float(outcome.mean(c.t1)) - float(outcome.mean(c.t2))
        rv = robustness_value(naive, cc, sigma, c)
        for r2, rec in zip(grid, records[i * len(grid):(i + 1) * len(grid)]):
            region = ignorance_region(naive, cc, sigma, r2, c)
            assert rec["naive"] == naive
            assert rec["r2_cap"] == r2
            assert rec["bounded"] is region.bounded is True
            assert rec["lower"] == pytest.approx(region.lower, rel=1e-15, abs=0)
            assert rec["upper"] == pytest.approx(region.upper, rel=1e-15, abs=0)
            assert rec["rv"] == rv.value
    assert records[0]["lower"] == records[0]["naive"] == records[0]["upper"]


def test_bounds_grid_outside_unit_interval_exit_2(linear_models, tmp_path, capsys):
    out = tmp_path / "bounds.json"
    rc, _, err = _run(
        ["bounds", "--models", str(linear_models["models"]), "--all-unitwise",
         "--r2", "0.5,1.5", "--out", str(out)],
        capsys,
    )
    assert rc == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "CalibrationError"
    assert not out.exists()


def test_rv_command(linear_models, tmp_path, capsys):
    out = tmp_path / "rv.json"
    rc, stdout, _ = _run(
        [
            "rv",
            "--models",
            str(linear_models["models"]),
            "--all-unitwise",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert rc == 0
    assert "RV" in stdout
    results = json.loads(out.read_text())["results"]
    assert len(results) == 4
    for r in results:
        assert 0.0 <= r["rv"] <= 1.0


def test_calibrate_command(linear_models, tmp_path, capsys):
    out = tmp_path / "bench.tsv"
    rc, _, _ = _run(
        [
            "calibrate",
            "--treatments",
            str(linear_models["csv"]),
            "--outcome",
            "y",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert rc == 0
    lines = [
        l for l in out.read_text().splitlines() if l and not l.startswith("#")
    ]
    assert lines[0] == "column\tpartial_r2"
    assert len(lines) == 5
    for line in lines[1:]:
        name, val = line.split("\t")
        assert 0.0 <= float(val) <= 1.0


def test_calibrate_duplicated_column(tmp_path, capsys):
    # two variants in perfect LD: the table scores both copies 0 and every
    # other column as its per-column lstsq refit does
    rng = np.random.default_rng(41)
    t = rng.integers(0, 2, size=(120, 4)).astype(float)
    t[:, 3] = t[:, 1]
    y = t @ np.array([1.0, -0.5, 0.8, 0.0]) + rng.normal(size=120)
    csv_path = tmp_path / "dup.csv"
    rows = [",".join(map(repr, row)) for row in np.column_stack([t, y]).tolist()]
    csv_path.write_text("a,b,c,b_copy,y\n" + "\n".join(rows) + "\n")
    out = tmp_path / "bench.tsv"
    rc, _, err = _run(
        ["calibrate", "--treatments", str(csv_path), "--outcome", "y", "--out", str(out)],
        capsys,
    )
    assert rc == 0, err

    def rss(cols):
        x = np.column_stack([np.ones(120), t[:, cols]])
        resid = y - x @ np.linalg.lstsq(x, y, rcond=None)[0]
        return resid @ resid

    full = rss([0, 1, 2, 3])
    reference = {}
    for j, name in enumerate(["a", "b", "c", "b_copy"]):
        rest = rss([c for c in range(4) if c != j])
        reference[name] = (rest - full) / rest
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0] == "column\tpartial_r2"
    got = {name: float(v) for name, v in (l.split("\t") for l in lines[1:])}
    assert list(got) == list(reference)
    assert got["b"] == got["b_copy"] == 0.0
    for name, value in reference.items():
        assert got[name] == pytest.approx(value, abs=1e-10)


def test_mcc_command(linear_models, tmp_path, capsys):
    out_dir = tmp_path / "mcc"
    rc, stdout, err = _run(
        [
            "mcc",
            "--models",
            str(linear_models["models"]),
            "--treatments",
            str(linear_models["csv"]),
            "--outcome",
            "y",
            "--norm",
            "l2",
            "--r2-cap",
            "0.1",
            "--out-dir",
            str(out_dir),
        ],
        capsys,
    )
    assert rc == 0, err
    summary = json.loads((out_dir / "mcc_summary.json").read_text())
    assert summary["achieved_r2"] <= 0.1 + 1e-8
    assert summary["achieved_norm"] <= summary["naive_norm"] + 1e-12
    assert len(summary["gamma_star"]) == 1
    assert "duality_gap" in summary
    lines = [
        l
        for l in (out_dir / "mcc_report.tsv").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    # header plus one row per treatment column, named from the CSV header
    assert len(lines) == 5
    assert lines[1].split("\t")[0] == "t1"


def _mcc_args(models, treatments, out_dir, outcome="y"):
    return ["mcc", "--models", str(models), "--treatments", str(treatments),
            "--outcome", outcome, "--out-dir", str(out_dir)]


def test_mcc_ids_are_the_header_names(linear_models, tmp_path, capsys):
    # only the header row is read: provenance and blank rows before it are
    # skipped, and the data rows after it are never parsed
    csv_path = tmp_path / "named.csv"
    csv_path.write_text("# provenance\n\n alpha,y,beta , gamma,delta\n1,2,x,4,5\n")
    out_dir = tmp_path / "mcc"
    rc, _, err = _run(_mcc_args(linear_models["models"], csv_path, out_dir), capsys)
    assert rc == 0, err
    rows = [
        l.split("\t")
        for l in (out_dir / "mcc_report.tsv").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert [r[0] for r in rows[1:]] == ["alpha", "beta", "gamma", "delta"]


@pytest.mark.parametrize(
    "header, outcome, error",
    [
        ("t1,t2,t3,y", "y", "DimensionError"),
        ("t1,t2,t3,t4,t5,y", "y", "DimensionError"),
        ("t1,t2,t3,t4,y", "nosuch", "InputFormatError"),
    ],
)
def test_mcc_header_errors_exit_2(linear_models, tmp_path, capsys, header, outcome, error):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text(header + "\n" + ",".join(["1"] * header.count(",")) + ",1\n")
    rc, _, err = _run(
        _mcc_args(linear_models["models"], csv_path, tmp_path / "mcc", outcome), capsys
    )
    assert rc == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == error
    if error == "InputFormatError":
        assert "nosuch" in payload["message"]


@pytest.fixture(scope="module")
def binary_models(tmp_path_factory):
    """Simulated binary dataset plus fitted probit model files, shared
    read-only."""
    root = tmp_path_factory.mktemp("binary")
    data_dir = root / "data"
    models_dir = root / "models"
    assert (
        main(
            [
                "simulate",
                "--preset",
                "nonlinear-binary",
                "--seed",
                "5",
                "--n",
                "900",
                "--out-dir",
                str(data_dir),
            ]
        )
        == 0
    )
    csv_path = data_dir / "nonlinear-binary_data.csv"
    rc = main(
        [
            "fit",
            "--treatments",
            str(csv_path),
            "--outcome",
            "y",
            "--m",
            "1",
            "--outcome-kind",
            "probit",
            "--out-dir",
            str(models_dir),
        ]
    )
    assert rc == 0
    return {"csv": csv_path, "models": models_dir}


def _rr_args(models, csv_path, out):
    return [
        "rr",
        "--models",
        str(models),
        "--treatments",
        str(csv_path),
        "--outcome",
        "y",
        "--contrast",
        "e1",
        "--grid=-0.5:0.5:11",
        "--out",
        str(out),
    ]


def test_rr_command(binary_models, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "rr.tsv"
    rc, _, err = _run(
        _rr_args(binary_models["models"], binary_models["csv"], out), capsys
    )
    assert rc == 0, err
    lines = [
        l for l in out.read_text().splitlines() if l and not l.startswith("#")
    ]
    assert lines[0] == "signed_r2\trr"
    assert len(lines) == 12
    values = [tuple(float(v) for v in l.split("\t")) for l in lines[1:]]
    assert all(rr > 0 and math.isfinite(rr) for _, rr in values)
    assert values[5][0] == 0.0


def test_rr_treatments_missing_a_column_exit_2(binary_models, tmp_path, capsys):
    # the model was fitted on t1..t4; this CSV drops t4 but keeps y
    rows = [
        l.split(",")
        for l in binary_models["csv"].read_text().splitlines()
        if l and not l.startswith("#")
    ]
    short = tmp_path / "short.csv"
    short.write_text("\n".join(",".join(r[:3] + r[4:]) for r in rows) + "\n")
    capsys.readouterr()
    rc, _, err = _run(
        _rr_args(binary_models["models"], short, tmp_path / "rr.tsv"), capsys
    )
    assert rc == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "DimensionError"


@pytest.mark.parametrize("direction", ["a,1,1", "nan,1,1", "nan", "inf"])
def test_rr_bad_direction_exit_2(binary_models, tmp_path, capsys, direction):
    capsys.readouterr()
    args = _rr_args(binary_models["models"], binary_models["csv"], tmp_path / "rr.tsv")
    rc, _, err = _run(args + [f"--direction={direction}"], capsys)
    assert rc == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "InputFormatError"


def test_proxy_command(tmp_path, capsys):
    rng = np.random.default_rng(11)
    n = 4000
    u = rng.normal(0.0, math.sqrt(0.6), n)
    z = u + rng.normal(0.0, math.sqrt(0.4), n)
    t = 0.9 * u + rng.normal(size=n)
    y = 0.5 * t + 1.2 * u + rng.normal(size=n)
    csv_path = tmp_path / "proxy.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("y,t,z\n")
        for row in zip(y, t, z):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    out = tmp_path / "proxy.json"
    rc, _, err = _run(
        [
            "proxy",
            "--data",
            str(csv_path),
            "--sigma-u2",
            "0.7,0.9",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert rc == 0, err
    doc = json.loads(out.read_text())
    assert doc["domain"]["lo"] < 0.7
    assert doc["region"]["bounded"]
    assert doc["region"]["lower"] <= doc["fit"]["tilde_tau"] <= doc["region"]["upper"]
    assert len(doc["adjusted"]) == 2
    assert all(math.isfinite(rec["tau"]) for rec in doc["adjusted"])


def test_missing_outcome_column_exit_2(linear_models, capsys):
    rc, _, err = _run(
        [
            "fit",
            "--treatments",
            str(linear_models["csv"]),
            "--outcome",
            "nosuch",
            "--m",
            "1",
            "--out-dir",
            str(linear_models["root"] / "junk"),
        ],
        capsys,
    )
    assert rc == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "InputFormatError"
    assert "nosuch" in payload["message"]


def _fit_exit_2_input_error(csv_path, out_dir, capsys, *extra):
    rc, _, err = _run(
        ["fit", "--treatments", str(csv_path), "--outcome", "y", "--m", "1",
         "--out-dir", str(out_dir), *extra],
        capsys,
    )
    assert rc == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "InputFormatError"


def test_fit_nonfinite_cell_exit_2(linear_models, tmp_path, capsys):
    lines = linear_models["csv"].read_text().splitlines()
    row = len(lines) - 3
    lines[row] = "nan," + lines[row].split(",", 1)[1]
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    _fit_exit_2_input_error(bad, tmp_path / "m", capsys)


def test_fit_probit_non_binary_outcome_exit_2(linear_models, tmp_path, capsys):
    _fit_exit_2_input_error(
        linear_models["csv"], tmp_path / "m", capsys, "--outcome-kind", "probit"
    )


def test_fit_empirical_degree_zero_exit_2(linear_models, tmp_path, capsys):
    _fit_exit_2_input_error(
        linear_models["csv"], tmp_path / "m", capsys,
        "--outcome-kind", "empirical", "--degree", "0",
    )


def test_missing_models_dir_exit_2(tmp_path, capsys):
    rc, _, err = _run(
        ["bounds", "--models", str(tmp_path / "nowhere"), "--contrast", "e1"],
        capsys,
    )
    assert rc == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert "error" in payload


def test_unknown_outcome_kind_exit_2(linear_models, tmp_path, capsys):
    models = tmp_path / "models"
    models.mkdir()
    for name in ("confounder.json", "outcome.json"):
        (models / name).write_text((linear_models["models"] / name).read_text())
    doc = json.loads((models / "outcome.json").read_text())
    doc["kind"] = "lognormal"
    (models / "outcome.json").write_text(json.dumps(doc))
    rc, _, err = _run(["bounds", "--models", str(models), "--contrast", "e1"], capsys)
    assert rc == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "InputFormatError"
    assert "unknown outcome kind 'lognormal'" in payload["message"]


def _empirical(coef):
    return {"kind": "empirical", "residual_quantiles": [-1.0, 0.0, 1.0],
            "sigma2_y_given_t": 1.0,
            "mean": {"type": "polynomial", "degree": 2, "intercept": 0.0, "coef": coef}}


@pytest.mark.parametrize(
    "outcome, error",
    [
        ({"tau_naive": [1.0]}, "DimensionError"),
        ({"tau_naive": None}, "InputFormatError"),
        ({"tau_naive": [None, 1.0, 1.0, 1.0]}, "InputFormatError"),
        (_empirical([[1.0, 0.5]]), "DimensionError"),
        (_empirical([[None, 0.5]] + [[1.0, 0.5]] * 3), "InputFormatError"),
    ],
    ids=["short", "null", "null-entry", "empirical-k1", "empirical-null-coef"],
)
@pytest.mark.parametrize("command", ["rv", "bounds", "mcc"])
def test_malformed_outcome_file_exit_2(linear_models, tmp_path, capsys, outcome, error,
                                       command):
    # an outcome whose vector is too short, null or holds a null, or whose
    # polynomial mean has the wrong k or a null coefficient, checked once on
    # load for every command
    models = tmp_path / "models"
    models.mkdir()
    (models / "confounder.json").write_text(
        (linear_models["models"] / "confounder.json").read_text())
    doc = json.loads((linear_models["models"] / "outcome.json").read_text())
    (models / "outcome.json").write_text(json.dumps({**doc, **outcome}))
    argv = [command, "--models", str(models)]
    argv += ["--out-dir", str(tmp_path / "mcc")] if command == "mcc" else ["--contrast", "e1"]
    rc, _, err = _run(argv, capsys)
    assert rc == 2, err
    assert json.loads(err.strip().splitlines()[-1])["error"] == error


@pytest.fixture(scope="module")
def small_models(tmp_path_factory):
    """Parsed model files, k = 5 and m = 2: the confounder, and a gaussian
    and an empirical outcome."""
    root = tmp_path_factory.mktemp("small")
    data = mtsens.gen_gwas(n=300, k=5, m=2, frac_large=0.4, seed=1)
    cc = mtsens.conditional_confounder(mtsens.fit_ppca(data.treatments, 2))
    mtsens.save_confounder(cc, root / "confounder.json")
    for kind, fit in (("gaussian", mtsens.fit_linear), ("empirical", mtsens.fit_empirical)):
        mtsens.save_outcome(fit(data.treatments, data.y), root / f"{kind}.json")
    return {name: json.loads((root / f"{name}.json").read_text())
            for name in ("confounder", "gaussian", "empirical")}


def _numeric_leaves(obj, path=()):
    """Paths to the numbers of a parsed model file, provenance aside."""
    if isinstance(obj, dict):
        items = ((key, v) for key, v in obj.items() if key != "_provenance")
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path] if type(obj) in (int, float) else []
    return [leaf for key, v in items for leaf in _numeric_leaves(v, path + (key,))]


# corruptions that the constructors must refuse, and the others
_REFUSED = ("null", "NaN", "Infinity", "-Infinity", "1e400", "asymmetric",
            "negative_eigenvalue")
_OTHER = ("string", "drop", "add", "nest")


def _corrupted_text(doc, corruption, path):
    """The JSON text of doc with the leaf at path corrupted, or, with no
    path, with the confounder's Sigma made asymmetric or indefinite by
    1e-6 of its scale."""
    doc = json.loads(json.dumps(doc))
    if path is None:
        sigma = np.array(doc["sigma_u_given_t"])
        step = 1e-6 * float(np.abs(sigma).max())
        if corruption == "asymmetric":
            sigma[0, 1] += step
        else:
            sigma -= (np.linalg.eigvalsh(sigma)[0] + step) * np.eye(len(sigma))
        doc["sigma_u_given_t"] = sigma.tolist()
        return json.dumps(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if corruption == "drop":
        del parent[last]
    elif corruption == "add":
        parent.insert(last, parent[last])
    elif corruption == "nest":
        parent[last] = [parent[last]]
    else:
        parent[last] = "__corrupt__"
        token = '"x"' if corruption == "string" else corruption
        return json.dumps(doc).replace('"__corrupt__"', token)
    return json.dumps(doc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_corrupted_model_files_exit_0_2_or_3(small_models, tmp_path_factory, data):
    # one corrupted number in confounder.json or outcome.json: rv, bounds and
    # mcc never raise, a refused file exits 2 with a JSON error, and an rv
    # that succeeds writes finite values only
    kind = data.draw(st.sampled_from(["gaussian", "empirical"]))
    corruption = data.draw(st.sampled_from(_REFUSED + _OTHER))
    sigma_level = corruption in ("asymmetric", "negative_eigenvalue")
    target = "confounder" if sigma_level else data.draw(st.sampled_from(["confounder", kind]))
    leaves = _numeric_leaves(small_models[target])
    if corruption in ("drop", "add"):
        leaves = [leaf for leaf in leaves if isinstance(leaf[-1], int)]
    path = None if sigma_level else data.draw(st.sampled_from(leaves))
    root = tmp_path_factory.mktemp("fuzz")
    (root / "models").mkdir()
    for name, fname in (("confounder", "confounder.json"), (kind, "outcome.json")):
        doc = small_models[name]
        text = _corrupted_text(doc, corruption, path) if name == target else json.dumps(doc)
        (root / "models" / fname).write_text(text)
    models = str(root / "models")
    argvs = {
        "rv": ["rv", "--models", models, "--contrast", "e1", "--out", str(root / "rv.json")],
        "bounds": ["bounds", "--models", models, "--contrast", "e1", "--r2", "0.5,1"],
        "mcc": ["mcc", "--models", models, "--out-dir", str(root / "mcc")],
    }
    for command, argv in argvs.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 2, 3), (command, corruption, path, err.getvalue())
        if rc != 0:
            payload = json.loads(err.getvalue().strip().splitlines()[-1])
            assert set(payload) == {"error", "message"}
        if corruption in _REFUSED:
            assert rc == 2, (command, corruption, path)
        if command == "rv" and rc == 0:
            for rec in json.loads((root / "rv.json").read_text())["results"]:
                assert math.isfinite(rec["naive"]) and math.isfinite(rec["rv"]), rec


@pytest.fixture(scope="module")
def small_panel(tmp_path_factory):
    """A 60-row panel of k = 4 treatments and a binary y, as the CSV's table
    lines, with gaussian and probit model files fitted to it (m = 1)."""
    root = tmp_path_factory.mktemp("panel")
    argv = ["simulate", "--preset", "nonlinear-binary", "--n", "60", "--seed", "5"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out-dir", str(root)]) == 0
        csv_path = root / "nonlinear-binary_data.csv"
        for kind in ("gaussian", "probit"):
            assert main(["fit", "--treatments", str(csv_path), "--outcome", "y", "--m", "1",
                         "--outcome-kind", kind, "--out-dir", str(root / kind)]) == 0
    lines = [ln for ln in csv_path.read_text().splitlines() if not ln.startswith("#")]
    return {"csv": csv_path, "lines": lines, "gaussian": root / "gaussian",
            "probit": root / "probit"}


def _exit_0_2_or_3(argv):
    """main(argv), which must not raise; the exit code is 0, 2 or 3, and a
    nonzero one comes with a JSON {"error", "message"} on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3), (argv, err.getvalue())
    if rc != 0:
        payload = json.loads(err.getvalue().strip().splitlines()[-1])
        assert set(payload) == {"error", "message"}, argv
    return rc


_CSV_CORRUPTIONS = ("ragged", "nan", "inf", "1e400", "word", "empty_name", "repeated_name",
                    "no_header", "bom", "hash", "quoted", "empty")


def _corrupted_csv(lines, corruption, row, col):
    """The text of a table (a header and data lines) with one corruption at
    data row row (1-based; 0 is the header) and column col."""
    rows = [ln.split(",") for ln in lines]
    if corruption == "empty":
        return ""
    if corruption == "no_header":
        rows = rows[1:]
    elif corruption == "ragged":
        rows[row] = rows[row][:-1]
    elif corruption in ("empty_name", "repeated_name"):
        rows[0][col] = "" if corruption == "empty_name" else rows[0][col - 1]
    elif corruption != "bom":
        cell = rows[row][col]
        rows[row][col] = {"word": "abc", "hash": cell + "#1",
                          "quoted": f'"{cell}"'}.get(corruption, corruption)
    text = "\n".join(",".join(r) for r in rows) + "\n"
    return "\ufeff" + text if corruption == "bom" else text


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_corrupted_csv_exit_0_2_or_3(small_panel, tmp_path_factory, data):
    # one corruption of the panel: fit, calibrate, rr, proxy (on its first
    # three columns) and mcc --treatments never raise, and a refused table
    # exits 2 with a JSON error
    lines = small_panel["lines"]
    corruption = data.draw(st.sampled_from(_CSV_CORRUPTIONS))
    row = data.draw(st.integers(1, len(lines) - 1))
    col = data.draw(st.integers(0, 4))
    root = tmp_path_factory.mktemp("csv")
    panel, proxy = root / "panel.csv", root / "proxy.csv"
    panel.write_text(_corrupted_csv(lines, corruption, row, col), encoding="utf-8")
    three = [",".join(ln.split(",")[:3]) for ln in lines]
    proxy.write_text(_corrupted_csv(three, corruption, row, min(col, 2)), encoding="utf-8")
    rcs = [_exit_0_2_or_3(argv) for argv in (
        ["fit", "--treatments", str(panel), "--outcome", "y", "--m", "1",
         "--out-dir", str(root / "fit")],
        ["calibrate", "--treatments", str(panel), "--outcome", "y",
         "--out", str(root / "cal.tsv")],
        ["rr", "--models", str(small_panel["probit"]), "--treatments", str(panel),
         "--outcome", "y", "--contrast", "e1", "--grid=-0.5:0.5:5",
         "--out", str(root / "rr.tsv")],
        ["proxy", "--data", str(proxy), "--out", str(root / "proxy.json")],
        ["mcc", "--models", str(small_panel["gaussian"]), "--treatments", str(panel),
         "--outcome", "y", "--out-dir", str(root / "mcc")],
    )]
    if corruption in ("ragged", "nan", "inf", "1e400", "word", "empty_name", "hash",
                      "empty"):
        # mcc reads the header row only
        assert rcs[:4] == [2, 2, 2, 2] and (rcs[4] == 2) == (corruption in (
            "empty_name", "empty")), rcs
    elif corruption in ("bom", "quoted"):
        assert rcs == [0] * 5, rcs


_BAD_SPECS = ("nan", "inf", "1e400", "-0.5", "1.5", "a", "", ",", "0:1", "0:1:1",
              "0:1:0", "0:1:-3", "0:1:x", "1:0:3", "0:2:3", "-2:2:5", "0:1:201")


def _option_cases():
    """(id, argv builder) for every option value of the fuzz: unit contrasts
    e-1, e0, ek and ek+1, point files of the wrong length, r2, grid and
    sigma_u2 specs, --m and --degree values, and simulator sizes."""
    cases = []
    for cmd in ("bounds", "rv", "rr"):
        for j in (-1, 0, 4, 5):
            cases.append((f"{cmd}-e{j}", cmd, ["--contrast", f"e{j}"]))
        for pair in ("ok,short", "long,ok", "ok,two_rows", "ok,ok"):
            cases.append((f"{cmd}-points-{pair}", cmd, ["--contrast", pair]))
    for spec in _BAD_SPECS:
        cases.append((f"bounds-r2={spec}", "bounds", ["--contrast", "e1", f"--r2={spec}"]))
        cases.append((f"rr-grid={spec}", "rr", ["--contrast", "e1", f"--grid={spec}"]))
        cases.append((f"proxy-sigma-u2={spec}", "proxy", [f"--sigma-u2={spec}"]))
    for m in (-1, 0, 4, 5):
        cases.append((f"fit-m={m}", "fit", ["--m", str(m)]))
    for degree in range(-1, 7):
        cases.append((f"fit-degree={degree}", "fit",
                      ["--m", "1", "--outcome-kind", "empirical", "--degree", str(degree)]))
    sizes = [("gwas", n, 5, 2) for n in (-5, -1, 0, 1, 2)]
    sizes += [("gwas", 5, k, 1) for k in (-1, 0, 1)]
    sizes += [("gwas", 5, 5, m) for m in (-1, 0, 5, 6)]
    sizes += [(p, n, 5, 2) for p in ("linear", "nonlinear", "nonlinear-binary")
              for n in (-3, 0, 1, 2)]
    for preset, n, k, m in sizes:
        cases.append((f"simulate-{preset}-n{n}-k{k}-m{m}", "simulate",
                      ["--preset", preset, "--n", str(n), "--k", str(k), "--m", str(m)]))
    for n_theta in (-2, 0, 1, 2):
        cases.append((f"simulate-rotation-n-theta{n_theta}", "simulate",
                      ["--preset", "rotation", "--n-theta", str(n_theta)]))
    return cases


@pytest.mark.parametrize("command, extra", [c[1:] for c in _option_cases()],
                         ids=[c[0] for c in _option_cases()])
def test_bad_options_exit_0_2_or_3(small_panel, tmp_path, command, extra):
    csv_path = str(small_panel["csv"])
    points = {"ok": "t1,t2,t3,t4\n1,0,0,0\n", "short": "t1,t2,t3\n1,0,0\n",
              "long": "t1,t2,t3,t4,t5\n1,0,0,0,0\n", "two_rows": "t1,t2,t3,t4\n1,0,0,0\n0,0,0,0\n"}
    for name, text in points.items():
        (tmp_path / f"{name}.csv").write_text(text)
    if extra[:1] == ["--contrast"] and "," in extra[1]:
        extra = ["--contrast", ",".join(str(tmp_path / f"{p}.csv") for p in extra[1].split(","))]
    base = {
        "bounds": ["--models", str(small_panel["gaussian"])],
        "rv": ["--models", str(small_panel["gaussian"])],
        "rr": ["--models", str(small_panel["probit"]), "--treatments", csv_path,
               "--outcome", "y"],
        "proxy": ["--data", str(tmp_path / "proxy.csv")],
        "fit": ["--treatments", csv_path, "--outcome", "y", "--out-dir", str(tmp_path / "m")],
        "simulate": ["--out-dir", str(tmp_path / "sim")],
    }[command]
    if command == "proxy":
        rows = small_panel["lines"]
        (tmp_path / "proxy.csv").write_text(
            "\n".join(",".join(ln.split(",")[:3]) for ln in rows) + "\n")
    out = [] if command in ("fit", "simulate") else ["--out", str(tmp_path / "out")]
    rc = _exit_0_2_or_3([command] + base + extra + out)
    if command == "simulate":
        sizes = dict(zip(extra[2::2], map(int, extra[3::2])))
        refused = min(sizes.get("--n", 2), sizes.get("--n-theta", 2)) < 2 or (
            extra[1] == "gwas" and min(sizes["--k"], sizes["--m"]) < 1)
        assert rc == (2 if refused else 0)


def test_calibrate_probit_table_is_the_per_column_implicit_r2(small_panel, tmp_path, capsys):
    out = tmp_path / "cal.tsv"
    rc, _, err = _run(["calibrate", "--treatments", str(small_panel["csv"]), "--outcome", "y",
                       "--outcome-kind", "probit", "--out", str(out)], capsys)
    assert rc == 0, err
    rows = [ln.split("\t") for ln in out.read_text().splitlines() if not ln.startswith("#")]
    data = np.loadtxt(small_panel["lines"][1:], delimiter=",")
    tm, y = TreatmentMatrix(data[:, :4]), data[:, 4]
    model = mtsens.fit_probit(tm, y)
    expected = [mtsens.implicit_r2(tm, y, model, j) for j in range(4)]
    assert rows[0] == ["column", "partial_r2"]
    assert [r[0] for r in rows[1:]] == ["t1", "t2", "t3", "t4"]
    assert [float(r[1]) for r in rows[1:]] == expected


def test_simulate_rotation_is_the_rotation_sweep(tmp_path, capsys):
    rc, _, err = _run(["simulate", "--preset", "rotation", "--r2-cap", "0.5", "--n-theta", "9",
                       "--out-dir", str(tmp_path)], capsys)
    assert rc == 0, err
    text = (tmp_path / "rotation.tsv").read_text().splitlines()
    rows = [ln.split("\t") for ln in text if not ln.startswith("#")]
    assert rows[0] == ["theta", "bound"]
    table = [(float(a), float(b)) for a, b in rows[1:]]
    fm = mtsens.FactorModel(b_hat=cli.LINEAR_PRESET_B, sigma2_t_given_u=1.0, m=1,
                            singular_values=np.linalg.svd(cli.LINEAR_PRESET_B,
                                                          compute_uv=False))
    assert table == mtsens.rotation_sweep(fm, 1.0, 0.5, n_theta=9)
    bounds = [b for _, b in table]
    assert bounds[0] == max(bounds) > 0.0
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] <= 1e-12 * bounds[0]


@pytest.mark.parametrize("command", ["fit", "calibrate", "rv"])
def test_invalid_utf8_exit_2_names_the_file(linear_models, tmp_path, capsys, command):
    # bytes that are not UTF-8 in a data row, in a header and in a model file
    if command == "rv":
        models = tmp_path / "models"
        models.mkdir()
        (models / "outcome.json").write_text(
            (linear_models["models"] / "outcome.json").read_text())
        bad = models / "confounder.json"
        bad.write_bytes(b'{"m": 1, "k": "\xff"}')
        argv = ["rv", "--models", str(models), "--contrast", "e1"]
    else:
        bad = tmp_path / "t.csv"
        if command == "fit":
            bad.write_bytes(b"a,y\n1,2\n\xff\xfe,3\n")
            argv = ["fit", "--treatments", str(bad), "--outcome", "y", "--m", "1",
                    "--out-dir", str(tmp_path / "m")]
        else:
            bad.write_bytes(b"a\xff,b,y\n1,2,3\n4,5,6\n")
            argv = ["calibrate", "--treatments", str(bad), "--outcome", "y"]
    rc, _, err = _run(argv, capsys)
    assert rc == 2, err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "InputFormatError"
    assert str(bad) in payload["message"]


def test_bad_grid_spec_exit_2(linear_models, tmp_path, capsys):
    out = tmp_path / "out.json"
    rc, _, err = _run(
        [
            "bounds",
            "--models",
            str(linear_models["models"]),
            "--contrast",
            "e1",
            "--r2",
            "0:1",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert not out.exists()
    assert rc == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "InputFormatError"


@pytest.mark.parametrize(
    "command, flag, spec",
    [
        ("bounds", "--r2", ""),
        ("bounds", "--r2", ","),
        ("proxy", "--sigma-u2", ""),
    ],
)
def test_empty_grid_spec_exit_2(linear_models, tmp_path, capsys, command, flag, spec):
    if command == "bounds":
        args = ["bounds", "--models", str(linear_models["models"]), "--contrast", "e1"]
    else:
        data = tmp_path / "proxy.csv"
        np.savetxt(data, np.random.default_rng(0).normal(size=(50, 3)), delimiter=",",
                   header="y,t,z", comments="")
        args = ["proxy", "--data", str(data)]
    out = tmp_path / "out.json"
    rc, _, err = _run(args + [f"{flag}={spec}", "--out", str(out)], capsys)
    assert not out.exists()
    assert rc == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "InputFormatError"


def test_convergence_error_exit_3(monkeypatch, capsys):
    def boom(args, prov):
        raise ConvergenceError("bisection failed to stabilize")

    monkeypatch.setattr("mtsens.cli.cmd_bounds", boom)
    rc, _, err = _run(["bounds", "--contrast", "e1"], capsys)
    assert rc == 3
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConvergenceError"


def test_unknown_preset_argparse_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--preset", "bogus"])
    assert exc.value.code == 2


def _child(args):
    """A fresh interpreter that imports the same mtsens as this process,
    installed or not, run to completion."""
    package_root = str(Path(mtsens.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_script_version():
    proc = _child(["-m", "mtsens.cli", "--version"])
    assert proc.returncode == 0
    assert "mtsens" in proc.stdout


@pytest.mark.parametrize(
    "module", ["scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.special"]
)
def test_import_leaves_slow_scipy_module_unloaded(module):
    # a fresh interpreter, because this one has long loaded all four
    proc = _child(["-c", f"import sys, mtsens, mtsens.cli; print({module!r} in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_commands_without_scipy_calls_load_no_scipy(linear_models, tmp_path):
    # one fresh interpreter runs the commands that call no scipy function,
    # then fit, which must load scipy.linalg: the check sees a load
    models, csv_path = str(linear_models["models"]), str(linear_models["csv"])
    free = [
        ["--version"],
        ["simulate", "--preset", "gwas", "--n", "200", "--k", "20", "--seed", "1",
         "--out-dir", str(tmp_path / "data")],
        ["bounds", "--models", models, "--all-unitwise", "--out", str(tmp_path / "b.json")],
        ["rv", "--models", models, "--all-unitwise", "--out", str(tmp_path / "rv.json")],
        *(["mcc", "--models", models, "--treatments", csv_path, "--outcome", "y",
           "--norm", norm, "--out-dir", str(tmp_path / f"mcc_{norm}")]
          for norm in ("l1", "l2", "linf")),
    ]
    fit = ["fit", "--treatments", csv_path, "--outcome", "y", "--m", "1",
           "--out-dir", str(tmp_path / "models")]
    code = (
        "import json, sys\n"
        "from mtsens.cli import main\n"
        "def run(argv):\n"
        "    try:\n"
        "        return main(argv)\n"
        "    except SystemExit as exc:\n"
        "        return exc.code\n"
        "slow = ['scipy.linalg', 'scipy.special', 'scipy.optimize']\n"
        "free, fit = json.loads(sys.argv[1])\n"
        "codes = [run(argv) for argv in free]\n"
        "loaded = [m for m in slow if m in sys.modules]\n"
        "codes.append(run(fit))\n"
        "print(json.dumps([codes, loaded, 'scipy.linalg' in sys.modules]))\n"
    )
    proc = _child(["-c", code, json.dumps([free, fit])])
    assert proc.returncode == 0, proc.stderr
    codes, loaded, fit_loaded_linalg = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * (len(free) + 1), proc.stderr
    assert loaded == []
    assert fit_loaded_linalg
