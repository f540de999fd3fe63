"""End-to-end tests of the command-line interface, run in process through
main() so exit codes and stdout/stderr are observable without subprocesses.
One subprocess test confirms the installed console script."""
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_console_script_version():
    # the child imports the same mtsens as this process, installed or not
    package_root = str(Path(mtsens.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mtsens.cli", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "mtsens" in proc.stdout


def test_import_leaves_scipy_stats_unloaded():
    # a fresh interpreter, because this one has long loaded scipy.stats
    package_root = str(Path(mtsens.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import numpy, scipy.linalg, scipy.optimize, scipy.special\n"
        "if 'scipy.stats' in sys.modules:\n"
        "    sys.exit('preloaded')\n"
        "import mtsens, mtsens.cli\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    if proc.stderr.strip() == "preloaded":
        pytest.skip("this scipy loads scipy.stats from scipy.linalg, .special or .optimize")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
