"""Quick self-check of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload at its smoke size, untraced and traced, and checks that
each run exits 0, that its last line carries exactly the metrics and units
BENCHMARK.json lists, that no operation failed, and that every layer metric
the workload is meant to exercise reads nonzero. It also checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and this directory. Takes about a minute.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per-layer metrics each workload must move off zero (README.md, "Layer map")
EXERCISED = {
    "gwas_cli": (
        "cli.self_s", "cli.bytes_read", "cli.bytes_written", "factor.fit_ppca_s",
        "factor.conditional_confounder_s", "factor.io_s", "outcome.fit_linear_s",
        "outcome.io_s", "bounds.ignorance_region_s", "bounds.ignorance_region.calls",
        "bounds.robustness_value_s", "bounds.robustness_value.calls",
        "bounds.us_per_call", "calibrate.benchmark_table_s", "calibrate.s_per_column",
        "mcc.build_bank_s", "mcc.report_s", "mcc.minimize_s.l1", "mcc.minimize_s.linf",
        "mcc.minimize_s.l2", "mcc.n_iter.l1", "mcc.n_iter.linf",
    ),
    "wide_screen": (
        "cli.self_s", "cli.bytes_read", "cli.bytes_written", "factor.fit_ppca_s",
        "factor.conditional_confounder_s", "factor.io_s", "outcome.fit_linear_s",
        "outcome.io_s", "bounds.ignorance_region_s", "bounds.ignorance_region.calls",
        "bounds.robustness_value_s", "bounds.robustness_value.calls",
        "bounds.us_per_call", "mcc.build_bank_s", "mcc.report_s", "mcc.minimize_s.l2",
    ),
    "binary_rr": (
        "factor.fit_ppca_s", "factor.conditional_confounder_s", "outcome.fit_probit_s",
        "riskratio.rr_curve_s", "riskratio.rr_ignorance_region_s",
        "riskratio.binary_rv_s",
    ),
    "mc_intervention": (
        "factor.fit_ppca_s", "factor.conditional_confounder_s", "outcome.fit_linear_s",
        "outcome.fit_empirical_s", "copula.marginal_contrast_s",
        "copula.intervention_mean_general_s", "copula.general_peak_mib",
        "copula.draws_per_s",
    ),
}


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def check_run(workload: str, trace: int, expected: dict) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: fail_frac {result['failed']}/{result['attempted']}\n"
                      f"{proc.stderr[-2000:]}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"{where}: metric names differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        if m.get("unit") != expected.get(name):
            errors.append(f"{where}: {name} unit {m.get('unit')!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")
    for name in EXERCISED[workload] if trace else expected:
        if metrics.get(name, {}).get("value") in (0, None):
            errors.append(f"{where}: {name} reads 0")
    return errors


def check_bare_directory() -> list[str]:
    """Without the package source the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "gwas_cli", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = check_bare_directory()
    for workload in EXERCISED:
        for trace in (0, 1):
            found = check_run(workload, trace, expected[trace])
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            errors.extend(found)
    for err in errors:
        print(err, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
