"""Benchmark of the mtsens pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Workloads: gwas_cli, wide_screen, binary_rr, mc_intervention, or
``all`` to run each in its own process. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced run and its
overhead against untraced passes of the same run. ``--size smoke`` shrinks
every workload for a quick check of the harness itself (see smoke.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See README.md in this directory for the
workloads and what each metric should move.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("gwas_cli", "wide_screen", "binary_rr", "mc_intervention")
# one BLAS thread: steadier timings on a shared machine, and never more
# threads than cores; it must be set before numpy is first imported
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("fit_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# timed spans reported as <span>_s
SPAN_TIMES = (
    "factor.fit_ppca",
    "factor.conditional_confounder",
    "factor.io",
    "outcome.fit_linear",
    "outcome.fit_probit",
    "outcome.fit_empirical",
    "outcome.io",
    "bounds.ignorance_region",
    "bounds.robustness_value",
    "calibrate.benchmark_table",
    "mcc.build_bank",
    "mcc.report",
    "riskratio.rr_curve",
    "riskratio.rr_ignorance_region",
    "copula.marginal_contrast",
    "copula.intervention_mean_general",
)
NORMS = ("l1", "linf", "l2")

PER_LAYER = (
    (("cli.self_s", "s"), ("cli.bytes_read", "B"), ("cli.bytes_written", "B"))
    + tuple((f"{name}_s", "s") for name in SPAN_TIMES)
    + (
        ("bounds.ignorance_region.calls", "count"),
        ("bounds.robustness_value.calls", "count"),
        ("bounds.us_per_call", "us"),
        ("calibrate.s_per_column", "s"),
    )
    + tuple((f"mcc.minimize_s.{norm}", "s") for norm in NORMS)
    + (
        ("mcc.n_iter.l1", "count"),
        ("mcc.n_iter.linf", "count"),
        ("riskratio.binary_rv_s", "s"),
        ("riskratio.unstable", "count"),
        ("riskratio.clamp_warnings", "count"),
        ("riskratio.search_miss_frac", "frac"),
        ("copula.general_peak_mib", "MiB"),
        ("copula.draws_per_s", "1/s"),
        ("copula.clamp_warnings", "count"),
        ("copula.weight_warnings", "count"),
        ("trace.overhead_s", "s"),
    )
)


def layer_metrics(tracer, io_counter, ctx: dict) -> dict:
    """Per-layer figures of one traced pass. A layer the workload does not
    call reads 0."""
    total, counts = tracer.total, tracer.counts
    out = {
        "cli.self_s": tracer.self_time("cli."),
        "cli.bytes_read": io_counter.bytes_read,
        "cli.bytes_written": io_counter.bytes_written,
    }
    for name in SPAN_TIMES:
        out[f"{name}_s"] = total(name)
    for norm in NORMS:
        out[f"mcc.minimize_s.{norm}"] = total(f"mcc.minimize.{norm}")
    for norm in ("l1", "linf"):
        out[f"mcc.n_iter.{norm}"] = counts[f"mcc.minimize.{norm}.n_iter"]
    ir = counts["bounds.ignorance_region.calls"]
    rv = counts["bounds.robustness_value.calls"]
    out["bounds.ignorance_region.calls"] = ir
    out["bounds.robustness_value.calls"] = rv
    bounds_s = out["bounds.ignorance_region_s"] + out["bounds.robustness_value_s"]
    out["bounds.us_per_call"] = 1e6 * bounds_s / (ir + rv) if ir + rv else 0.0
    tables = counts["calibrate.benchmark_table.calls"]
    out["calibrate.s_per_column"] = (
        out["calibrate.benchmark_table_s"] / (tables * ctx["columns"]) if tables else 0.0
    )
    general = counts["copula.intervention_mean_general.calls"]
    out["copula.draws_per_s"] = (
        general * ctx["density_evals"] / out["copula.intervention_mean_general_s"]
        if general else 0.0
    )
    for key in ("riskratio.unstable", "riskratio.clamp_warnings",
                "copula.clamp_warnings", "copula.weight_warnings"):
        out[key] = counts[key]
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None  # a checkout without .git records no commit
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "git_commit": commit,
    }


def import_seconds() -> float:
    """Import time of the harness and the package in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import sys; "
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads; "
        "print(time.perf_counter() - t)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.misses = 0

    def add(self, p) -> None:
        self.attempted += p.attempted
        self.failures.extend(p.failed)
        self.misses += p.misses


def run_workload(args) -> int:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    first_import_s = time.perf_counter() - _T0
    table = workloads.SMOKE if args.size == "smoke" else workloads.FULL
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    try:
        wl = table[args.workload](args.seed, str(workdir))
        dataset_s = statistics.median(wl.setup())
        # a process imports once; two fresh interpreters give the median of three
        import_s = statistics.median([first_import_s, import_seconds(), import_seconds()])
        setup_s = import_s + dataset_s
        wl.prepare()

        def run_pass(d, tracer=None):
            gc.collect()
            p = workloads.Pass(tracer)
            with p:
                wl.run_pass(p, d)
            tally.add(p)
            return p

        run_pass(0)  # warm-up, checked but not timed
        passes = []
        start = time.perf_counter()
        i = 1
        while True:
            d = i % wl.datasets
            if args.trace:
                tracer = Tracer()
                passes.append((run_pass(d), run_pass(d, tracer), tracer))
            else:
                passes.append((run_pass(d), None, None))
            i += 1
            if time.perf_counter() - start >= args.seconds:
                break
        if args.trace:
            ctx = {"columns": 0, "density_evals": 0, **wl.layer_context()}
            rows = [layer_metrics(t, pt.io, ctx) for _, pt, t in passes]
            values = {name: statistics.median(r[name] for r in rows)
                      for name in rows[0]}
            probe = workloads.Pass(Tracer())
            with probe:
                values.update(wl.probe(probe))
            tally.add(probe)
            # share of the traced passes' regions that exclude a feasible
            # point on the curve; the run total is printed below
            checked = sum(pt.regions_checked for _, pt, _ in passes)
            values["riskratio.search_miss_frac"] = (
                sum(pt.misses for _, pt, _ in passes) / checked if checked else 0.0
            )
            values["trace.overhead_s"] = (
                statistics.median(pt.wall for _, pt, _ in passes)
                - statistics.median(pu.wall for pu, _, _ in passes)
            )
            metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                       for name, unit in PER_LAYER}
        else:
            values = {
                "wall_s": statistics.median(pu.wall for pu, _, _ in passes),
                "fit_s": statistics.median(
                    t for pu, _, _ in passes for t in (pu.fit, *pu.fit_repeats)),
                "setup_s": setup_s,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = len(tally.failures)
    for line in tally.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} timed passes over {wl.datasets} datasets")
    print("env " + json.dumps(environment(args.seed)))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':36s} {failed / tally.attempted:.6g} ({failed}/{tally.attempted})")
    if tally.misses:
        print(f"{'risk-ratio search misses, whole run':36s} {tally.misses} "
              "(regions that exclude a feasible value)")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a process of its own; one combined result line."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--size", args.size],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "mtsens" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'mtsens'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # run the cleanup in run_workload's finally block when terminated
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
