"""The four benchmark workloads and the checks on their outputs.

Each workload draws a few datasets from the run's seed during set-up. One
pass analyses one dataset, the way a user would: the CLI workloads call
``mtsens.cli.main`` once per subcommand, the API workloads call the public
functions of ``mtsens``. Every subcommand or public call is one operation;
it fails when it raises, exits nonzero or its output disagrees with the
independent reference in ``reference.py``.

Calls go through ``mtsens.cli.main`` and ``mtsens.<name>`` attribute lookups
so that the traced run can swap those names for timed wrappers (see
``spans.py``) without touching the package.
"""
from __future__ import annotations

import io
import json
import math
import os
import time
import tracemalloc
from contextlib import ExitStack, redirect_stdout
from dataclasses import dataclass

import numpy as np

import mtsens
import mtsens.cli
import mtsens.factor
import mtsens.outcome
import reference as ref
from spans import IoCounter, Tracer, counting_open, patched

M = 3  # confounder dimension of every workload
FGM_THETA = 0.8
# cap of the risk-ratio regions; r2 of the Monte Carlo sensitivity vector
RR_CAP = 0.5
MC_R2 = 0.01
# relative slack for risk-ratio search results; the searches stop on 1e-6
SEARCH_RTOL = 1e-6


def _norm_label(args, kwargs):
    return kwargs.get("norm", args[1] if len(args) > 1 else "l2")


# names resolved by mtsens.cli, by the span they are recorded as
CLI_SPANS = {
    "fit_ppca": "factor.fit_ppca",
    "conditional_confounder": "factor.conditional_confounder",
    "save_factor_model": "factor.io",
    "save_confounder": "factor.io",
    "load_confounder": "factor.io",
    "fit_linear": "outcome.fit_linear",
    "fit_probit": "outcome.fit_probit",
    "fit_empirical": "outcome.fit_empirical",
    "save_outcome": "outcome.io",
    "load_outcome": "outcome.io",
    "ignorance_region": "bounds.ignorance_region",
    "robustness_value": "bounds.robustness_value",
    "benchmark_table": "calibrate.benchmark_table",
    "build_bank_unitwise": "mcc.build_bank",
    "mcc_minimize": ("mcc.minimize", _norm_label),
    "mcc_report": "mcc.report",
}

# public package names the API workloads call
API_SPANS = {
    "fit_ppca": "factor.fit_ppca",
    "conditional_confounder": "factor.conditional_confounder",
    "fit_linear": "outcome.fit_linear",
    "fit_probit": "outcome.fit_probit",
    "fit_empirical": "outcome.fit_empirical",
    "rr_curve": "riskratio.rr_curve",
    "rr_ignorance_region": "riskratio.rr_ignorance_region",
    "binary_rv": "riskratio.binary_rv",
    "marginal_contrast": "copula.marginal_contrast",
    "intervention_mean_general": "copula.intervention_mean_general",
}

# modules whose file I/O the traced CLI passes count
IO_MODULES = (mtsens.cli, mtsens.factor, mtsens.outcome)


class Pass:
    """Times, checks and counts the operations of one pass. With a tracer,
    the package names are swapped for traced wrappers for its duration."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.io = IoCounter()
        self.wall = 0.0
        self.fit = 0.0
        # times of fitting operations repeated outside the pass's wall time
        self.fit_repeats: list[float] = []
        self.attempted = 0
        self.failed: list[str] = []
        # risk-ratio regions checked against feasible points, and the ones
        # that missed; see note_miss
        self.regions_checked = 0
        self.misses = 0
        self._stack = ExitStack()

    def __enter__(self):
        if self.tracer is not None:
            self._stack.enter_context(patched(self.tracer, mtsens.cli, CLI_SPANS))
            self._stack.enter_context(patched(self.tracer, mtsens, API_SPANS))
        return self

    def __exit__(self, *exc):
        self._stack.close()
        return False

    def op(self, name: str, call, check, fit: bool = False, repeat: bool = False):
        """Run one operation; ``check(result)`` must return True. A
        ``repeat`` of a fitting operation is timed as a sample of its own,
        outside ``wall`` and ``fit``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an operation that raises is a failure
            self.failed.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        if repeat:
            self.fit_repeats.append(elapsed)
        else:
            self.wall += elapsed
            if fit:
                self.fit += elapsed
        try:
            ok = bool(check(result))
        except Exception as exc:  # a check that cannot read the output fails
            self.failed.append(f"{name}: check raised {type(exc).__name__}: {exc}")
            return result
        if not ok:
            self.failed.append(f"{name}: output check failed")
        return result

    def note_miss(self, region, lowest: float, highest: float) -> None:
        """Count a risk-ratio region that excludes a feasible value. This is
        a known defect of the restart search for m > 1, reported as a count
        instead of a failed operation so that the workload stays usable."""
        tol = SEARCH_RTOL * (1.0 + abs(highest))
        self.regions_checked += 1
        if lowest < region.lower - tol or highest > region.upper + tol:
            self.misses += 1

    def cli(self, argv: list[str], check, fit: bool = False, repeat: bool = False):
        """One ``mtsens`` subcommand; the traced run records it as the parent
        span ``cli.<subcommand>`` and counts the bytes it reads and writes."""

        def call():
            out = io.StringIO()
            with ExitStack() as stack:
                if self.tracer is not None:
                    stack.enter_context(self.tracer.span("cli." + argv[0]))
                    stack.enter_context(counting_open(self.io, IO_MODULES))
                stack.enter_context(redirect_stdout(out))
                rc = mtsens.cli.main(argv)
            self.io.bytes_written += len(out.getvalue().encode())
            return rc

        return self.op("cli." + argv[0], call, lambda rc: rc == 0 and check(), fit, repeat)


def dataset_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _close(a, b, rtol=1e-6, atol=1e-9) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=atol))


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_tsv(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        rows = [ln.rstrip("\n").split("\t") for ln in fh if not ln.startswith("#")]
    return rows[1:]


def _read_csv(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break  # the header row
        return np.loadtxt(fh, delimiter=",", ndmin=2)


@dataclass(frozen=True)
class CliSize:
    n: int
    k: int
    datasets: int
    # ``fit`` calls per untraced pass; the ones after the first are extra
    # samples of ``fit_s`` that ``wall_s`` leaves out
    fits: int


class CliWorkload:
    """``mtsens simulate`` at set-up, then per pass ``fit``, ``bounds``,
    ``rv``, one ``mcc`` per norm and optionally ``calibrate``, all on the
    CSV the set-up wrote."""

    def __init__(self, seed, workdir, size: CliSize, r2_spec, norms, calibrate):
        self.size = size
        self.datasets = size.datasets
        self.workdir = workdir
        self.seeds = dataset_seeds(seed, size.datasets)
        self.r2_spec = r2_spec
        if ":" in r2_spec:
            lo, hi, count = r2_spec.split(":")
            self.r2_grid = [float(v) for v in np.linspace(float(lo), float(hi), int(count))]
        else:
            self.r2_grid = [float(v) for v in r2_spec.split(",")]
        self.norms = norms
        self.calibrate = calibrate
        self.refs = []

    def layer_context(self) -> dict:
        return {"columns": self.size.k}

    def _dir(self, d: int) -> str:
        return os.path.join(self.workdir, f"d{d}")

    def _csv(self, d: int) -> str:
        return os.path.join(self._dir(d), "gwas_data.csv")

    def setup(self) -> list[float]:
        times = []
        for d, s in enumerate(self.seeds):
            start = time.perf_counter()
            argv = ["simulate", "--preset", "gwas", "--seed", str(s),
                    "--n", str(self.size.n), "--k", str(self.size.k),
                    "--m", str(M), "--out-dir", self._dir(d)]
            with redirect_stdout(io.StringIO()):
                rc = mtsens.cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"mtsens simulate exited with {rc}")
            times.append(time.perf_counter() - start)
        return times

    def prepare(self) -> None:
        for d in range(self.datasets):
            data = _read_csv(self._csv(d))
            t, y = data[:, :-1], data[:, -1]
            lin = ref.LinearFit(t, y)
            fac = ref.FactorFit(t, M)
            self.refs.append((lin, ref.unit_bounds(lin, fac, self.r2_grid)))

    def run_pass(self, p: Pass, d: int) -> None:
        csv_path = self._csv(d)
        models = os.path.join(self._dir(d), "models")
        out = os.path.join(self._dir(d), "out")
        os.makedirs(out, exist_ok=True)
        lin, bnd = self.refs[d]

        def fit_ok():
            doc = _load_json(os.path.join(models, "outcome.json"))
            return _close(doc["tau_naive"], lin.tau) and _close(
                doc["sigma2_y_given_t"], lin.sigma2
            )

        fit_argv = ["fit", "--treatments", csv_path, "--outcome", "y", "--m", str(M),
                    "--out-dir", models]
        p.cli(fit_argv, fit_ok, fit=True)
        if p.tracer is None:
            # the same models again, so each rewrite leaves identical files
            for _ in range(self.size.fits - 1):
                p.cli(fit_argv, fit_ok, fit=True, repeat=True)

        bounds_json = os.path.join(out, "bounds.json")

        def bounds_ok():
            recs = _load_json(bounds_json)["results"]
            grid = self.r2_grid
            if len(recs) != len(bnd["naive"]) * len(grid):
                return False
            naive = np.array([r["naive"] for r in recs])
            lower = np.array([r["lower"] for r in recs])
            upper = np.array([r["upper"] for r in recs])
            j = np.repeat(np.arange(len(bnd["naive"])), len(grid))
            half = np.array([bnd["half_width"][grid[i % len(grid)]][jj]
                             for i, jj in enumerate(j)])
            return (_close(naive, bnd["naive"][j]) and _close(lower, naive - half)
                    and _close(upper, naive + half)
                    and _close([r["rv"] for r in recs], bnd["rv"][j]))

        p.cli(["bounds", "--models", models, "--all-unitwise", "--r2", self.r2_spec,
               "--out", bounds_json], bounds_ok)

        rv_json = os.path.join(out, "rv.json")
        p.cli(["rv", "--models", models, "--all-unitwise", "--out", rv_json],
              lambda: _close([r["rv"] for r in _load_json(rv_json)["results"]], bnd["rv"]))

        for norm in self.norms:
            mcc_dir = os.path.join(out, f"mcc_{norm}")
            p.cli(["mcc", "--models", models, "--treatments", csv_path, "--outcome", "y",
                   "--norm", norm, "--r2-cap", "1.0", "--out-dir", mcc_dir],
                  lambda mcc_dir=mcc_dir, norm=norm: self._mcc_ok(mcc_dir, models, norm, lin))

        if self.calibrate:
            cal = os.path.join(out, "calibrate.tsv")
            p.cli(["calibrate", "--treatments", csv_path, "--outcome", "y", "--out", cal],
                  lambda: _close([float(r[1]) for r in _read_tsv(cal)], lin.partial_r2,
                                 rtol=0.0, atol=1e-8))

    @staticmethod
    def _mcc_ok(mcc_dir, models, norm, lin) -> bool:
        """Feasible (gamma' Sigma gamma <= cap) and no worse than the naive
        effects, with the norm recomputed from gamma_star."""
        summary = _load_json(os.path.join(mcc_dir, "mcc_summary.json"))
        cc = _load_json(os.path.join(models, "confounder.json"))
        gamma = np.asarray(summary["gamma_star"], dtype=float)
        sigma_u = np.asarray(cc["sigma_u_given_t"], dtype=float)
        coef = np.asarray(cc["coef"], dtype=float)
        order = {"l1": 1, "l2": 2, "linf": np.inf}[norm]
        naive_norm = float(np.linalg.norm(lin.tau, order))
        achieved = float(np.linalg.norm(lin.tau - lin.sigma * (coef.T @ gamma), order))
        cap = 1.0 + 1e-9
        rows = _read_tsv(os.path.join(mcc_dir, "mcc_report.tsv"))
        return (float(gamma @ sigma_u @ gamma) <= cap and summary["achieved_r2"] <= cap
                and achieved <= naive_norm * (1 + 1e-9)
                and _close(summary["achieved_norm"], achieved)
                and len(rows) == lin.tau.shape[0])

    def probe(self, p: Pass) -> dict:
        return {}


@dataclass(frozen=True)
class RrSize:
    n: int
    k: int
    datasets: int


class BinaryRr:
    """Binary outcome (the GWAS outcome thresholded at its median): factor
    model, probit fit, a 201-point risk-ratio curve and the risk-ratio region
    at cap ``RR_CAP``, both for the unit contrast e1."""

    DIRECTION = np.ones(M) / math.sqrt(M)
    GRID = np.linspace(-1.0, 1.0, 201)

    def __init__(self, seed, workdir, size: RrSize):
        self.size = size
        self.datasets = size.datasets
        self.seeds = dataset_seeds(seed, size.datasets)
        self.data = []
        self.refs = []

    def layer_context(self) -> dict:
        return {}

    def setup(self) -> list[float]:
        times = []
        for s in self.seeds:
            start = time.perf_counter()
            sim = mtsens.gen_gwas(n=self.size.n, k=self.size.k, m=M, seed=s)
            y = (sim.y > np.median(sim.y)).astype(float)
            self.data.append((sim.treatments, y))
            times.append(time.perf_counter() - start)
        return times

    def prepare(self) -> None:
        self.refs = [ref.FactorFit(tm.data, M) for tm, _ in self.data]

    def _fit(self, p: Pass, d: int):
        tm, y = self.data[d]
        w2_ref = self.refs[d].shift_norm2()
        fm = p.op("factor.fit_ppca", lambda: mtsens.fit_ppca(tm, M),
                  lambda fm: fm.m == M, fit=True)
        cc = p.op("factor.conditional_confounder",
                  lambda: mtsens.conditional_confounder(fm),
                  lambda cc: _close(_shift_norm2(cc), w2_ref), fit=True)
        bo = p.op("outcome.fit_probit", lambda: mtsens.fit_probit(tm, y),
                  lambda bo: ref.probit_score(tm.data, y, bo.probit_intercept,
                                              bo.probit_coef) < 1e-6, fit=True)
        return tm, cc, bo

    @staticmethod
    def _naive_rr(bo, j: int) -> float:
        eta0 = bo.probit_intercept
        num, den = ref.phi_cdf([eta0 + bo.probit_coef[j], eta0])
        return float(num / den)

    def run_pass(self, p: Pass, d: int) -> None:
        tm, cc, bo = self._fit(p, d)
        e1 = mtsens.Contrast.unit(self.size.k, 0)
        naive = self._naive_rr(bo, 0)

        def curve_ok(curve):
            s = np.array([c[0] for c in curve])
            rr = np.array([c[1] for c in curve])
            zero = np.flatnonzero(s == 0.0)
            return (len(curve) == len(self.GRID) and bool(np.all(np.isfinite(rr)))
                    and zero.size == 1 and _close(rr[zero[0]], naive, rtol=1e-9))

        curve = p.op("riskratio.rr_curve",
                     lambda: mtsens.rr_curve(e1, cc, bo, tm, self.DIRECTION, self.GRID),
                     curve_ok)

        def region_ok(region):
            if curve is not None:
                inside = [rr for s, rr in curve if abs(s) <= RR_CAP]
                p.note_miss(region, min(inside), max(inside))
            return _contains(region, naive) and _close(region.naive, naive, rtol=1e-9)

        p.op("riskratio.rr_ignorance_region",
             lambda: mtsens.rr_ignorance_region(e1, cc, bo, tm, RR_CAP), region_ok)

    def probe(self, p: Pass) -> dict:
        """One binary robustness value, on the unit contrast of dataset 0
        with the smallest probit effect per unit of confounder shift, so
        the bisection path runs. Regions at half and one and a half times
        the value must disagree about reaching RR = 1; when they do not, one
        of the two searches missed, which counts in ``Pass.misses``."""
        tm, cc, bo = self._fit(p, 0)
        w2 = self.refs[0].shift_norm2()
        j = int(np.argmin(np.abs(bo.probit_coef) / np.sqrt(w2)))
        c = mtsens.Contrast.unit(self.size.k, j)
        rv = p.op("riskratio.binary_rv", lambda: mtsens.binary_rv(c, cc, bo, tm),
                  lambda rv: 0.0 <= rv.value <= 1.0)
        metrics = {"riskratio.binary_rv_s": p.tracer.total("riskratio.binary_rv")}
        if rv is None:
            return metrics
        naive = self._naive_rr(bo, j)
        # RR = 1 must be out of reach below the value and within reach above it
        if rv.robust:
            caps = ((1.0, False),)
        else:
            caps = ((0.5 * rv.value, False), (min(1.0, 1.5 * rv.value), True))
        for cap, reach in caps:
            region = p.op("riskratio.rr_ignorance_region",
                          lambda cap=cap: mtsens.rr_ignorance_region(c, cc, bo, tm, cap),
                          lambda region: _contains(region, naive))
            if region is not None and _contains(region, 1.0) != reach:
                p.misses += 1
        return metrics


def _contains(region, value: float) -> bool:
    tol = SEARCH_RTOL * (1.0 + abs(value))
    return region.lower - tol <= value <= region.upper + tol


def _shift_norm2(cc) -> np.ndarray:
    sigma = cc.sigma_u_given_t
    return np.sum(cc.coef * np.linalg.solve(sigma, cc.coef), axis=0)


@dataclass(frozen=True)
class McSize:
    n: int
    k: int
    datasets: int
    n_sim: int
    max_rows: int
    m_draws: int
    n_draws: int


def fgm_density(p, q):
    """Farlie-Gumbel-Morgenstern copula between the outcome and the first
    confounder coordinate; integrates to one over q for every p."""
    return 1.0 + FGM_THETA * (1.0 - 2.0 * p) * (1.0 - 2.0 * q[..., 0])


class McIntervention:
    """Monte Carlo intervention means for the contrast e_1 vs 0 at the
    confounding share ``MC_R2`` in the contrast's worst-case direction: the
    Gaussian path on all rows for a linear and an empirical outcome, and
    the importance sampler on sampled rows with the Gaussian copula and a
    custom (FGM) copula."""

    def __init__(self, seed, workdir, size: McSize):
        self.size = size
        self.datasets = size.datasets
        self.seeds = dataset_seeds(seed, size.datasets)
        self.data = []
        self.refs = []

    def layer_context(self) -> dict:
        z = self.size
        return {"density_evals": z.max_rows * z.n_draws * z.m_draws}

    def setup(self) -> list[float]:
        times = []
        for s in self.seeds:
            start = time.perf_counter()
            sim = mtsens.gen_gwas(n=self.size.n, k=self.size.k, m=M, seed=s)
            self.data.append((sim.treatments, sim.y))
            times.append(time.perf_counter() - start)
        return times

    def prepare(self) -> None:
        z = self.size
        for (tm, y), s in zip(self.data, self.seeds):
            t = tm.data
            lin = ref.LinearFit(t, y)
            fac = ref.FactorFit(t, M)
            # gamma' coef as a map on treatments; invariant under any
            # reparameterisation of the confounder
            w2 = fac.shift_norm2()[0]
            direction = fac.coef.T @ np.linalg.solve(fac.sigma_u, fac.coef[:, 0])
            shift = direction * math.sqrt(MC_R2 / w2)
            t1 = np.eye(z.k)[0]
            s1, s2 = (t - t1) @ shift, t @ shift
            lin_value = float(lin.tau[0] + lin.sigma * (s1.mean() - s2.mean()))
            emp = ref.empirical_contrast_reference(
                float(lin.tau[0]), lin.resid, s1, s2, n_sim=100, seed=s)
            general = ref.gaussian_general_reference(
                lin.intercept + float(lin.tau[0]), lin.sigma, s1, z.max_rows, z.m_draws, s)
            self.refs.append({"lin": lin, "linear": lin_value, "empirical": emp,
                              "general": general})

    def _gamma(self, cc) -> np.ndarray:
        sigma = cc.sigma_u_given_t
        mu = cc.coef[:, 0]
        g = np.linalg.solve(sigma, mu)
        return g * math.sqrt(MC_R2 / float(mu @ g))

    def _fits(self, p: Pass, d: int):
        tm, y = self.data[d]
        lin_ref = self.refs[d]["lin"]
        fm = p.op("factor.fit_ppca", lambda: mtsens.fit_ppca(tm, M),
                  lambda fm: fm.m == M, fit=True)
        cc = p.op("factor.conditional_confounder",
                  lambda: mtsens.conditional_confounder(fm), lambda cc: cc.m == M, fit=True)
        lin = p.op("outcome.fit_linear", lambda: mtsens.fit_linear(tm, y),
                   lambda o: _close(o.tau_naive, lin_ref.tau), fit=True)
        e1 = np.eye(self.size.k)[0]
        emp = p.op("outcome.fit_empirical", lambda: mtsens.fit_empirical(tm, y),
                   lambda o: _close(o.mean(e1) - o.mean(np.zeros_like(e1)), lin_ref.tau[0])
                   and _close(o.residual_quantiles, np.sort(lin_ref.resid), atol=1e-7),
                   fit=True)
        return tm, cc, lin, emp

    def _general(self, p: Pass, d: int, tm, cc, lin, copula, check):
        z = self.size
        return p.op("copula.intervention_mean_general",
                    lambda: mtsens.intervention_mean_general(
                        np.eye(z.k)[0], copula, cc, lin, tm, m_draws=z.m_draws,
                        n_draws=z.n_draws, seed=self.seeds[d], max_rows=z.max_rows),
                    check)

    def run_pass(self, p: Pass, d: int) -> None:
        z = self.size
        r = self.refs[d]
        tm, cc, lin, emp = self._fits(p, d)
        gamma = self._gamma(cc)
        spec = mtsens.SensitivitySpec.from_gamma(gamma, cc.sigma_u_given_t)
        c = mtsens.Contrast.unit(z.k, 0)
        for outcome, check in (
            (lin, lambda res: abs(res.value - r["linear"]) <= 5 * res.se + 1e-9),
            (emp, lambda res: abs(res.value - r["empirical"][0])
             <= 5 * math.hypot(res.se, r["empirical"][1])),
        ):
            p.op("copula.marginal_contrast",
                 lambda outcome=outcome: mtsens.marginal_contrast(
                     c, spec, cc, outcome, tm, n_sim=z.n_sim, seed=self.seeds[d],
                     with_se=True),
                 check)
        value, se = r["general"]
        self._general(p, d, tm, cc, lin, mtsens.CopulaSpec("gaussian", gamma=gamma),
                      lambda est: abs(est - value) <= 5 * se)
        t = tm.data
        fgm_value, fgm_se = ref.fgm_general_reference(
            float(lin.mean(np.eye(z.k)[0])), lin.sigma(), FGM_THETA,
            (t - np.eye(z.k)[0]) @ cc.coef[0], math.sqrt(cc.sigma_u_given_t[0, 0]),
            z.max_rows, z.m_draws)
        self._general(p, d, tm, cc, lin, mtsens.CopulaSpec("custom", density=fgm_density),
                      lambda est: abs(est - fgm_value) <= 5 * fgm_se)

    def probe(self, p: Pass) -> dict:
        """Peak traced memory of one Gaussian-copula importance-sampling call."""
        tm, cc, lin, _ = self._fits(p, 0)
        value, se = self.refs[0]["general"]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            self._general(p, 0, tm, cc, lin,
                          mtsens.CopulaSpec("gaussian", gamma=self._gamma(cc)),
                          lambda est: abs(est - value) <= 5 * se)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"copula.general_peak_mib": peak / 2**20}


FULL = {
    "gwas_cli": lambda seed, wd: CliWorkload(
        seed, wd, CliSize(n=1000, k=100, datasets=4, fits=8), "0.25,0.5,1.0",
        ("l1", "linf", "l2"), calibrate=True),
    "wide_screen": lambda seed, wd: CliWorkload(
        seed, wd, CliSize(n=2500, k=500, datasets=4, fits=1), "0:1:21", ("l2",), calibrate=False),
    "binary_rr": lambda seed, wd: BinaryRr(
        seed, wd, RrSize(n=500, k=20, datasets=40)),
    "mc_intervention": lambda seed, wd: McIntervention(
        seed, wd, McSize(n=2000, k=200, datasets=4, n_sim=200, max_rows=100,
                         m_draws=200, n_draws=50)),
}

SMOKE = {
    "gwas_cli": lambda seed, wd: CliWorkload(
        seed, wd, CliSize(n=200, k=20, datasets=2, fits=2), "0.25,0.5,1.0",
        ("l1", "linf", "l2"), calibrate=True),
    "wide_screen": lambda seed, wd: CliWorkload(
        seed, wd, CliSize(n=300, k=60, datasets=2, fits=1), "0:1:21", ("l2",), calibrate=False),
    "binary_rr": lambda seed, wd: BinaryRr(
        seed, wd, RrSize(n=200, k=10, datasets=2)),
    "mc_intervention": lambda seed, wd: McIntervention(
        seed, wd, McSize(n=300, k=30, datasets=2, n_sim=20, max_rows=50,
                         m_draws=50, n_draws=10)),
}
