"""Command-line surface: fit models from CSV data, emit sensitivity reports
as JSON/TSV, and generate the simulation presets.

Exit codes: 0 success (an unbounded region is a finding, not an error),
2 input/validation problems (machine-readable JSON on stderr),
3 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import re
import sys
from collections import Counter
from dataclasses import replace

import numpy as np

from . import __version__
from ._linalg import as_vector
from .bounds import _check_r2, ignorance_region, robustness_value
from .calibrate import benchmark_table, implicit_r2
from .errors import ConvergenceError, DimensionError, InputFormatError, MtsensError
from .factor import (
    Contrast,
    Table,
    TreatmentMatrix,
    _distinct_reprs,
    _write_json,
    _write_text,
    conditional_confounder,
    fit_ppca,
    load_confounder,
    save_confounder,
    save_factor_model,
    select_dim,
)
from .mcc import build_bank_unitwise, mcc_minimize, mcc_report
from .outcome import (
    BinaryOutcome,
    EmpiricalOutcome,
    GaussianOutcome,
    fit_empirical,
    fit_linear,
    fit_probit,
    load_outcome,
    save_outcome,
)
from .proxy import fit_proxy, sigma_u2_domain, tau_adjusted, tau_bounds
from .riskratio import rr_curve
from .simulate import (
    SimTruth,
    gen_gwas,
    gen_linear_gaussian,
    gen_nonlinear,
    rotation_sweep,
)

LINEAR_PRESET_B = np.array([[2.0], [0.5], [-0.4], [0.2]])
LINEAR_PRESET_TAU = np.ones(4)
LINEAR_PRESET_GAMMA = np.array([2.8])


# ---------------------------------------------------------------- I/O helpers


def _table_rows(path, limit: int | None = None) -> list[str]:
    """The first limit rows (all by default) of a table that are neither
    blank nor '#' provenance."""
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet programs write
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = (ln for ln in fh if ln.rstrip("\r\n") and not ln.startswith("#"))
            return list(itertools.islice(rows, limit))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _parse_header(line: str, path) -> list[str]:
    """Column names of a header row, each nonempty and unique."""
    names = [c.strip() for c in next(csv.reader([line]))]
    if "" in names:
        raise InputFormatError(f"empty column name in the header row of {path}")
    repeated = [name for name, count in Counter(names).items() if count > 1]
    if repeated:
        raise InputFormatError(f"repeated column names in {path}: {repeated}")
    return names


def _read_header(path) -> list[str]:
    """Column names of a table, read up to its header row only."""
    lines = _table_rows(path, 1)
    if not lines:
        raise InputFormatError(f"{path} needs a header row")
    return _parse_header(lines[0], path)


def _read_table(path) -> tuple[list[str], np.ndarray]:
    """Comma-separated, UTF-8 with or without a byte-order mark, a header
    row of unique nonempty names required, '.' decimal, finite numbers only;
    rows starting with '#' (provenance) and blank rows are skipped. A '#'
    anywhere else is an error, never the start of a comment."""
    lines = _table_rows(path)
    if len(lines) < 2:
        raise InputFormatError(f"{path} needs a header row and at least one data row")
    names = _parse_header(lines[0], path)
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError as exc:
        raise InputFormatError(f"malformed data in {path}: {exc}") from exc
    if data.shape[1] != len(names):
        raise InputFormatError(f"ragged rows in {path}")
    if not np.isfinite(data).all():
        raise InputFormatError(f"non-finite value in {path}")
    return names, data


def _read_point(path, k: int) -> np.ndarray:
    names, data = _read_table(path)
    if data.shape != (1, k):
        raise InputFormatError(
            f"{path} must hold exactly one row of {k} treatment values, "
            f"got shape {data.shape}"
        )
    return data[0]


def _outcome_column(names: list[str], outcome: str) -> int | None:
    """Index of the outcome among the treatment table's columns, or None
    when it names a separate file."""
    if outcome in names:
        return names.index(outcome)
    if os.path.exists(outcome):
        return None
    raise InputFormatError(
        f"outcome {outcome!r} is neither a column of the treatment table nor a file"
    )


def _split_outcome(names: list[str], data: np.ndarray, outcome: str):
    """Outcome given as a column name in the treatment table or as a
    separate single-column CSV path. The treatments are a view of data when
    the outcome is its first or last column, and a copy otherwise."""
    j = _outcome_column(names, outcome)
    if j is not None:
        if j == len(names) - 1:
            t = data[:, :j]
        elif j == 0:
            t = data[:, 1:]
        else:
            t = np.delete(data, j, axis=1)
        return data[:, j], t, names[:j] + names[j + 1:]
    _, ydata = _read_table(outcome)
    if ydata.shape[1] != 1:
        raise InputFormatError(f"outcome file {outcome} must have one column")
    if ydata.shape[0] != data.shape[0]:
        raise InputFormatError("outcome file row count does not match treatments")
    return ydata[:, 0], data, list(names)


def _write_tsv(path, columns: list[str], rows, prov: dict) -> None:
    lines = [f"# {key}: {val}" for key, val in prov.items()] + ["\t".join(columns)]
    lines += ("\t".join(_fmt(v) for v in row) for row in rows)
    _write_text("\n".join(lines) + "\n", path)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


# ------------------------------------------------------------ flag parsing


def _parse_floats(text: str) -> list[float]:
    """Comma-separated numbers; empty items are skipped."""
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise InputFormatError(f"bad numeric list {text!r}: {exc}") from exc


def _parse_r2_list(text: str) -> list[float]:
    """'0.5' | '0.1,0.5,1' | 'start:stop:count'; never empty."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputFormatError(f"grid spec {text!r} must be start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise InputFormatError(f"bad grid spec {text!r}: {exc}") from exc
        if count < 2:
            raise InputFormatError("grid count must be at least 2")
        return [float(v) for v in np.linspace(start, stop, count)]
    values = _parse_floats(text)
    if not values:
        raise InputFormatError(f"numeric list {text!r} holds no value")
    return values


def _parse_contrasts(args, k: int) -> list[tuple[str, Contrast]]:
    out: list[tuple[str, Contrast]] = []
    if getattr(args, "all_unitwise", False):
        for j in range(k):
            out.append((f"e{j + 1}", Contrast.unit(k, j)))
    if args.contrast is not None:
        spec = args.contrast
        m_unit = re.fullmatch(r"e(\d+)", spec)
        if m_unit:
            j = int(m_unit.group(1))
            if not (1 <= j <= k):
                raise InputFormatError(f"contrast {spec} outside 1..{k}")
            out.append((spec, Contrast.unit(k, j - 1)))
        elif "," in spec:
            p1, p2 = (s.strip() for s in spec.split(",", 1))
            out.append((spec, Contrast(_read_point(p1, k), _read_point(p2, k))))
        else:
            raise InputFormatError(
                f"contrast {spec!r} must be 'eJ' or 'point1.csv,point2.csv'"
            )
    if not out:
        raise InputFormatError("no contrast given; use --contrast or --all-unitwise")
    return out


def _load_models(models_dir: str):
    cc = load_confounder(os.path.join(models_dir, "confounder.json"))
    outcome = load_outcome(os.path.join(models_dir, "outcome.json"))
    k = outcome.mean_fn.coef.shape[0] if isinstance(outcome, EmpiricalOutcome) else outcome.k
    if k != cc.k:
        raise DimensionError(f"the outcome model has k = {k}, the confounder k = {cc.k}")
    return cc, outcome


def _require_continuous(outcome):
    if isinstance(outcome, BinaryOutcome):
        raise InputFormatError(
            "this command needs a gaussian or empirical outcome model; "
            "binary outcomes are handled by the rr command"
        )
    return outcome


def _naive_contrast(outcome, c: Contrast) -> float:
    return float(outcome.mean(c.t1)) - float(outcome.mean(c.t2))


# ----------------------------------------------------------------- commands


def cmd_fit(args, prov: dict) -> int:
    names, data = _read_table(args.treatments)
    y, t_data, t_names = _split_outcome(names, data, args.outcome)
    tm = TreatmentMatrix(t_data, column_names=t_names)
    m = args.m if args.m is not None else select_dim(tm, args.select_dim)
    fm = fit_ppca(tm, m)
    cc = conditional_confounder(fm)
    if args.outcome_kind == "gaussian":
        outcome = fit_linear(tm, y)
        extra = f"sigma2_y_given_t = {outcome.sigma2_y_given_t:.6g}"
    elif args.outcome_kind == "probit":
        outcome = fit_probit(tm, y)
        extra = f"p_y1 = {outcome.p_y1:.6g}"
    else:
        outcome = fit_empirical(tm, y, degree=args.degree)
        extra = f"sigma2_y_given_t = {outcome.sigma2_y_given_t:.6g}"
    os.makedirs(args.out_dir, exist_ok=True)
    save_factor_model(fm, os.path.join(args.out_dir, "factor_model.json"), prov)
    save_confounder(cc, os.path.join(args.out_dir, "confounder.json"), prov)
    save_outcome(outcome, os.path.join(args.out_dir, "outcome.json"), prov)

    spectrum = ", ".join(f"{v:.4g}" for v in fm.covariance_eigvals[:10])
    print(f"fitted factor model: m = {m}, k = {tm.k}, n = {tm.n}")
    print(f"sigma2_t_given_u = {fm.sigma2_t_given_u:.6g}")
    print(f"outcome ({args.outcome_kind}): {extra}")
    print(f"covariance eigenvalues: {spectrum}")
    print(f"models written to {args.out_dir}/")
    return 0


def _contrast_columns(outcome, cc, sigma, contrasts):
    """Ids, naive effects, robustness values and robust flags of the
    contrasts, as columns."""
    ids, naive, rv, robust = [], [], [], []
    for contrast_id, c in contrasts:
        effect = _naive_contrast(outcome, c)
        value = robustness_value(effect, cc, sigma, c)
        ids.append(contrast_id)
        naive.append(effect)
        rv.append(value.value)
        robust.append(value.robust)
    return np.array(ids), np.array(naive), np.array(rv), np.array(robust)


def cmd_bounds(args, prov: dict) -> int:
    cc, outcome = _load_models(args.models)
    _require_continuous(outcome)
    sigma = outcome.sigma()
    contrasts = _parse_contrasts(args, cc.k)
    r2 = np.array([_check_r2(v) for v in _parse_r2_list(args.r2)])
    ids, naive, rv, _ = _contrast_columns(outcome, cc, sigma, contrasts)
    # The region of a zero effect at unit sigma and cap 1 is [-w, w] with
    # w = ||Sigma^{-1/2} mu_delta|| exactly, so every cap's half-width is
    # the product worst_case_bias forms; every cap is unbounded, r2 = 0
    # included, when this one is.
    units = [ignorance_region(0.0, cc, 1.0, 1.0, c) for _, c in contrasts]
    bounded = np.array([u.bounded for u in units])
    w = np.array([u.upper if u.bounded else 0.0 for u in units])
    half = np.where(bounded[:, None], sigma * np.sqrt(r2) * w[:, None], math.inf)
    g = len(r2)
    table = Table(
        contrast_id=np.repeat(ids, g),
        naive=np.repeat(naive, g),
        lower=(naive[:, None] - half).ravel(),
        upper=(naive[:, None] + half).ravel(),
        r2_cap=np.tile(r2, len(ids)),
        rv=np.repeat(rv, g),
        bounded=np.repeat(bounded, g),
    )
    _write_json({"results": table}, args.out, prov)
    return 0


def cmd_rv(args, prov: dict) -> int:
    cc, outcome = _load_models(args.models)
    _require_continuous(outcome)
    sigma = outcome.sigma()
    columns = _contrast_columns(outcome, cc, sigma, _parse_contrasts(args, cc.k))
    for contrast_id, effect, value, robust in zip(*(col.tolist() for col in columns)):
        flag = " (robust at any confounding level)" if robust else ""
        print(f"{contrast_id}: naive = {effect:.6g}, RV = {100 * value:.1f}%{flag}")
    table = Table(zip(("contrast_id", "naive", "rv", "robust"), columns))
    _write_json({"results": table}, args.out, prov)
    return 0


def cmd_calibrate(args, prov: dict) -> int:
    names, data = _read_table(args.treatments)
    y, t_data, t_names = _split_outcome(names, data, args.outcome)
    tm = TreatmentMatrix(t_data)
    if args.outcome_kind == "probit":
        model = fit_probit(tm, y)
        rows = [
            (t_names[j], implicit_r2(tm, y, model, j)) for j in range(tm.k)
        ]
    else:
        rows = benchmark_table(tm, y, names=t_names)
    _write_tsv(args.out, ["column", "partial_r2"], rows, prov)
    return 0


def cmd_mcc(args, prov: dict) -> int:
    cc, outcome = _load_models(args.models)
    _require_continuous(outcome)
    if not isinstance(outcome, GaussianOutcome):
        raise InputFormatError("mcc needs the linear (gaussian) outcome model")
    bank = build_bank_unitwise(cc, None, outcome)
    if args.treatments is not None:
        # the bank needs only k and the contrast names: the header row
        names = _read_header(args.treatments)
        if args.outcome is not None:
            j = _outcome_column(names, args.outcome)
            if j is not None:
                del names[j]
        if len(names) != cc.k:
            raise DimensionError("treatments and confounder dimensions disagree")
        bank = replace(bank, ids=tuple(names))
    result = mcc_minimize(bank, norm=args.norm, r2_cap=args.r2_cap)
    rows = mcc_report(bank, result.gamma_star)
    os.makedirs(args.out_dir, exist_ok=True)
    tsv_path = os.path.join(args.out_dir, "mcc_report.tsv")
    json_path = os.path.join(args.out_dir, "mcc_summary.json")
    _write_tsv(
        tsv_path,
        ["contrast_id", "naive", "adjusted", "shrinkage_ratio"],
        [(r.contrast_id, r.naive, r.adjusted, r.shrinkage_ratio) for r in rows],
        prov,
    )
    order = {"l1": 1, "l2": None, "linf": np.inf}[result.norm]
    naive_norm = float(np.linalg.norm(bank.naive, order))
    summary = {
        "norm": result.norm,
        "r2_cap": result.r2_cap,
        "achieved_norm": result.achieved_norm,
        "naive_norm": naive_norm,
        "achieved_r2": result.achieved_r2,
        "lambda_star": result.lambda_star,
        "n_iter": result.n_iter,
        "duality_gap": result.duality_gap,
        "gamma_star": result.gamma_star,
    }
    _write_json(summary, json_path, prov)
    print(
        f"mcc {result.norm} at r2_cap={result.r2_cap:g}: "
        f"norm {naive_norm:.6g} -> {result.achieved_norm:.6g} "
        f"(achieved r2 = {result.achieved_r2:.6g})"
    )
    print(f"report written to {tsv_path}, summary to {json_path}")
    return 0


def cmd_rr(args, prov: dict) -> int:
    cc, outcome = _load_models(args.models)
    if not isinstance(outcome, BinaryOutcome):
        raise InputFormatError("rr needs a probit outcome model")
    contrasts = _parse_contrasts(args, cc.k)
    if len(contrasts) != 1:
        raise InputFormatError("rr takes exactly one contrast")
    _, c = contrasts[0]
    if args.direction is not None:
        d = as_vector(_parse_floats(args.direction), "direction")
        if d.shape[0] != cc.m:
            raise InputFormatError(f"direction needs {cc.m} components")
    elif cc.m == 1:
        d = np.ones(1)
    else:
        raise InputFormatError("--direction is required when m > 1")
    nrm = float(np.linalg.norm(d))
    if nrm == 0:
        raise InputFormatError("direction must be nonzero")
    d = d / nrm
    names, data = _read_table(args.treatments)
    if args.outcome is not None:
        _, data, _ = _split_outcome(names, data, args.outcome)
    observed = TreatmentMatrix(data)
    grid = _parse_r2_list(args.grid)
    curve = rr_curve(c, cc, outcome, observed, d, grid)
    _write_tsv(args.out, ["signed_r2", "rr"], curve, prov)
    return 0


def cmd_proxy(args, prov: dict) -> int:
    names, data = _read_table(args.data)
    if data.shape[1] != 3:
        raise InputFormatError(
            f"proxy data must have exactly 3 columns (outcome, treatment, "
            f"proxy), got {data.shape[1]}"
        )
    y, t, z = data[:, 0], data[:, 1], data[:, 2]
    fit = fit_proxy(y, t, z)
    lo, hi = sigma_u2_domain(fit)
    region = tau_bounds(fit)
    payload = {
        "fit": {
            "tilde_beta": fit.tilde_beta,
            "tilde_gamma": fit.tilde_gamma,
            "tilde_tau": fit.tilde_tau,
            "sigma2_t": fit.sigma2_t,
            "sigma2_t_given_z": fit.sigma2_t_given_z,
            "sigma2_y_given_tz": fit.sigma2_y_given_tz,
        },
        "domain": {"lo": lo, "hi": hi},
        "region": {
            "naive": region.naive,
            "lower": region.lower,
            "upper": region.upper,
            "bounded": region.bounded,
        },
    }
    if args.sigma_u2 is not None:
        payload["adjusted"] = [
            {"sigma_u2": v, "tau": tau_adjusted(fit, v)}
            for v in _parse_r2_list(args.sigma_u2)
        ]
    _write_json(payload, args.out, prov)
    return 0


def _write_dataset(out_dir: str, stem: str, tm: TreatmentMatrix, y, truth, prov):
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{stem}_data.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        for key, val in prov.items():
            fh.write(f"# {key}: {val}\n")
        csv.writer(fh).writerow(tm.names() + ["y"])
        # float reprs never need quoting; "\r\n" is csv.writer's terminator.
        # Blocks of rows bound the text arrays' memory.
        data = np.column_stack([tm.data, y])
        for start in range(0, data.shape[0], 256):
            text = _distinct_reprs(data[start:start + 256])
            fh.writelines(",".join(row) + "\r\n" for row in text.tolist())
    truth_payload = {
        "b_true": truth.b_true,
        "sigma2_t_given_u": truth.sigma2_t_given_u,
        "sigma2_y_given_tu": truth.sigma2_y_given_tu,
        "gamma_true": truth.gamma_true,
        "tau_true": truth.tau_true,
        "seed": truth.seed,
        "binary_y": truth.binary_y,
        "nonnull_mask": truth.nonnull_mask,
    }
    _write_json(truth_payload, os.path.join(out_dir, f"{stem}_truth.json"), prov)
    print(f"wrote {csv_path} and {stem}_truth.json")


def cmd_simulate(args, prov: dict) -> int:
    preset = args.preset
    if preset in ("rotation", "linear"):
        truth = SimTruth(
            b_true=LINEAR_PRESET_B,
            sigma2_t_given_u=1.0,
            sigma2_y_given_tu=1.0,
            gamma_true=LINEAR_PRESET_GAMMA,
            tau_true=LINEAR_PRESET_TAU,
            seed=args.seed,
        )
    if preset == "rotation":
        table = rotation_sweep(
            truth.factor_model(), 1.0, args.r2_cap, n_theta=args.n_theta
        )
        os.makedirs(args.out_dir, exist_ok=True)
        _write_tsv(
            os.path.join(args.out_dir, "rotation.tsv"), ["theta", "bound"], table, prov
        )
        print(f"wrote {os.path.join(args.out_dir, 'rotation.tsv')}")
        return 0
    if preset == "linear":
        data = gen_linear_gaussian(truth, args.n or 2000)
    elif preset in ("nonlinear", "nonlinear-binary"):
        data = gen_nonlinear(
            args.n or 5000, binary_y=(preset == "nonlinear-binary"), seed=args.seed
        )
    elif preset == "gwas":
        data = gen_gwas(
            n=args.n or 1000,
            k=args.k,
            m=args.m,
            frac_large=args.frac_large,
            seed=args.seed,
        )
    else:
        raise InputFormatError(f"unknown preset {preset!r}")
    _write_dataset(args.out_dir, preset, data.treatments, data.y, data.truth, prov)
    return 0


# -------------------------------------------------------------------- wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtsens",
        description=(
            "Sensitivity analysis for unobserved confounding with many "
            "simultaneous treatments"
        ),
    )
    parser.add_argument("--version", action="version", version=f"mtsens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit factor, confounder, and outcome models")
    p.add_argument("--treatments", required=True, help="CSV with header row")
    p.add_argument(
        "--outcome", required=True, help="outcome column name or single-column CSV"
    )
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--m", type=int, help="confounder dimension")
    g.add_argument(
        "--select-dim",
        choices=("eigen_gap", "holdout"),
        help="pick the dimension automatically",
    )
    p.add_argument(
        "--outcome-kind",
        choices=("gaussian", "probit", "empirical"),
        default="gaussian",
    )
    p.add_argument("--degree", type=int, default=2, help="empirical-mean degree")
    p.add_argument("--out-dir", default="models")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("bounds", help="ignorance regions over an r2 grid")
    p.add_argument("--models", default="models")
    p.add_argument("--contrast", help="'eJ' or 'point1.csv,point2.csv'")
    p.add_argument("--all-unitwise", action="store_true")
    p.add_argument("--r2", default="1.0", help="value, comma list, or start:stop:count")
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("rv", help="robustness values per contrast")
    p.add_argument("--models", default="models")
    p.add_argument("--contrast")
    p.add_argument("--all-unitwise", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rv)

    p = sub.add_parser("calibrate", help="observable benchmark partial R2 table")
    p.add_argument("--treatments", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument(
        "--outcome-kind", choices=("gaussian", "probit"), default="gaussian"
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("mcc", help="norm-minimizing candidate causal model")
    p.add_argument("--models", default="models")
    p.add_argument("--treatments", default=None, help="optional CSV for contrast names")
    p.add_argument("--outcome", default=None, help="outcome column to drop from CSV")
    p.add_argument("--norm", choices=("l1", "l2", "linf"), default="l2")
    p.add_argument("--r2-cap", type=float, default=1.0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_mcc)

    p = sub.add_parser("rr", help="binary-outcome risk-ratio curve")
    p.add_argument("--models", default="models")
    p.add_argument("--treatments", required=True)
    p.add_argument("--outcome", default=None, help="outcome column to drop from CSV")
    p.add_argument("--contrast", required=True)
    p.add_argument("--direction", default=None, help="comma-separated, normalized")
    p.add_argument("--grid", default="-1:1:201", help="signed r2 grid")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rr)

    p = sub.add_parser("proxy", help="proxy-variable sensitivity analysis")
    p.add_argument("--data", required=True, help="3-column CSV: outcome, treatment, proxy")
    p.add_argument("--sigma-u2", default=None, help="evaluate tau at these values")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_proxy)

    p = sub.add_parser("simulate", help="generate a preset dataset")
    p.add_argument(
        "--preset",
        required=True,
        choices=("linear", "nonlinear", "nonlinear-binary", "gwas", "rotation"),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=100, help="gwas: treatment count")
    p.add_argument("--m", type=int, default=3, help="gwas: confounder dimension")
    p.add_argument("--frac-large", type=float, default=0.1, help="gwas: non-null share")
    p.add_argument("--r2-cap", type=float, default=1.0, help="rotation: r2 level")
    p.add_argument("--n-theta", type=int, default=50, help="rotation: grid size")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_simulate)

    return parser


def _error_payload(exc: BaseException) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    prov = {
        "command": "mtsens " + " ".join(argv),
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }
    try:
        return args.func(args, prov)
    except ConvergenceError as exc:
        print(_error_payload(exc), file=sys.stderr)
        return 3
    except (MtsensError, OSError) as exc:
        print(_error_payload(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
