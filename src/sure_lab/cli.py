"""Experiment runner CLI: simulate, verify-lemmas, family-info.

Configs are versioned JSON documents (see docs/config_schema.md); all
randomness flows from the configured master seed so outputs are byte-stable
across reruns and worker counts.

Exit codes: 0 success / all checks pass, 1 config or validation error,
2 exact-identity or lemma check failure, 3 lemma domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import concentration, criteria, montecarlo, smoothers
from .sequence_model import GaussianSequenceModel, make_theta0
from .smoothers import SmootherFamily, build_smoother, load_family

CONFIG_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAILED = 2
EXIT_DOMAIN = 3


class ConfigError(ValueError):
    pass


def _require_keys(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is not 1


def _is_number(value) -> bool:
    """A finite JSON number (JSON true is not 1; NaN and Infinity are rejected)."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        return False


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc


def _build_model(spec) -> GaussianSequenceModel:
    _require_keys(spec, {"n", "sigma", "theta0"}, {"n", "sigma", "theta0"}, "model")
    n = spec["n"]
    if not _is_int(n) or n < 1:
        raise ConfigError(f"model.n: must be a positive integer, got {n!r}")
    sigma = spec["sigma"]
    if not _is_number(sigma) or sigma <= 0:
        raise ConfigError(f"model.sigma: must be a positive number, got {sigma!r}")
    theta_spec = spec["theta0"]
    if not isinstance(theta_spec, dict) or "kind" not in theta_spec:
        raise ConfigError("model.theta0: must be an object with a 'kind' key")
    params = {key: value for key, value in theta_spec.items() if key != "kind"}
    try:
        theta0 = make_theta0(theta_spec["kind"], n, **params)
    except ValueError as exc:
        raise ConfigError(f"model.theta0: {exc}") from exc
    return GaussianSequenceModel(theta0=theta0, sigma=float(sigma))


def _build_family(spec, n) -> SmootherFamily:
    _require_keys(spec, {"smoothers", "path"}, (), "family")
    if ("path" in spec) == ("smoothers" in spec):
        raise ConfigError("family: provide exactly one of 'smoothers' or 'path'")
    if "path" in spec:
        try:
            family = load_family(spec["path"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"family.path: {exc}") from exc
    else:
        try:
            family = SmootherFamily.of(
                build_smoother(item, n) for item in spec["smoothers"])
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"family.smoothers: {exc}") from exc
    if n is not None and family.n != n:
        raise ConfigError(f"family: dimension {family.n} does not match model.n = {n}")
    return family


def _parse_experiment_config(doc):
    _require_keys(
        doc,
        {"schema_version", "model", "family", "n_reps", "master_seed", "outputs", "bounds"},
        {"schema_version", "model", "family", "n_reps", "master_seed"},
        "config",
    )
    if doc["schema_version"] != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"schema_version: unsupported value {doc['schema_version']!r}")
    model = _build_model(doc["model"])
    family = _build_family(doc["family"], model.n)
    n_reps = doc["n_reps"]
    if not _is_int(n_reps) or n_reps < 1:
        raise ConfigError(f"n_reps: must be a positive integer, got {n_reps!r}")
    master_seed = doc["master_seed"]
    if not _is_int(master_seed) or not 0 <= master_seed < 2**64:
        raise ConfigError(f"master_seed: must be a 64-bit unsigned integer, got {master_seed!r}")
    outputs = doc.get("outputs", {})
    _require_keys(outputs, {"summary", "records", "keep_records"}, (), "outputs")
    bounds = doc.get("bounds", {})
    _require_keys(bounds, {"c_test", "eta_grid"}, (), "bounds")
    c_test = bounds.get("c_test", 1.0)
    if not _is_number(c_test) or c_test <= 0:
        raise ConfigError(f"bounds.c_test: must be a positive number, got {c_test!r}")
    eta_grid = bounds.get("eta_grid", [0.1, 0.5, 1.0])
    if (not isinstance(eta_grid, list) or not eta_grid
            or any(not _is_number(e) or e <= 0 for e in eta_grid)):
        raise ConfigError(f"bounds.eta_grid: must be a nonempty list of positive numbers")
    return {
        "model": model,
        "family": family,
        "n_reps": n_reps,
        "master_seed": master_seed,
        "outputs": outputs,
        "c_test": float(c_test),
        "eta_grid": [float(e) for e in eta_grid],
    }


def _dump_json(doc, path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _flatten(doc, prefix=""):
    rows = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            rows.extend(_flatten(doc[key], f"{prefix}{key}."))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            rows.extend(_flatten(item, f"{prefix}{i}."))
    else:
        value = "" if doc is None else (repr(float(doc)) if isinstance(doc, float) else str(doc))
        rows.append(f"{prefix[:-1]},{value}")
    return rows


def _write_report(doc, path, fmt):
    if fmt == "csv":
        text = "key,value\n" + "\n".join(_flatten(doc)) + "\n"
        if path is None or path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)
    else:
        _dump_json(doc, path)


def _bound_table(summary, cfg):
    model = cfg["model"]
    family = cfg["family"]
    oracle_risk = min(criteria.risk(m, model) for m in family.members)
    edf_est = summary.estimates["edf_total"]["mean"]
    h_op_eff = max(1.0, family.h_op)
    if summary.r_star > 0:
        bound = criteria.edf_bound(summary.r_star, len(family), h_op_eff)
    else:
        bound = None
    ratio = None if not bound else edf_est / bound
    gap_rows = [
        {
            "eta": eta,
            "c_test": cfg["c_test"],
            "bound": criteria.oracle_gap_bound(
                oracle_risk, model.sigma, len(family), eta, cfg["c_test"]),
        }
        for eta in cfg["eta_grid"]
    ]
    return {
        "edf": {
            "estimate": edf_est,
            "stderr": summary.estimates["edf_total"]["stderr"],
            "bound": bound,
            "h_op_effective": h_op_eff,
            "ratio": ratio,
        },
        "oracle_gap": {
            "oracle_risk": oracle_risk,
            "risk_tuned_estimate": summary.estimates["risk_tuned"]["mean"],
            "rows": gap_rows,
        },
    }


def cmd_simulate(args) -> int:
    cfg = _parse_experiment_config(_load_json(args.config))
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    n_threads = args.threads
    if n_threads is None:
        env = os.environ.get("SURE_LAB_THREADS")
        n_threads = int(env) if env else (os.cpu_count() or 1)
    outputs = cfg["outputs"]
    records_path = args.records or outputs.get("records")
    keep_records = bool(records_path) or bool(outputs.get("keep_records"))
    summary, records = montecarlo.run_experiment(
        cfg["family"], cfg["model"], cfg["n_reps"], cfg["master_seed"],
        n_threads=n_threads, keep_records=keep_records)
    doc = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "master_seed": cfg["master_seed"],
        "summary": summary.to_json_dict(),
        "bounds": _bound_table(summary, cfg),
    }
    out_path = args.out or outputs.get("summary")
    _write_report(doc, out_path, args.format)
    if records_path:
        with open(records_path, "w") as fh:
            fh.write(montecarlo.records_to_csv(records))
    if not summary.all_identities_pass:
        print("exact identity check failed; see identity_pass_rates", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


DEFAULT_LEMMA_CONFIG = {
    "schema_version": 1,
    "master_seed": 42,
    "maxima": {"n_samples": 100_000, "n_vars": [1, 10, 100], "k": [1, 2, 4],
               "tau": [1.0, 2.0]},
    "quadratic": {"n_samples": 200_000, "slack": 0.0, "n_matrices": 5, "dim": 4,
                  "lambda_fractions": [0.9, 0.5, 0.1]},
}


def _parse_lemma_config(doc):
    _require_keys(doc, {"schema_version", "master_seed", "maxima", "quadratic"},
                  (), "config")
    cfg = json.loads(json.dumps(DEFAULT_LEMMA_CONFIG))
    if doc.get("schema_version", 1) != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"schema_version: unsupported value {doc['schema_version']!r}")
    if "master_seed" in doc:
        cfg["master_seed"] = doc["master_seed"]
    for section in ("maxima", "quadratic"):
        sub = doc.get(section, {})
        _require_keys(sub, set(cfg[section]), (), section)
        cfg[section].update(sub)
    if cfg["quadratic"]["slack"] < 0:
        raise ConfigError("quadratic.slack: must be nonnegative")
    fracs = cfg["quadratic"]["lambda_fractions"]
    if any(not 0 <= f <= 0.95 for f in fracs):
        raise ConfigError("quadratic.lambda_fractions: must lie in [0, 0.95]")
    if cfg["maxima"]["n_samples"] < 2 or cfg["quadratic"]["n_samples"] < 10**4:
        raise ConfigError("n_samples: too small for a meaningful battery")
    return cfg


def cmd_verify_lemmas(args) -> int:
    doc = _load_json(args.config) if args.config else {}
    cfg = _parse_lemma_config(doc)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    seed = cfg["master_seed"]
    report = {"maxima": [], "quadratic_exact": [], "quadratic_mc": []}
    all_pass = True

    mx = cfg["maxima"]
    case = 0
    for tau in mx["tau"]:
        for n_vars in mx["n_vars"]:
            for k in mx["k"]:
                empirical, bound, passed = concentration.verify_max_moment(
                    n_vars, k, tau, mx["n_samples"], master_seed=seed + case)
                case += 1
                all_pass &= passed
                report["maxima"].append({
                    "n_vars": n_vars, "k": k, "tau": tau,
                    "empirical": empirical, "bound": bound, "passed": passed,
                })

    qd = cfg["quadratic"]
    rng = np.random.Generator(np.random.Philox(key=seed))
    try:
        # exact chi-square oracle on the identity quadratic form
        ident = np.eye(2)
        first, _ = concentration.quadratic_form_params(ident)
        grid = [f / first.b for f in qd["lambda_fractions"]]
        grid += [-g for g in grid] + [0.0]
        for check in concentration.verify_mgf_bound(
                None, first, grid, qd["n_samples"], master_seed=seed,
                slack=qd["slack"], exact_eigs=np.ones(2)):
            all_pass &= check.passed
            report["quadratic_exact"].append(vars(check) | {"matrix": "identity_2"})
        for m_idx in range(qd["n_matrices"]):
            a = rng.standard_normal((qd["dim"], qd["dim"]))
            first, _ = concentration.quadratic_form_params(a)
            grid = [f / first.b for f in qd["lambda_fractions"]]
            grid += [-g for g in grid] + [0.0]
            checks = concentration.verify_mgf_bound(
                concentration.quadratic_form_sampler(a), first, grid,
                qd["n_samples"], master_seed=seed + 1000 + m_idx, slack=qd["slack"])
            for check in checks:
                all_pass &= check.passed
                report["quadratic_mc"].append(vars(check) | {"matrix_index": m_idx})
    except ValueError as exc:
        report["domain_error"] = str(exc)
        _dump_json(report, args.out)
        return EXIT_DOMAIN

    report["all_pass"] = bool(all_pass)
    _dump_json(report, args.out)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_family_info(args) -> int:
    if (args.family is None) == (args.config is None):
        raise ConfigError("family-info: provide exactly one of --family or --config")
    if args.family:
        try:
            family = load_family(args.family)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"--family: {exc}") from exc
    else:
        doc = _load_json(args.config)
        cfg = _parse_experiment_config(doc)
        family = cfg["family"]
    header = f"{'label':<16}{'df':>12}{'frob_sq':>12}{'opnorm':>12}{'gershgorin':>12}"
    print(header)
    for m in family.members:
        if m.kind == "knn":
            gersh = f"{smoothers.knn_opnorm_bound(m, m.params['k']):>12.6g}"
        else:
            gersh = f"{'-':>12}"
        print(f"{m.label:<16}{m.df:>12.6g}{m.frob_sq:>12.6g}{m.opnorm:>12.6g}{gersh}")
    print(f"h_op = {family.h_op:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sure-lab",
        description="SURE-tuned smoother selection simulator and lemma verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded Monte Carlo experiment")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None, help="override config master_seed")
    sim.add_argument("--threads", type=int, default=None)
    sim.add_argument("--records", default=None, help="write per-replicate CSV here")
    sim.add_argument("--out", default=None, help="summary output path (default stdout)")
    sim.add_argument("--format", choices=("json", "csv"), default="json")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify-lemmas", help="run the concentration lemma battery")
    ver.add_argument("--config", default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify_lemmas)

    info = sub.add_parser("family-info", help="print per-smoother statistics")
    info.add_argument("--family", default=None, help="serialized family JSON")
    info.add_argument("--config", default=None, help="experiment config JSON")
    info.set_defaults(func=cmd_family_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
