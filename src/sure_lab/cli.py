"""Experiment runner CLI: simulate, verify-lemmas, family-info.

Configs are versioned JSON documents (see docs/config_schema.md); all
randomness flows from the configured master seed so outputs are byte-stable
across reruns and worker counts.

Exit codes: 0 success / all checks pass, 1 config or validation error, an
output that cannot be written or memory that cannot be allocated, 2
exact-identity or lemma check failure, 3 lemma domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import _validate as validate
from . import concentration, criteria, montecarlo, smoothers
from ._validate import ConfigError
from .sequence_model import GaussianSequenceModel, derive_stream, make_theta0
from .smoothers import SmootherFamily, build_smoother, load_family

CONFIG_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAILED = 2
EXIT_DOMAIN = 3


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc


def _build_model(spec) -> GaussianSequenceModel:
    validate.obj(spec, "model", ("n", "sigma", "theta0"))
    n = validate.integer(spec["n"], "model.n", 1)
    sigma = validate.number(spec["sigma"], "model.sigma", positive=True)
    # any keys besides kind: make_theta0 checks the parameters of the kind
    params = dict(validate.obj(spec["theta0"], "model.theta0", ("kind",), spec["theta0"]))
    kind = params.pop("kind")
    return GaussianSequenceModel(theta0=make_theta0(kind, n, **params), sigma=sigma)


def _build_family(spec, n) -> SmootherFamily:
    validate.obj(spec, "family", optional=("smoothers", "path"))
    if ("path" in spec) == ("smoothers" in spec):
        raise ConfigError("family: provide exactly one of 'smoothers' or 'path'")
    if "path" in spec:
        path = validate.string(spec["path"], "family.path")
        try:
            family = load_family(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"family.path: {exc}") from exc
    else:
        try:
            family = SmootherFamily.of(validate.list_of(
                spec["smoothers"], "family.smoothers", lambda item, _: build_smoother(item, n)))
        except ValueError as exc:
            raise ConfigError(f"family.smoothers: {exc}") from exc
    if n is not None and family.n != n:
        raise ConfigError(f"family: dimension {family.n} does not match model.n = {n}")
    return family


def _parse_experiment_config(doc):
    validate.obj(doc, "config", ("schema_version", "model", "family", "n_reps", "master_seed"),
                 ("outputs", "bounds"))
    validate.integer(doc["schema_version"], "schema_version",
                     CONFIG_SCHEMA_VERSION, CONFIG_SCHEMA_VERSION)
    n_reps = validate.integer(doc["n_reps"], "n_reps", 1, sys.maxsize)  # len() of the block range
    master_seed = validate.integer(doc["master_seed"], "master_seed", 0, 2**64 - 1)
    outputs = validate.obj(doc.get("outputs", {}), "outputs",
                           optional=("summary", "records", "keep_records"))
    for key in ("summary", "records"):
        if outputs.get(key) is not None:
            validate.string(outputs[key], f"outputs.{key}")
    # keep_records has no effect; it stays valid so schema-1 documents still load
    validate.boolean(outputs.get("keep_records", False), "outputs.keep_records")
    bounds = validate.obj(doc.get("bounds", {}), "bounds", optional=("c_test", "eta_grid"))
    c_test = validate.number(bounds.get("c_test", 1.0), "bounds.c_test", positive=True)
    eta_grid = validate.list_of(bounds.get("eta_grid", [0.1, 0.5, 1.0]), "bounds.eta_grid",
                                validate.number, True)
    if not eta_grid:
        raise ConfigError("bounds.eta_grid: must be a nonempty list of positive numbers")
    model = _build_model(doc["model"])
    return {
        "model": model,
        "family": _build_family(doc["family"], model.n),
        "n_reps": n_reps,
        "master_seed": master_seed,
        "outputs": outputs,
        "c_test": c_test,
        "eta_grid": eta_grid,
    }


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


def _open_output(path, stack):
    """stdout for None or "-", else `path` opened for writing until `stack` closes."""
    if path is None or path == "-":
        return sys.stdout
    return stack.enter_context(open(path, "w"))


def _write_report(doc, fh, fmt):
    if fmt == "csv":
        fh.write("key,value\n" + "\n".join(_flatten(doc)) + "\n")
    else:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _bound_table(summary, cfg):
    model = cfg["model"]
    family = cfg["family"]
    oracle_risk = min(criteria.risk(m, model) for m in family.members)
    edf_est = summary.estimates["edf_total"]["mean"]
    h_op_eff = family.h_op_effective
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
        cfg["master_seed"] = validate.integer(args.seed, "--seed", 0, 2**64 - 1)
    outputs = cfg["outputs"]
    out_path = args.out or outputs.get("summary")
    records_path = args.records or outputs.get("records")
    if records_path and out_path not in (None, "-") and (
            os.path.realpath(out_path) == os.path.realpath(records_path)):
        raise ConfigError(f"summary and records outputs are the same file: {records_path}")
    # Outputs are opened before the run: a path that cannot be written costs
    # no replicate, and a run that fails leaves the opened files empty.
    with contextlib.ExitStack() as stack:
        out = _open_output(out_path, stack)
        records_fh = stack.enter_context(open(records_path, "w")) if records_path else None
        summary, records = montecarlo.run_experiment(
            cfg["family"], cfg["model"], cfg["n_reps"], cfg["master_seed"],
            n_threads=args.threads, keep_records=records_fh is not None)
        doc = {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "master_seed": cfg["master_seed"],
            "summary": summary.to_json_dict(),
            "bounds": _bound_table(summary, cfg),
        }
        _write_report(doc, out, args.format)
        if records_fh is not None:
            montecarlo.records_to_csv(records, records_fh)
    if not summary.all_identities_pass:
        print("exact identity check failed; see identity_pass_rates", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# Every lemma battery field: its default and its check(value, where).
_LEMMA_FIELDS = {
    "maxima": {
        "n_samples": (100_000, lambda v, w: validate.integer(v, w, 2)),
        "n_vars": ([1, 10, 100], lambda v, w: validate.list_of(v, w, validate.integer, 1)),
        "k": ([1, 2, 4], lambda v, w: validate.list_of(v, w, validate.number, True)),
        "tau": ([1.0, 2.0], lambda v, w: validate.list_of(v, w, validate.number, True)),
    },
    "quadratic": {
        "n_samples": (200_000, lambda v, w: validate.integer(v, w, 10**4)),
        "slack": (0.0, validate.number),
        "n_matrices": (5, lambda v, w: validate.integer(v, w, 0, 1024)),
        "dim": (4, lambda v, w: validate.integer(v, w, 1, 1024)),
        "lambda_fractions": ([0.9, 0.5, 0.1],
                             lambda v, w: validate.list_of(v, w, validate.number)),
    },
}
# A battery case draws one float64 array of at most 2^27 entries (1 GiB).
_MAX_DRAWS = 2**27


def _parse_lemma_config(doc):
    """The battery settings: each field as given in `doc`, or its default, once checked."""
    validate.obj(doc, "config", optional=("schema_version", "master_seed", *_LEMMA_FIELDS))
    validate.integer(doc.get("schema_version", CONFIG_SCHEMA_VERSION), "schema_version",
                     CONFIG_SCHEMA_VERSION, CONFIG_SCHEMA_VERSION)
    cfg = {"master_seed": validate.integer(doc.get("master_seed", 42), "master_seed",
                                           0, 2**64 - 1)}
    for section, fields in _LEMMA_FIELDS.items():
        given = validate.obj(doc.get(section, {}), section, optional=fields)
        cfg[section] = {key: given.get(key, default) for key, (default, _) in fields.items()}
        for key, (_, check) in fields.items():
            check(cfg[section][key], f"{section}.{key}")
    mx, qd = cfg["maxima"], cfg["quadratic"]
    if qd["slack"] < 0:
        raise ConfigError("quadratic.slack: must be nonnegative")
    if any(not 0 <= f <= 0.95 for f in qd["lambda_fractions"]):
        raise ConfigError("quadratic.lambda_fractions: must lie in [0, 0.95]")
    for where, draws in (("maxima.n_samples * max(maxima.n_vars)",
                          mx["n_samples"] * max(mx["n_vars"], default=0)),
                         ("quadratic.n_samples * quadratic.dim", qd["n_samples"] * qd["dim"])):
        if draws > _MAX_DRAWS:
            raise ConfigError(f"{where}: must be at most 2^27, got {draws}")
    return cfg


def cmd_verify_lemmas(args) -> int:
    doc = _load_json(args.config) if args.config else {}
    cfg = _parse_lemma_config(doc)
    if args.seed is not None:
        cfg["master_seed"] = validate.integer(args.seed, "--seed", 0, 2**64 - 1)
    with contextlib.ExitStack() as stack:
        out = _open_output(args.out, stack)  # before the battery, as simulate does
        report, code = _lemma_battery(cfg)
        _write_report(report, out, "json")
    return code


def _lemma_battery(cfg):
    """(report, exit code) of the lemma battery; case seeds wrap modulo 2^64."""
    seed = cfg["master_seed"]
    report = {"maxima": [], "quadratic_exact": [], "quadratic_mc": []}
    all_pass = True

    mx = cfg["maxima"]
    case = 0
    for tau in mx["tau"]:
        for n_vars in mx["n_vars"]:
            for k in mx["k"]:
                empirical, bound, passed = concentration.verify_max_moment(
                    n_vars, k, tau, mx["n_samples"], master_seed=(seed + case) % 2**64)
                case += 1
                all_pass &= passed
                report["maxima"].append({
                    "n_vars": n_vars, "k": k, "tau": tau,
                    "empirical": empirical, "bound": bound, "passed": passed,
                })

    qd = cfg["quadratic"]

    def lambda_grid(params):  # fractions of the domain edge 1/b, both signs, and 0
        grid = [f / params.b for f in qd["lambda_fractions"]]
        return grid + [-g for g in grid] + [0.0]

    rng = derive_stream(seed, 0)
    try:
        # exact chi-square oracle on the identity quadratic form
        first, _ = concentration.quadratic_form_params(np.eye(2))
        for check in concentration.verify_mgf_bound(
                None, first, lambda_grid(first), qd["n_samples"], master_seed=seed,
                slack=qd["slack"], exact_eigs=np.ones(2)):
            all_pass &= check.passed
            report["quadratic_exact"].append(vars(check) | {"matrix": "identity_2"})
        for m_idx in range(qd["n_matrices"]):
            a = rng.standard_normal((qd["dim"], qd["dim"]))
            first, _ = concentration.quadratic_form_params(a)
            checks = concentration.verify_mgf_bound(
                concentration.quadratic_form_sampler(a), first, lambda_grid(first),
                qd["n_samples"], master_seed=(seed + 1000 + m_idx) % 2**64,
                slack=qd["slack"])
            for check in checks:
                all_pass &= check.passed
                report["quadratic_mc"].append(vars(check) | {"matrix_index": m_idx})
    except ValueError as exc:
        report["domain_error"] = str(exc)
        return report, EXIT_DOMAIN

    report["all_pass"] = bool(all_pass)
    return report, EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_family_info(args) -> int:
    if (args.family is None) == (args.config is None):
        raise ConfigError("family-info: provide exactly one of --family or --config")
    if args.family is not None:
        family = _build_family({"path": args.family}, None)
    else:
        family = _parse_experiment_config(_load_json(args.config))["family"]
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
    sim.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                     help="worker threads (default: CPU count)")
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
    # ConfigError included; OSError from files; MemoryError from sizes too large to hold
    except (ValueError, OSError, MemoryError) as exc:
        reason = (f"out of memory ({str(exc) or 'allocation failed'})"
                  if isinstance(exc, MemoryError) else exc)
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
