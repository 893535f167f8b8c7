"""Experiment runner CLI: simulate, verify-lemmas, family-info.

Configs are versioned JSON documents (see docs/config_schema.md); all
randomness flows from the configured master seed so outputs are byte-stable
across reruns and worker counts.

Exit codes: 0 success / all checks pass, 1 usage, config or validation error,
an output that cannot be written or memory that cannot be allocated, 2
exact-identity or lemma check failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys

import numpy as np

from . import _validate as validate
from . import concentration, criteria, montecarlo, smoothers
from ._validate import ConfigError
from .sequence_model import GaussianSequenceModel, derive_stream, make_theta0
from .smoothers import SmootherFamily, load_family

# Version 2 only dropped keys, so version-1 documents still load; a dropped
# key is an unknown key in either version.
CONFIG_SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAILED = 2


def _load_json(path):
    """The config document at `path` (its own function: the benchmark times config reads)."""
    return validate.load_json(path)


def _build_model(spec) -> GaussianSequenceModel:
    validate.obj(spec, "model", ("n", "sigma", "theta0"))
    n = validate.integer(spec["n"], "model.n", 1, validate.MAX_N)
    sigma = validate.number(spec["sigma"], "model.sigma", validate.POSITIVE)
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
            family = smoothers.build_family(spec["smoothers"], n, "family.smoothers")
        except ValueError as exc:
            raise ConfigError(f"family.smoothers: {exc}") from exc
    if n is not None and family.n != n:
        raise ConfigError(f"family: dimension {family.n} does not match model.n = {n}")
    return family


def _parse_experiment_config(doc):
    validate.obj(doc, "config", ("schema_version", "model", "family", "n_reps", "master_seed"),
                 ("outputs",))
    validate.integer(doc["schema_version"], "schema_version", 1, CONFIG_SCHEMA_VERSION)
    n_reps = validate.integer(doc["n_reps"], "n_reps", 1, sys.maxsize)  # len() of the block range
    master_seed = validate.seed(doc["master_seed"], "master_seed")
    outputs = validate.obj(doc.get("outputs", {}), "outputs", optional=("summary", "records"))
    for key in ("summary", "records"):
        if outputs.get(key) is not None:
            validate.string(outputs[key], f"outputs.{key}")
    model = _build_model(doc["model"])
    return {
        "model": model,
        "family": _build_family(doc["family"], model.n),
        "n_reps": n_reps,
        "master_seed": master_seed,
        "outputs": outputs,
    }


def _flatten(doc, prefix=""):
    rows = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            rows.extend(_flatten(doc[key], f"{prefix}{key}."))
    else:
        value = "" if doc is None else (repr(float(doc)) if isinstance(doc, float) else str(doc))
        rows.append(f"{montecarlo.csv_field(prefix[:-1])},{value}")
    return rows


def _open_output(path, stack):
    """stdout for None or "-", else `path` opened for writing until `stack` closes."""
    if path is None or path == "-":
        return sys.stdout
    return stack.enter_context(open(path, "w", encoding="utf-8"))


def _for_stdout(text):
    """`text` with the characters stdout cannot encode escaped (z\\xe9ro)."""
    encoding = sys.stdout.encoding or "utf-8"
    return text.encode(encoding, "backslashreplace").decode(encoding)


def _write_report(doc, fh, fmt):
    """Write the report to `fh`; on stdout, what its encoding cannot hold is escaped."""
    if fmt == "csv":
        text = "key,value\n" + "\n".join(_flatten(doc)) + "\n"
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    fh.write(_for_stdout(text) if fh is sys.stdout else text)


def _bound_table(summary, cfg):
    family = cfg["family"]
    edf_est = summary.estimates["edf_total"]["mean"]
    h_op_eff = family.h_op_effective
    if summary.r_star > 0:
        bound = criteria.edf_bound(summary.r_star, len(family), h_op_eff)
    else:
        bound = None
    ratio = None if not bound else edf_est / bound
    return {
        "edf": {
            "estimate": edf_est,
            "stderr": summary.estimates["edf_total"]["stderr"],
            "bound": bound,
            "h_op_effective": h_op_eff,
            "ratio": ratio,
        },
        "oracle_gap": {
            "oracle_risk": cfg["model"].sigma_sq * summary.r_star,
            "risk_tuned_estimate": summary.estimates["risk_tuned"]["mean"],
        },
    }


def cmd_simulate(args) -> int:
    threads = None if args.threads is None else validate.integer(args.threads, "--threads", 1)
    seed = None if args.seed is None else validate.seed(args.seed, "--seed")
    cfg = _parse_experiment_config(_load_json(args.config))
    if seed is not None:
        cfg["master_seed"] = seed
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
        records_fh = (stack.enter_context(open(records_path, "w", encoding="utf-8"))
                      if records_path else None)
        summary, records = montecarlo.run_experiment(
            cfg["family"], cfg["model"], cfg["n_reps"], cfg["master_seed"],
            n_threads=threads, keep_records=records_fh is not None)
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
        "k": ([1, 2, 4], lambda v, w: validate.list_of(v, w, validate.number, 1)),
        "tau": ([1.0, 2.0],
                lambda v, w: validate.list_of(v, w, validate.number, validate.POSITIVE)),
    },
    "quadratic": {
        "n_samples": (200_000, lambda v, w: validate.integer(v, w, 10**4)),
        "slack": (0.0, lambda v, w: validate.number(v, w, 0)),
        "n_matrices": (5, lambda v, w: validate.integer(v, w, 0, 1024)),
        "dim": (4, lambda v, w: validate.integer(v, w, 1, 1024)),
        "lambda_fractions": ([0.9, 0.5, 0.1],
                             lambda v, w: validate.list_of(v, w, validate.number)),
    },
}
# A battery case draws one float64 array of at most validate.MAX_ENTRIES
# entries, and the whole battery at most 2^30 normals (about 40 s at 35 ns a draw).
_MAX_TOTAL_DRAWS = 2**30


def _parse_lemma_config(doc):
    """The battery settings: each field as given in `doc`, or its default, once checked."""
    validate.obj(doc, "config", optional=("schema_version", "master_seed", *_LEMMA_FIELDS))
    validate.integer(doc.get("schema_version", CONFIG_SCHEMA_VERSION), "schema_version",
                     1, CONFIG_SCHEMA_VERSION)
    cfg = {"master_seed": validate.seed(doc.get("master_seed", 42), "master_seed")}
    for section, fields in _LEMMA_FIELDS.items():
        given = validate.obj(doc.get(section, {}), section, optional=fields)
        cfg[section] = {key: given.get(key, default) for key, (default, _) in fields.items()}
        for key, (_, check) in fields.items():
            check(cfg[section][key], f"{section}.{key}")
    mx, qd = cfg["maxima"], cfg["quadratic"]
    if any(not 0 <= f <= 0.95 for f in qd["lambda_fractions"]):
        raise ConfigError("quadratic.lambda_fractions: must lie in [0, 0.95]")
    for where, draws in (("maxima.n_samples * max(maxima.n_vars)",
                          mx["n_samples"] * max(mx["n_vars"], default=0)),
                         ("quadratic.n_samples * quadratic.dim", qd["n_samples"] * qd["dim"])):
        if draws > validate.MAX_ENTRIES:
            raise ConfigError(f"{where}: must be at most 2^27, got {draws}")
    total = (len(mx["tau"]) * len(mx["k"]) * mx["n_samples"] * sum(mx["n_vars"])
             + qd["n_matrices"] * qd["n_samples"] * qd["dim"])
    if total > _MAX_TOTAL_DRAWS:
        raise ConfigError(f"the battery would draw {total} normals (n_samples * n_vars per "
                          "maxima case, n_samples * dim per matrix); must be at most 2^30")
    return cfg


def cmd_verify_lemmas(args) -> int:
    doc = _load_json(args.config) if args.config else {}
    cfg = _parse_lemma_config(doc)
    if args.seed is not None:
        cfg["master_seed"] = validate.seed(args.seed, "--seed")
    with contextlib.ExitStack() as stack:
        out = _open_output(args.out, stack)  # before the battery, as simulate does
        report, code = _lemma_battery(cfg)
        _write_report(report, out, "json")
    return code


def _lemma_battery(cfg):
    """(report, exit code) of the lemma battery.

    Every draw comes from derive_stream(master_seed, i), with a stream index i
    of its own: 0 for the random matrices, then one per maxima case and one
    per matrix's Monte Carlo check, in report order.
    """
    seed = cfg["master_seed"]
    streams = itertools.count(1)
    report = {"maxima": [], "quadratic_exact": [], "quadratic_mc": []}
    all_pass = True

    mx = cfg["maxima"]
    for tau in mx["tau"]:
        for n_vars in mx["n_vars"]:
            for k in mx["k"]:
                empirical, bound, passed = concentration.verify_max_moment(
                    n_vars, k, tau, mx["n_samples"], master_seed=seed, stream=next(streams))
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
    # exact chi-square oracle on the identity quadratic form
    params = concentration.quadratic_form_params(np.eye(2))
    for check in concentration.verify_mgf_bound(
            None, params, lambda_grid(params), qd["n_samples"],
            slack=qd["slack"], exact_eigs=np.ones(2)):
        all_pass &= check.passed
        report["quadratic_exact"].append(vars(check) | {"matrix": "identity_2"})
    for m_idx in range(qd["n_matrices"]):
        a = rng.standard_normal((qd["dim"], qd["dim"]))
        params = concentration.quadratic_form_params(a)
        checks = concentration.verify_mgf_bound(
            concentration.quadratic_form_sampler(a), params, lambda_grid(params),
            qd["n_samples"], master_seed=seed, slack=qd["slack"], stream=next(streams))
        for check in checks:
            all_pass &= check.passed
            report["quadratic_mc"].append(vars(check) | {"matrix_index": m_idx})

    report["all_pass"] = bool(all_pass)
    return report, EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_family_info(args) -> int:
    if (args.family is None) == (args.config is None):
        raise ConfigError("family-info: provide exactly one of --family or --config")
    if args.family is not None:
        family = _build_family({"path": args.family}, None)
    else:
        family = _parse_experiment_config(_load_json(args.config))["family"]
    # one line per member: control characters, and characters stdout cannot
    # encode, escaped; the label column as wide as the longest label (at least 16)
    labels = [_for_stdout("".join(c if c.isprintable() else c.encode("unicode_escape").decode()
                                  for c in m.label))
              for m in family.members]
    width = max(16, *map(len, labels))
    print(f"{'label':<{width}}{'df':>12}{'frob_sq':>12}{'opnorm':>12}{'gershgorin':>12}")
    for label, m in zip(labels, family.members):
        if m.kind == "knn":
            gersh = f"{smoothers.knn_opnorm_bound(m):>12.6g}"
        else:
            gersh = f"{'-':>12}"
        print(f"{label:<{width}}{m.df:>12.6g}{m.frob_sq:>12.6g}{m.opnorm:>12.6g}{gersh}")
    print(f"h_op = {family.h_op:.6g}")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError, so it exits 1 like any invalid input."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="sure-lab",
        description="SURE-tuned smoother selection simulator and lemma verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded Monte Carlo experiment")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None, help="override config master_seed")
    sim.add_argument("--threads", type=int, default=None,
                     help="worker threads (default: every CPU this process may run on)")
    sim.add_argument("--records", default=None, help="write per-replicate CSV here")
    sim.add_argument("--out", default=None, help="summary output path (default stdout)")
    sim.add_argument("--format", choices=("json", "csv"), default="json")

    ver = sub.add_parser("verify-lemmas", help="run the concentration lemma battery")
    ver.add_argument("--config", default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--out", default=None)

    info = sub.add_parser("family-info", help="print per-smoother statistics")
    info.add_argument("--family", default=None, help="serialized family JSON")
    info.add_argument("--config", default=None, help="experiment config JSON")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once a process: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up by name at each call, so a replaced cmd_* function runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    # ConfigError included; OSError from files; MemoryError from sizes too large to hold
    except (ValueError, OSError, MemoryError) as exc:
        reason = (f"out of memory ({str(exc) or 'allocation failed'})"
                  if isinstance(exc, MemoryError) else exc)
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
