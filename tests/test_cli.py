import copy
import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sure_lab import (
    SmootherFamily,
    cli,
    concentration,
    criteria,
    from_matrix,
    montecarlo,
    save_family,
    sequence_model,
    smoothers,
)
from sure_lab.cli import main


def base_config(**overrides):
    cfg = {
        "schema_version": 2,
        "model": {"n": 2, "sigma": 1.0,
                  "theta0": {"kind": "sparse", "k": 1, "amplitude": 1.0}},
        "family": {"smoothers": [
            {"label": "a", "kind": "zero", "parameters": {}},
            {"label": "b", "kind": "identity", "parameters": {}},
        ]},
        "n_reps": 500,
        "master_seed": 42,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_simulate_basic(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "summary.json"
    code = main(["simulate", "--config", cfg_path, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["n_reps"] == 500
    assert doc["summary"]["identity_pass_rates"] == {
        "edf_decomposition": 1.0, "basic_inequality": 1.0, "exopt_linkage": 1.0}
    assert doc["schema_version"] == 2
    assert doc["bounds"]["edf"]["bound"] > 0
    # the two ends of the gap tuning costs: min_s R(s) (zero: 1, identity: 2) and E[loss]
    assert doc["bounds"]["oracle_gap"] == {
        "oracle_risk": 1.0,
        "risk_tuned_estimate": doc["summary"]["estimates"]["risk_tuned"]["mean"]}


def test_simulate_deterministic_across_runs_and_threads(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    outs = []
    for threads, name in [(["--threads", "1"], "s1.json"), (["--threads", "1"], "s2.json"),
                          (["--threads", "8"], "s8.json"), ([], "default.json")]:
        out = tmp_path / name
        assert main(["simulate", "--config", cfg_path, *threads, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2] == outs[3]


def test_simulate_seed_override_changes_output(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["simulate", "--config", cfg_path, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg_path, "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_simulate_records_csv(tmp_path):
    cfg_path = write_config(tmp_path, base_config(n_reps=20))
    records = tmp_path / "records.csv"
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "s.json"),
                 "--records", str(records)]) == 0
    lines = records.read_text().strip().split("\n")
    assert len(lines) == 21
    assert lines[0].startswith("replicate_index,selected,sure_min")


def test_simulate_csv_format(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(n_reps=10))
    assert main(["simulate", "--config", cfg_path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("key,value\n")
    assert "summary.n_reps,10" in out


def test_csv_outputs_quote_labels(tmp_path):
    labels = ['zero,"x"', "id\nnew"]
    cfg_path = write_config(tmp_path, base_config(n_reps=4, family={"smoothers": [
        {"label": labels[0], "kind": "zero", "parameters": {}},
        {"label": labels[1], "kind": "identity", "parameters": {}}]}))
    summary, records = tmp_path / "s.csv", tmp_path / "r.csv"
    assert main(["simulate", "--config", cfg_path, "--format", "csv", "--out", str(summary),
                 "--records", str(records)]) == 0
    with open(records, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5 and {len(row) for row in rows} == {12}
    assert {row[1] for row in rows[1:]} <= set(labels)
    with open(summary, newline="") as fh:
        cells = dict(csv.reader(fh))
    assert cells["summary.n_reps"] == "4"
    counts = [int(cells[f"summary.selection_histogram.{label}"]) for label in labels]
    assert sum(counts) == 4


@pytest.mark.parametrize("argv,needle", [
    pytest.param([], "required: command", id="no-command"),
    pytest.param(["bogus"], "invalid choice", id="unknown-command"),
    pytest.param(["simulate"], "--config", id="missing-config"),
    pytest.param(["simulate", "--config", "CFG", "--bogus"], "--bogus", id="unknown-flag"),
    pytest.param(["simulate", "--config", "CFG", "--threads", "abc"], "--threads",
                 id="threads-not-int"),
    pytest.param(["simulate", "--config", "CFG", "--threads", "0"], "--threads", id="threads-0"),
    pytest.param(["simulate", "--config", "CFG", "--threads", "-4"], "--threads",
                 id="threads-negative"),
    pytest.param(["family-info"], "family-info: provide exactly one of --family or --config",
                 id="family-info-neither"),
    pytest.param(["family-info", "--family", "CFG", "--config", "CFG"],
                 "family-info: provide exactly one of --family or --config",
                 id="family-info-both"),
])
def test_usage_errors_exit_1(tmp_path, capsys, argv, needle):
    cfg_path = write_config(tmp_path, base_config(n_reps=2))
    assert main([cfg_path if a == "CFG" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and needle in captured.err


def test_simulate_checks_seed_before_config(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["simulate", "--config", missing, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "--seed" in err and "missing.json" not in err


def test_simulate_runs_every_cpu_by_default():
    args = cli.build_parser().parse_args(["simulate", "--config", "c.json"])
    assert args.threads is None


def test_main_builds_its_parser_once_and_runs_the_current_command(tmp_path, monkeypatch,
                                                                   capsys):
    """Later calls reuse the parser, also after a usage error, and run the
    cmd_* function the module holds at the call."""
    cfg_path = write_config(tmp_path, base_config())
    assert main(["family-info", "--config", cfg_path]) == 0
    assert main(["family-info", "--bogus"]) == 1
    built, ran = [], []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1))
    monkeypatch.setattr(cli, "cmd_family_info", lambda args: ran.append(args.config) or 0)
    assert main(["family-info", "--config", cfg_path]) == 0
    assert ran == [cfg_path] and not built
    capsys.readouterr()
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "s.json")]) == 0
    assert json.loads((tmp_path / "s.json").read_text())["master_seed"] == 42


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0 and "--threads" in capsys.readouterr().out


@pytest.mark.parametrize("mutate,needle", [
    (lambda c: c.update(n_reps=0), "n_reps"),
    (lambda c: c.update(unknown_key=1), "unknown_key"),
    (lambda c: c["model"].update(sigma=-1.0), "sigma"),
    (lambda c: c["model"]["theta0"].update(kind="bogus"), "theta0"),
    (lambda c: c.update(master_seed=-1), "master_seed"),
    pytest.param(lambda c: c.update(n_reps=True), "n_reps", id="bool-n_reps"),
    pytest.param(lambda c: c.update(master_seed=False), "master_seed", id="bool-master_seed"),
    pytest.param(lambda c: c["model"].update(n=True), "model.n", id="bool-model.n"),
    pytest.param(lambda c: c["model"].update(sigma=True), "model.sigma", id="bool-model.sigma"),
    # keys that schema version 2 dropped are unknown keys in both versions
    pytest.param(lambda c: c.update(schema_version=1, bounds={"c_test": 1.0}),
                 "config: unknown keys ['bounds']", id="v1-bounds"),
    pytest.param(lambda c: c.update(bounds={"c_test": 1.0}),
                 "config: unknown keys ['bounds']", id="v2-bounds"),
    pytest.param(lambda c: c.update(schema_version=1, outputs={"keep_records": False}),
                 "outputs: unknown keys ['keep_records']", id="v1-outputs.keep_records"),
    pytest.param(lambda c: c.update(outputs={"keep_records": False}),
                 "outputs: unknown keys ['keep_records']", id="v2-outputs.keep_records"),
    pytest.param(lambda c: c.update(schema_version=0), "schema_version: must be an integer in "
                 "[1, 2], got 0", id="schema_version-0"),
    pytest.param(lambda c: c.update(schema_version=3), "schema_version: must be an integer in "
                 "[1, 2], got 3", id="schema_version-3"),
    pytest.param(lambda c: c.update(family={}),
                 "family: provide exactly one of 'smoothers' or 'path'", id="family-neither"),
    pytest.param(lambda c: c["family"].update(path="family.json"),
                 "family: provide exactly one of 'smoothers' or 'path'", id="family-both"),
    pytest.param(lambda c: c["model"].update(sigma=10**400), "model.sigma",
                 id="huge-int-model.sigma"),
    pytest.param(lambda c: c["model"].update(sigma=1e-160), "sigma", id="tiny-square-sigma"),
    pytest.param(lambda c: c["model"].update(sigma=1e200), "sigma", id="huge-square-sigma"),
    pytest.param(lambda c: c["model"]["theta0"].update(k=1.9), "theta0.k", id="float-theta0.k"),
    pytest.param(lambda c: c["model"]["theta0"].update(k=True), "theta0.k", id="bool-theta0.k"),
    pytest.param(lambda c: c["model"].update(theta0={"kind": "constant", "value": None}),
                 "theta0.value", id="null-theta0.value"),
    pytest.param(lambda c: c.update(schema_version=True), "schema_version",
                 id="bool-schema_version"),
    pytest.param(lambda c: c["family"]["smoothers"][0].update(label=5), "label",
                 id="int-label"),
    pytest.param(lambda c: c.update(family={"path": 5}), "family.path", id="int-family.path"),
    pytest.param(lambda c: c.update(outputs={"records": 5}), "outputs.records",
                 id="int-outputs.records"),
    pytest.param(lambda c: c.update(n_reps=10**30), "n_reps", id="huge-int-n_reps"),
    pytest.param(lambda c: c["model"].update(n=2**40), "model.n", id="huge-model.n"),
    # two members of 10^8 entries each
    pytest.param(lambda c: c["model"].update(n=10_000), "len(smoothers) * n^2",
                 id="family-entries-over-cap"),
])
def test_simulate_validation_errors(tmp_path, capsys, mutate, needle):
    cfg = base_config()
    mutate(cfg)
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 1
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "verify-lemmas", "family-info"])
def test_schema_versions_1_and_2_give_identical_outputs(tmp_path, capsys, command):
    cfg = base_config() if command != "verify-lemmas" else {
        "maxima": {"n_samples": 100, "n_vars": [1], "k": [1], "tau": [1.0]},
        "quadratic": {"n_samples": 10_000, "n_matrices": 1, "dim": 2}}
    outputs = []
    for version in (1, 2):
        cfg_path = write_config(tmp_path, cfg | {"schema_version": version}, f"v{version}.json")
        out, records = tmp_path / f"out{version}", tmp_path / f"records{version}.csv"
        flags = {"simulate": ["--threads", "1", "--out", str(out), "--records", str(records)],
                 "verify-lemmas": ["--out", str(out)], "family-info": []}[command]
        assert main([command, "--config", cfg_path, *flags]) == 0
        outputs.append([capsys.readouterr().out] + [p.read_bytes() for p in (out, records)
                                                    if p.exists()])
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == {"simulate": 3, "verify-lemmas": 2, "family-info": 1}[command]


def test_simulate_family_path_of_another_dimension(tmp_path, capsys):
    path = tmp_path / "family.json"
    save_family(SmootherFamily.of([from_matrix("id3", np.eye(3))]), path)
    cfg_path = write_config(tmp_path, base_config(family={"path": str(path)}))
    assert main(["simulate", "--config", cfg_path]) == 1
    assert "family: dimension 3 does not match model.n = 2" in capsys.readouterr().err


def test_simulate_zero_oracle_risk_has_no_edf_bound(tmp_path):
    """theta0 = 0 and a zero member: r* = 0, so no shells and no edf bound."""
    cfg_path = write_config(tmp_path, base_config(
        n_reps=20, model={"n": 2, "sigma": 1.0, "theta0": {"kind": "zero"}}))
    out = tmp_path / "summary.json"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["r_star"] == 0.0 and doc["summary"]["shell_histogram"] is None
    assert doc["bounds"]["edf"]["bound"] is None and doc["bounds"]["edf"]["ratio"] is None


@pytest.mark.parametrize("command,theta0,members,code,error", [
    pytest.param("simulate", {"kind": "constant", "value": 1e200},
                 [{"label": "a", "kind": "zero"}, {"label": "b", "kind": "identity"}], 1,
                 "shell ratios are not finite", id="risk-overflows"),
    pytest.param("simulate", {"kind": "constant", "value": 1e10},
                 [{"label": "a", "kind": "explicit",
                   "parameters": {"matrix": [1e300, -1e300, 0.0, 1.0]}}], 1,
                 "shell ratios are not finite", id="h-theta0-overflows"),
    pytest.param("family-info", {"kind": "constant", "value": 1.0},
                 [{"label": "a", "kind": "explicit",
                   "parameters": {"matrix": [1e300, 0.0, 0.0, 1.0]}}], 0, None,
                 id="frobenius-norm-overflows"),
    pytest.param("simulate", {"kind": "constant", "value": 1e200},
                 [{"label": "a", "kind": "identity"},
                  {"label": "b", "kind": "explicit",
                   "parameters": {"matrix": [0.5, 0.5, 0.5, 0.5]}}], 0, None,
                 id="stderr-overflows"),
    pytest.param("simulate", {"kind": "constant", "value": 1.7e308},
                 [{"label": "a", "kind": "identity"},
                  {"label": "b", "kind": "explicit",
                   "parameters": {"matrix": [0.5, 0.5, 0.5, 0.5]}}], 1,
                 "record column edf_total is not finite", id="record-columns-overflow"),
    pytest.param("simulate", {"kind": "constant", "value": 1e307},
                 [{"label": "a", "kind": "identity"},
                  {"label": "b", "kind": "explicit",
                   "parameters": {"matrix": [0.5, 0.5, 0.5, 0.5]}}], 0, None,
                 id="record-columns-near-overflow"),
])
def test_statistics_beyond_the_float_range_warn_nothing(tmp_path, capsys, command, theta0,
                                                        members, code, error):
    """A risk or ||H||_F^2 beyond the float range is inf, an estimate whose
    column's squares overflow is still finite, a risk or a record column
    beyond the float range exits 1 with one error line and nothing on stdout,
    and no RuntimeWarning escapes (the suite turns warnings into errors)."""
    cfg_path = write_config(tmp_path, base_config(
        n_reps=10, model={"n": 2, "sigma": 1.0, "theta0": theta0},
        family={"smoothers": members}))
    assert main([command, "--config", cfg_path]) == code
    captured = capsys.readouterr()
    if error is not None:
        assert captured.out == "" and captured.err.startswith(f"error: {error}")
        assert captured.err.count("\n") == 1
    elif command == "simulate":
        assert captured.err == ""

        def not_json(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(captured.out, parse_constant=not_json)
        stderrs = [e["stderr"] for e in doc["summary"]["estimates"].values()]
        assert all(math.isfinite(stderr) for stderr in stderrs + [doc["bounds"]["edf"]["stderr"]])
    else:
        assert captured.out.split("\n")[1].split() == ["a", "1e+300", "inf", "1e+300", "-"]


def test_simulate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == 1
    assert "line" in capsys.readouterr().err


def test_documents_are_utf8_in_an_ascii_locale(tmp_path):
    """Configs, family documents, --out and --records are read and written as
    UTF-8 whatever the locale; family-info and a report on stdout escape what
    stdout cannot encode, and a file that is not UTF-8 exits 1 naming its path."""
    smoothers = [{"label": "z\u00e9ro", "kind": "zero", "parameters": {}},
                 {"label": "id", "kind": "identity", "parameters": {}}]
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps(base_config(family={"smoothers": smoothers}), ensure_ascii=False),
                   encoding="utf-8")
    escaped = write_config(tmp_path, base_config(family={"smoothers": smoothers}))  # \u00e9
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"schema_version": 1, "n": 2, "smoothers": smoothers},
                                 ensure_ascii=False), encoding="utf-8")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(raw.read_text(encoding="utf-8").encode("latin-1"))
    runs = [["family-info", "--config", str(raw)],
            ["family-info", "--family", str(family)],
            ["simulate", "--config", escaped, "--threads", "1", "--out", str(tmp_path / "s.json"),
             "--records", str(tmp_path / "r.csv")],
            ["simulate", "--config", str(raw), "--threads", "1", "--format", "csv",
             "--out", str(tmp_path / "s.csv")],
            ["simulate", "--config", str(raw), "--threads", "1", "--format", "csv"],
            ["simulate", "--config", str(latin1)]]
    script = ("import json, sys\nfrom sure_lab.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n    print('exit', main(argv), flush=True)\n")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env,
                          capture_output=True, encoding="utf-8", timeout=120)
    assert [line for line in proc.stdout.splitlines() if line.startswith("exit")] == [
        "exit 0", "exit 0", "exit 0", "exit 0", "exit 0", "exit 1"], proc.stderr
    assert proc.stdout.count("\nz\\xe9ro ") == 2
    assert "\nsummary.selection_histogram.z\\xe9ro," in proc.stdout
    assert ",z\u00e9ro," in (tmp_path / "r.csv").read_text(encoding="utf-8")
    assert ("\nsummary.selection_histogram.z\u00e9ro,"
            in (tmp_path / "s.csv").read_text(encoding="utf-8"))
    assert proc.stderr.startswith(
        f"error: {latin1}: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position")


def test_family_info_from_config(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    assert main(["family-info", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "h_op = 1" in out
    assert out.count("\n") == 4  # header + 2 rows + h_op


@pytest.mark.parametrize("command", ["simulate", "family-info"])
@pytest.mark.parametrize("empty", ["file", os.devnull])
def test_an_empty_config_exits_1(tmp_path, capsys, command, empty):
    path = write_config(tmp_path, base_config()) if empty == "file" else empty
    if empty == "file":
        pathlib.Path(path).write_bytes(b"")
    args = ["--out", str(tmp_path / "summary.json")] if command == "simulate" else []
    assert main([command, "--config", path, *args]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: invalid JSON at line 1, column 1: Expecting value\n")


def test_family_info_round_trip(tmp_path, capsys):
    fam = SmootherFamily.of([
        from_matrix("zero", np.zeros((2, 2))),
        from_matrix("id", np.eye(2)),
    ])
    path = tmp_path / "family.json"
    save_family(fam, path)
    assert main(["family-info", "--family", str(path)]) == 0
    from_file = capsys.readouterr().out

    cfg_path = write_config(tmp_path, base_config(
        family={"path": str(path)}))
    assert main(["family-info", "--config", cfg_path]) == 0
    assert capsys.readouterr().out == from_file


def test_family_info_one_line_per_label(tmp_path, capsys):
    labels = ["id\nnew", "x" * 32, "tab\tnul\x00", "short"]
    doc = {"schema_version": 1, "n": 2, "smoothers": [
        {"label": label, "kind": kind, "parameters": {}}
        for label, kind in zip(labels, ["identity", "zero", "zero", "identity"])]}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    assert main(["family-info", "--family", str(path)]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[-1] == "" and len(lines) == 7  # header, 4 rows, h_op, final newline
    header, rows = lines[0], lines[1:5]
    assert [row[:32].rstrip() for row in rows] == ["id\\nnew", "x" * 32, "tab\\tnul\\x00",
                                                   "short"]
    assert header.startswith("label" + " " * 27)
    assert {len(row) for row in rows} == {len(header)} == {32 + 4 * 12}
    assert rows[1].split() == ["x" * 32, "0", "0", "0", "-"]


def test_family_info_malformed(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"schema_version": 1}))
    assert main(["family-info", "--family", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_family_info_empty_family_path(capsys):
    assert main(["family-info", "--family", ""]) == 1
    assert "family.path" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    pytest.param({"schema_version": 1, "n": None, "smoothers": []}, id="null-n"),
    pytest.param({"schema_version": 1, "n": 2, "smoothers": 5}, id="smoothers-not-list"),
])
def test_family_info_malformed_document(tmp_path, capsys, doc):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    assert main(["family-info", "--family", str(path)]) == 1
    assert "family document" in capsys.readouterr().err


@pytest.mark.parametrize("n,members,needle", [
    pytest.param(2**40, 1, "family document.n", id="huge-n"),
    pytest.param(10_000, 2, "len(smoothers) * n^2", id="entries-over-cap"),
])
def test_family_info_size_caps(tmp_path, capsys, n, members, needle):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"schema_version": 1, "n": n, "smoothers": [
        {"label": f"m{i}", "kind": "zero", "parameters": {}} for i in range(members)]}))
    assert main(["family-info", "--family", str(path)]) == 1
    assert needle in capsys.readouterr().err


_KNN_POINTS = [[0.0], [1.0]]


@pytest.mark.parametrize("member,needle", [
    pytest.param({"kind": "explicit", "parameters": {}}, "'matrix'", id="explicit-no-matrix"),
    pytest.param({"kind": "knn", "parameters": {"points": _KNN_POINTS, "k": 1, "typo": 0}},
                 "'typo'", id="knn-unknown-key"),
    pytest.param({"kind": "knn", "parameters": {"points": [[0.0], [float("nan")]], "k": 1}},
                 "finite", id="knn-nan-point"),
    pytest.param({"kind": "knn", "parameters": {"points": [[0.0], [float("inf")]], "k": 1}},
                 "finite", id="knn-inf-point"),
    pytest.param({"kind": "knn", "parameters": {"points": _KNN_POINTS, "k": None}},
                 "'m'", id="knn-null-k"),
    pytest.param({"kind": "identity", "parameters": []}, "object", id="parameters-not-object"),
    pytest.param({"kind": ["zero"]}, "unknown smoother kind", id="kind-not-string"),
    pytest.param({"kind": "knn", "parameters": {"points": _KNN_POINTS, "k": 1.7}}, ".k",
                 id="knn-float-k"),
    pytest.param({"kind": "krr", "parameters": {"gram": [1.0, 0.0, 0.0, 1.0], "lambda": "1"}},
                 ".lambda", id="krr-string-lambda"),
    pytest.param({"kind": "krr", "parameters": {"gram": [1.0, "0", 0.0, 1.0], "lambda": 1.0}},
                 ".gram", id="krr-string-gram-entry"),
    pytest.param({"kind": "explicit", "parameters": {"matrix": [[1.0, 0.0], [1.0]]}},
                 ".matrix", id="explicit-ragged-matrix"),
    pytest.param({"kind": "projection",
                  "parameters": {"design": [1.0, 0.0], "p": 1, "subset": [True]}},
                 ".subset[0]", id="projection-bool-subset"),
    pytest.param({"kind": "knn", "parameters": {"points": [[0.0], [1.0], [2.0]], "k": 1}},
                 "parameters.points: expected n = 2 points", id="knn-points-not-n"),
    pytest.param({"kind": "knn", "parameters": {"points": _KNN_POINTS, "k": 3}},
                 "smoother 'm' parameters.k: ", id="knn-k-over-n"),
    pytest.param({"kind": "projection",
                  "parameters": {"design": [1.0, 0.0], "p": 1, "subset": [1]}},
                 "smoother 'm' parameters.subset[0]: ", id="projection-subset-over-p"),
    pytest.param({"kind": "krr", "parameters": {"gram": [1.0, 0.0, 0.0, 0.0], "lambda": 0}},
                 "smoother 'm' parameters.lambda: ", id="krr-lambda-0-singular-gram"),
    pytest.param({"kind": "krr", "parameters": {"gram": [1.0, 0.5, 0.0, 1.0], "lambda": 1.0}},
                 "smoother 'm' parameters.gram: ", id="krr-asymmetric-gram"),
    pytest.param({"kind": "krr", "parameters": {"gram": [1.0, 0.0, 0.0, -1.0], "lambda": 1.0}},
                 "smoother 'm' parameters.gram: ", id="krr-negative-eigenvalue"),
])
def test_family_info_bad_member(tmp_path, capsys, member, needle):
    path = tmp_path / "family.json"
    doc = {"schema_version": 1, "n": 2, "smoothers": [{"label": "m", **member}]}
    path.write_text(json.dumps(doc))
    assert main(["family-info", "--family", str(path)]) == 1
    assert needle in capsys.readouterr().err

    cfg_path = write_config(tmp_path, base_config(family={"smoothers": doc["smoothers"]}))
    assert main(["simulate", "--config", cfg_path]) == 1
    assert needle in capsys.readouterr().err


def test_family_info_krr_grid_df_decreasing(tmp_path, capsys):
    gram = [2.0, 0.0, 0.0, 1.0]
    cfg = base_config(family={"smoothers": [
        {"label": f"lam{lam}", "kind": "krr",
         "parameters": {"gram": gram, "lambda": lam}}
        for lam in (0.1, 1.0, 10.0)
    ]})
    cfg_path = write_config(tmp_path, cfg)
    assert main(["family-info", "--config", cfg_path]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:-1]
    dfs = [float(row.split()[1]) for row in rows]
    assert dfs == sorted(dfs, reverse=True)


def test_gram_whose_symmetrization_overflows_exits_1_without_a_warning(tmp_path):
    """A finite Gram with a 1e308 diagonal: 0.5 (G + G^T) overflows. Both commands
    exit 1 naming the member's Gram, and nothing else reaches stderr."""
    cfg_path = write_config(tmp_path, base_config(family={"smoothers": [
        {"label": "k", "kind": "krr",
         "parameters": {"gram": [1e308, 0.0, 0.0, 1e308], "lambda": 1.0}}]}))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    for command in ("family-info", "simulate"):
        proc = subprocess.run([sys.executable, "-m", "sure_lab.cli", command, "--config", cfg_path],
                              env=env, capture_output=True, encoding="utf-8", timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == ("error: family.smoothers: smoother 'k' parameters.gram: "
                               "symmetrization 0.5 (G + G^T) overflows the float range\n")


def test_krr_filter_whose_sum_overflows_exits_0_without_a_warning(tmp_path):
    """Eigenvalue 8e307 and lambda 1e308: mu + lambda overflows, yet the member's
    filter is mu / (mu + lambda) = 4/9, and nothing reaches stderr."""
    cfg_path = write_config(tmp_path, base_config(n_reps=50, family={"smoothers": [
        {"label": "k", "kind": "krr",
         "parameters": {"gram": [8e307, 0.0, 0.0, 8e307], "lambda": 1e308}}]}))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    outputs = {}
    for command in ("family-info", "simulate"):
        proc = subprocess.run([sys.executable, "-m", "sure_lab.cli", command, "--config", cfg_path,
                               *(["--out", str(tmp_path / "s.json")] if command == "simulate" else [])],
                              env=env, capture_output=True, encoding="utf-8", timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs[command] = proc.stdout
    assert outputs["family-info"].splitlines()[1].split()[:4] == [
        "k", "0.888889", "0.395062", "0.444444"]
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["bounds"]["oracle_gap"]["oracle_risk"] == pytest.approx(
        (5.0 / 9.0) ** 2 + 2.0 * (4.0 / 9.0) ** 2, rel=1e-12)


def test_krr_grid_commands_form_no_dense_matrix(tmp_path, capsys, monkeypatch):
    """family-info and simulate on KRR members of one Gram read no member's h."""
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 6))
    cfg_path = write_config(tmp_path, base_config(
        n_reps=50, model={"n": 6, "sigma": 1.0, "theta0": {"kind": "constant", "value": 1.0}},
        family={"smoothers": [
            {"label": f"lam{lam}", "kind": "krr",
             "parameters": {"gram": (a @ a.T).reshape(-1).tolist(), "lambda": lam}}
            for lam in (0.0, 0.1, 1.0, 10.0)]}))
    monkeypatch.setattr(smoothers.Smoother, "h", property(
        lambda m: pytest.fail(f"the dense matrix of {m.label} was formed")))
    assert main(["family-info", "--config", cfg_path]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "s.json")]) == 0
    assert capsys.readouterr().err == ""


def test_simulate_reads_the_oracle_risk_from_the_engine(tmp_path, monkeypatch):
    """bounds.oracle_gap.oracle_risk is sigma^2 r*, with no criteria.risk call."""
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 6))
    sigma = 0.7
    cfg = base_config(
        n_reps=50, model={"n": 6, "sigma": sigma, "theta0": {"kind": "constant", "value": 1.5}},
        family={"smoothers": [
            {"label": f"lam{lam}", "kind": "krr",
             "parameters": {"gram": (a @ a.T).reshape(-1).tolist(), "lambda": lam}}
            for lam in (0.1, 1.0, 10.0)] + [
            {"label": "knn", "kind": "knn",
             "parameters": {"points": rng.standard_normal(6).tolist(), "k": 2}}]})
    parsed = cli._parse_experiment_config(cfg)
    min_risk = min(criteria.risk(m, parsed["model"]) for m in parsed["family"])
    monkeypatch.setattr(criteria, "risk", lambda *args: pytest.fail("criteria.risk called"))
    out = tmp_path / "s.json"
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    r_star = doc["summary"]["r_star"]
    assert doc["bounds"]["oracle_gap"]["oracle_risk"] == r_star * sigma**2
    assert r_star * sigma**2 == pytest.approx(min_risk, rel=1e-14)


def test_verify_lemmas_quick(tmp_path):
    cfg = {
        "master_seed": 42,
        "maxima": {"n_samples": 20_000, "n_vars": [1, 10], "k": [1, 2], "tau": [1.0]},
        "quadratic": {"n_samples": 20_000, "n_matrices": 2, "dim": 3},
    }
    cfg_path = write_config(tmp_path, cfg, "lemmas.json")
    out = tmp_path / "report.json"
    code = main(["verify-lemmas", "--config", cfg_path, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is True
    assert len(doc["maxima"]) == 4
    assert all(row["passed"] for row in doc["quadratic_exact"])


def test_verify_lemmas_invalid_slack(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"quadratic": {"slack": -1.0}}, "lemmas.json")
    assert main(["verify-lemmas", "--config", cfg_path]) == 1
    assert "slack" in capsys.readouterr().err


def test_verify_lemmas_rejects_boundary_lambda(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path, {"quadratic": {"lambda_fractions": [1.0]}}, "lemmas.json")
    assert main(["verify-lemmas", "--config", cfg_path]) == 1
    assert "lambda_fractions" in capsys.readouterr().err


def _run_experiment_not_called(*args, **kwargs):
    pytest.fail("run_experiment ran although an output cannot be written")


@pytest.mark.parametrize("flag", ["--out", "--records", "outputs.summary", "outputs.records"])
def test_simulate_unwritable_output(tmp_path, capsys, monkeypatch, flag):
    missing = str(tmp_path / "no_such_dir" / "out")
    if flag.startswith("--"):
        cfg, argv = base_config(n_reps=10), [flag, missing]
    else:
        cfg, argv = base_config(n_reps=10, outputs={flag.split(".")[1]: missing}), []
    monkeypatch.setattr(montecarlo, "run_experiment", _run_experiment_not_called)
    assert main(["simulate", "--config", write_config(tmp_path, cfg), *argv]) == 1
    captured = capsys.readouterr()
    assert "no_such_dir" in captured.err
    assert captured.out == ""


def test_simulate_same_summary_and_records_path(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(montecarlo, "run_experiment", _run_experiment_not_called)
    same = str(tmp_path / "out.txt")
    cfg_path = write_config(tmp_path, base_config(outputs={"summary": same}))
    assert main(["simulate", "--config", cfg_path, "--records", str(tmp_path / ".." /
                 tmp_path.name / "out.txt")]) == 1
    assert "same file" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("message", [
    pytest.param("Unable to allocate 8.00 EiB", id="numpy-message"),
    pytest.param("", id="no-message"),
])
def test_simulate_out_of_memory(tmp_path, capsys, monkeypatch, message):
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(montecarlo, "run_experiment", no_memory)
    out = tmp_path / "summary.json"
    cfg_path = write_config(tmp_path, base_config())
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
    assert f"error: out of memory ({message or 'allocation failed'})" in capsys.readouterr().err
    assert out.read_text() == ""  # opened before the run, left empty


def test_verify_lemmas_largest_master_seed(tmp_path, capsys):
    cfg = {"master_seed": 2**64 - 1,
           "maxima": {"n_samples": 100, "n_vars": [1, 2], "k": [1], "tau": [1.0]},
           "quadratic": {"n_samples": 10_000, "n_matrices": 1, "dim": 2}}
    cfg_path = write_config(tmp_path, cfg, "lemmas.json")
    out = tmp_path / "report.json"
    assert main(["verify-lemmas", "--config", cfg_path, "--out", str(out)]) in (0, 2)
    report = json.loads(out.read_text())
    assert "domain_error" not in report and len(report["quadratic_mc"]) > 0
    for seed in (-1, 2**64):
        assert main(["verify-lemmas", "--config", cfg_path, "--seed", str(seed)]) == 1
        assert "--seed" in capsys.readouterr().err


def test_verify_lemmas_has_no_exit_of_its_own(tmp_path, monkeypatch, capsys):
    """A ValueError in the battery exits 1, as any input error does: the reader
    keeps every lemma evaluation in its domain, so no exit code 3 is left."""
    def out_of_domain(*args, **kwargs):
        raise ValueError("lambda: outside the domain |lambda| <= 1/b")

    monkeypatch.setattr(concentration, "verify_mgf_bound", out_of_domain)
    cfg = {"maxima": {"n_samples": 100, "n_vars": [1], "k": [1], "tau": [1.0]},
           "quadratic": {"n_samples": 10_000, "n_matrices": 1, "dim": 2}}
    out = tmp_path / "report.json"
    assert main(["verify-lemmas", "--config", write_config(tmp_path, cfg, "lemmas.json"),
                 "--out", str(out)]) == 1
    assert "error: lambda: outside the domain" in capsys.readouterr().err
    assert out.read_text() == ""  # opened before the battery, left empty


def test_verify_lemmas_cases_draw_distinct_streams(tmp_path, monkeypatch):
    opened = []

    def recording_stream(master_seed, replicate_index):
        opened.append((master_seed, replicate_index))
        return sequence_model.derive_stream(master_seed, replicate_index)

    for module in (cli, concentration):
        monkeypatch.setattr(module, "derive_stream", recording_stream)
    # more than 1000 maxima cases: a fixed offset per case would reach the matrices' streams
    n_cases = 1002
    cfg = {"master_seed": 42,
           "maxima": {"n_samples": 2, "n_vars": [1], "k": [1],
                      "tau": [1.0 + i / n_cases for i in range(n_cases)]},
           "quadratic": {"n_samples": 10_000, "n_matrices": 2, "dim": 2}}
    cfg_path = write_config(tmp_path, cfg, "lemmas.json")
    out = str(tmp_path / "report.json")
    assert main(["verify-lemmas", "--config", cfg_path, "--out", out]) in (0, 2)
    assert len(opened) == 1 + n_cases + 2  # the matrices, each maxima case, each matrix's MC
    assert len(set(opened)) == len(opened)


@pytest.mark.parametrize("section,update,needle", [
    pytest.param("quadratic", {"slack": "x"}, "quadratic.slack", id="string-slack"),
    pytest.param("maxima", {"n_vars": 5}, "maxima.n_vars", id="int-n_vars"),
    pytest.param("maxima", {"k": [1e308]}, "k=", id="huge-k"),
    pytest.param("maxima", {"k": [0.5]}, "maxima.k[0]", id="k-below-1"),
    pytest.param("quadratic", {"n_matrices": 1.5}, "quadratic.n_matrices",
                 id="float-n_matrices"),
    pytest.param("quadratic", {"dim": 0}, "quadratic.dim", id="zero-dim"),
    pytest.param(None, {"master_seed": True}, "master_seed", id="bool-master_seed"),
    pytest.param(None, {"schema_version": 0}, "schema_version", id="schema_version-0"),
    pytest.param(None, {"schema_version": 3}, "schema_version", id="schema_version-3"),
    pytest.param("quadratic", {"n_matrices": 10**30}, "quadratic.n_matrices",
                 id="huge-n_matrices"),
    pytest.param("quadratic", {"n_matrices": 1025}, "quadratic.n_matrices",
                 id="n_matrices-over-cap"),
    pytest.param("quadratic", {"dim": 6000}, "quadratic.dim", id="dim-over-cap"),
    pytest.param("maxima", {"n_samples": 2**26 + 1, "n_vars": [1, 2]}, "maxima.n_samples",
                 id="maxima-draws-over-cap"),
    pytest.param("quadratic", {"n_samples": 2**26 + 1, "dim": 2}, "quadratic.n_samples",
                 id="quadratic-draws-over-cap"),
    # every case within its own cap, 9 * 2^27 draws in all
    pytest.param("maxima", {"tau": [0.5 * t for t in range(1, 10)], "n_samples": 2**20,
                            "n_vars": [128]}, "2^30", id="maxima-total-over-cap"),
    pytest.param("quadratic", {"n_matrices": 1024, "n_samples": 2**17, "dim": 64},
                 f"{2**33 + 100} normals", id="quadratic-total-over-cap"),  # + 100 maxima draws
])
def test_verify_lemmas_validation_errors(tmp_path, capsys, section, update, needle):
    cfg = {"maxima": {"n_samples": 100, "n_vars": [1], "k": [1], "tau": [1.0]},
           "quadratic": {"n_samples": 10_000, "n_matrices": 0, "dim": 2}}
    (cfg[section] if section else cfg).update(update)
    cfg_path = write_config(tmp_path, cfg, "lemmas.json")
    assert main(["verify-lemmas", "--config", cfg_path]) == 1
    assert needle in capsys.readouterr().err


# -- fuzz: mutated documents end in an exit code, never in an exception --------

_FUZZ_VALUES = [None, True, False, -1, 0, 1, 1.5, "x", [], {}, [[1.0]], 1e308, 1e-320,
                float("nan")]

_FUZZ_SMOOTHERS = [
    {"label": "zero", "kind": "zero", "parameters": {}},
    {"label": "id", "kind": "identity", "parameters": {}},
    {"label": "expl", "kind": "explicit", "parameters": {"matrix": [0.5, 0.0, 0.0, 0.5]}},
    {"label": "proj", "kind": "projection",
     "parameters": {"design": [1.0, 1.0], "p": 1, "subset": [0]}},
    {"label": "krr", "kind": "krr", "parameters": {"gram": [2.0, 0.5, 0.5, 1.0], "lambda": 1.0}},
    {"label": "knn", "kind": "knn", "parameters": {"points": [[0.0], [1.0]], "k": 2}},
]

_FUZZ_DOCUMENTS = {
    "simulate": base_config(
        model={"n": 2, "sigma": 1.0, "theta0": {"kind": "poly_decay", "alpha": 1.0, "scale": 2.0}},
        family={"smoothers": _FUZZ_SMOOTHERS}, n_reps=20,
        outputs={"summary": None, "records": None}),
    "verify-lemmas": {
        "schema_version": 1, "master_seed": 3,
        "maxima": {"n_samples": 100, "n_vars": [1, 3], "k": [1, 2], "tau": [1.0]},
        "quadratic": {"n_samples": 10_000, "slack": 0.0, "n_matrices": 1, "dim": 2,
                      "lambda_fractions": [0.5]}},
    "family-info": {"schema_version": 1, "n": 2, "smoothers": _FUZZ_SMOOTHERS},
}


def _node_paths(doc, prefix=()):
    """Key paths of every value below the root of a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _node_paths(value, prefix + (key,))


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_documents_exit_cleanly(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(_FUZZ_DOCUMENTS)))
    doc = copy.deepcopy(_FUZZ_DOCUMENTS[command])
    paths = data.draw(st.lists(st.sampled_from(list(_node_paths(doc))),
                               min_size=1, max_size=2, unique=True))
    for path in sorted(paths, key=len, reverse=True):  # a child before its parent
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(st.sampled_from(_FUZZ_VALUES))
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "doc.json"
    path.write_text(json.dumps(doc))
    argv = {"simulate": ["simulate", "--config", str(path), "--threads", "1",
                         "--out", str(work / "s.json"), "--records", str(work / "r.csv")],
            "verify-lemmas": ["verify-lemmas", "--config", str(path),
                              "--out", str(work / "report.json")],
            "family-info": ["family-info", "--family", str(path)]}[command]
    assert main(argv) in (0, 1, 2, 3)
