import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sure_lab import SmootherFamily, from_matrix, montecarlo, save_family
from sure_lab.cli import main


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
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
    assert doc["bounds"]["edf"]["bound"] > 0
    assert len(doc["bounds"]["oracle_gap"]["rows"]) == 3


def test_simulate_deterministic_across_runs_and_threads(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    outs = []
    for threads, name in [("1", "s1.json"), ("1", "s2.json"), ("8", "s8.json")]:
        out = tmp_path / name
        assert main(["simulate", "--config", cfg_path, "--threads", threads,
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


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


@pytest.mark.parametrize("mutate,needle", [
    (lambda c: c.update(n_reps=0), "n_reps"),
    (lambda c: c.update(unknown_key=1), "unknown_key"),
    (lambda c: c["model"].update(sigma=-1.0), "sigma"),
    (lambda c: c["model"]["theta0"].update(kind="bogus"), "theta0"),
    (lambda c: c.update(master_seed=-1), "master_seed"),
    (lambda c: c.update(bounds={"eta_grid": [0.0]}), "eta_grid"),
    pytest.param(lambda c: c.update(n_reps=True), "n_reps", id="bool-n_reps"),
    pytest.param(lambda c: c.update(master_seed=False), "master_seed", id="bool-master_seed"),
    pytest.param(lambda c: c["model"].update(n=True), "model.n", id="bool-model.n"),
    pytest.param(lambda c: c["model"].update(sigma=True), "model.sigma", id="bool-model.sigma"),
    pytest.param(lambda c: c.update(bounds={"c_test": True}), "bounds.c_test",
                 id="bool-bounds.c_test"),
    pytest.param(lambda c: c.update(bounds={"eta_grid": [0.5, True]}), "bounds.eta_grid",
                 id="bool-bounds.eta_grid"),
    pytest.param(lambda c: c.update(bounds={"c_test": float("nan")}), "bounds.c_test",
                 id="nan-bounds.c_test"),
    pytest.param(lambda c: c.update(bounds={"eta_grid": [float("inf")]}), "bounds.eta_grid",
                 id="inf-bounds.eta_grid"),
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
    pytest.param(lambda c: c.update(outputs={"keep_records": "yes"}), "outputs.keep_records",
                 id="string-outputs.keep_records"),
    pytest.param(lambda c: c.update(n_reps=10**30), "n_reps", id="huge-int-n_reps"),
])
def test_simulate_validation_errors(tmp_path, capsys, mutate, needle):
    cfg = base_config()
    mutate(cfg)
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 1
    assert needle in capsys.readouterr().err


def test_simulate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == 1
    assert "line" in capsys.readouterr().err


def test_family_info_from_config(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    assert main(["family-info", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "h_op = 1" in out
    assert out.count("\n") == 4  # header + 2 rows + h_op


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


@pytest.mark.parametrize("section,update,needle", [
    pytest.param("quadratic", {"slack": "x"}, "quadratic.slack", id="string-slack"),
    pytest.param("maxima", {"n_vars": 5}, "maxima.n_vars", id="int-n_vars"),
    pytest.param("maxima", {"k": [1e308]}, "k=", id="huge-k"),
    pytest.param("quadratic", {"n_matrices": 1.5}, "quadratic.n_matrices",
                 id="float-n_matrices"),
    pytest.param("quadratic", {"dim": 0}, "quadratic.dim", id="zero-dim"),
    pytest.param(None, {"master_seed": True}, "master_seed", id="bool-master_seed"),
    pytest.param("quadratic", {"n_matrices": 10**30}, "quadratic.n_matrices",
                 id="huge-n_matrices"),
    pytest.param("quadratic", {"n_matrices": 1025}, "quadratic.n_matrices",
                 id="n_matrices-over-cap"),
    pytest.param("quadratic", {"dim": 6000}, "quadratic.dim", id="dim-over-cap"),
    pytest.param("maxima", {"n_samples": 2**26 + 1, "n_vars": [1, 2]}, "maxima.n_samples",
                 id="maxima-draws-over-cap"),
    pytest.param("quadratic", {"n_samples": 2**26 + 1, "dim": 2}, "quadratic.n_samples",
                 id="quadratic-draws-over-cap"),
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
        outputs={"summary": None, "records": None, "keep_records": False},
        bounds={"c_test": 1.0, "eta_grid": [0.5, 1.0]}),
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
