"""Golden outputs: the bytes of `simulate` and `verify-lemmas` on fixed configs.

The cases are one `simulate` config per selection kernel (k-NN, spectral,
dense), a k-NN family in which two labels share one k, the near-overflow
cases of test_cli's float-range test, and a small lemma battery. Each runs
through `cli.main`; a `simulate` case runs at `--threads 1` and at the
default, and both runs must give the same bytes. Two comparisons follow:

- digests: the sha256 of the summary, the records CSV and the lemma report
  equal those in golden/digests.json. The bytes depend on numpy, on its
  BLAS (whose kernel OpenBLAS picks for the CPU at run time) and on the SIMD
  extensions numpy finds, so digests are checked only where all of these
  equal the recorded ones;
- values, checked everywhere: the record rows kept in golden/records.csv
  (about ROWS_KEPT a case, evenly spaced) and the lemma report in
  golden/<case>.json. Replicate indices, selections, shells, flags and
  labels must be equal; each float must lie within RTOL of the largest
  |value| of its column.

A change that moves outputs on purpose rewrites the golden files with

    python tests/test_golden.py --write

and says so in CHANGES.md.
"""

import csv
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np
import pytest

if __name__ == "__main__":  # as the suite's conftest does
    import importlib.util
    if importlib.util.find_spec("sure_lab") is None:
        sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sure_lab import cli, montecarlo  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().with_name("golden")
RTOL = 1e-9
ROWS_KEPT = 40
FLOAT_COLUMNS = [c for c in montecarlo.RECORD_CSV_COLUMNS
                 if c not in ("replicate_index", "selected", "shell")]
THREADS = {"simulate": (1, None), "verify-lemmas": (None,)}


def _environment():
    """numpy's version, its BLAS and LAPACK entries (runtime core included)
    and the SIMD extensions it found on this CPU, without install paths."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints only
        config = {}
    deps = config.get("Build Dependencies", {})
    return {
        "numpy": np.__version__,
        **{lib: {key: deps.get(lib, {}).get(key)
                 for key in ("name", "version", "openblas configuration")}
           for lib in ("blas", "lapack")},
        "simd": config.get("SIMD Extensions", {}).get("found"),
    }


def _simulate(n, n_reps, seed, theta0, smoothers):
    return ("simulate", {"schema_version": 2, "model": {"n": n, "sigma": 1.0, "theta0": theta0},
                         "family": {"smoothers": smoothers}, "n_reps": n_reps,
                         "master_seed": seed})


def _points(n):
    """n distinct points of the unit square from integer hashes: every
    coordinate is one correctly rounded division, the same on any machine."""
    return [[i * 2654435761 % 2**32 / 2**32, i * 40503 % 65521 / 65521] for i in range(n)]


def _knn(n, ks, n_reps):
    points = _points(n)
    return _simulate(n, n_reps, 3, {"kind": "explicit", "values": [3 * x - 2 * y for x, y in points]},
                     [{"label": label, "kind": "knn", "parameters": {"points": points, "k": k}}
                      for label, k in ks])


def _spectral(n=64):
    x = [i / n for i in range(n)]
    gram = [1.0 / (1.0 + 25.0 * (a - b) ** 2) for a in x for b in x]
    return _simulate(n, 2000, 5, {"kind": "poly_decay", "alpha": 1.0, "scale": 5.0},
                     [{"label": f"lam{lam}", "kind": "krr",
                       "parameters": {"gram": gram, "lambda": lam}}
                      for lam in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)])


def _dense(n=48):
    u = [i / n - 0.5 for i in range(n)]
    design = [v**j for v in u for j in range(4)]
    smooth = [[0.0] * n for _ in range(n)]  # a three-point moving average
    for i in range(n):
        rows = [j for j in (i - 1, i, i + 1) if 0 <= j < n]
        for j in rows:
            smooth[i][j] = 1.0 / len(rows)
    return _simulate(n, 2500, 11, {"kind": "sparse", "k": 5, "amplitude": 2.0}, [
        {"label": "zero", "kind": "zero", "parameters": {}},
        {"label": "identity", "kind": "identity", "parameters": {}},
        {"label": "linear", "kind": "projection",
         "parameters": {"design": design, "p": 4, "subset": [0, 1]}},
        {"label": "cubic", "kind": "projection",
         "parameters": {"design": design, "p": 4, "subset": [0, 1, 2, 3]}},
        {"label": "average", "kind": "explicit",
         "parameters": {"matrix": [v for row in smooth for v in row]}},
    ])


def _near_overflow(value, seed):
    return _simulate(2, 10, seed, {"kind": "constant", "value": value}, [
        {"label": "a", "kind": "identity"},
        {"label": "b", "kind": "explicit", "parameters": {"matrix": [0.5, 0.5, 0.5, 0.5]}}])


# case -> (command, config); each simulate case spans more than one block
CASES = {
    "knn": _knn(100, [(f"k{k}", k) for k in (1, 2, 4, 8, 16, 32)], 1500),
    "knn_shared_k": _knn(60, [("a3", 3), ("b3", 3), ("k1", 1), ("k8", 8)], 1200),
    "spectral": _spectral(),
    "dense": _dense(),
    "stderr_overflows": _near_overflow(1e200, 42),
    "record_columns_near_overflow": _near_overflow(1e307, 42),
    "identity_terms_overflow": _near_overflow(1e307, 1),
    "lemmas": ("verify-lemmas", {
        "master_seed": 42,
        "maxima": {"n_samples": 500, "n_vars": [1, 10], "k": [1, 2], "tau": [1.0]},
        "quadratic": {"n_samples": 10_000, "n_matrices": 2, "dim": 3}}),
}


def _run(work, case, threads):
    """(exit code, {output name: bytes}) of one case at `threads` (None: the default)."""
    command, config = CASES[case]
    work.mkdir(parents=True)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(config))
    paths = {"summary": work / "summary.json", "records": work / "records.csv"}
    argv = [command, "--config", str(cfg), "--out", str(paths["summary"])]
    if command == "simulate":
        argv += ["--records", str(paths["records"])]
        argv += [] if threads is None else ["--threads", str(threads)]
    else:
        paths = {"report": paths["summary"]}
    code = cli.main(argv)
    return code, {name: path.read_bytes() for name, path in paths.items()}


def _kept_lines(records):
    """The header and about ROWS_KEPT evenly spaced rows of a records CSV."""
    header, *rows = records.decode().splitlines()
    return [header] + rows[::max(1, len(rows) // ROWS_KEPT)]


def _tables(case, outputs):
    """The values compared off the recorded build: {table: [row dict]}."""
    if "records" in outputs:
        rows = csv.DictReader(io.StringIO("\n".join(_kept_lines(outputs["records"]))))
        return {"records": [{k: float(v) if k in FLOAT_COLUMNS else v for k, v in row.items()}
                            for row in rows]}
    report = json.loads(outputs["report"])
    return {key: value if isinstance(value, list) else [{key: value}]
            for key, value in report.items()}


def _golden_tables(case):
    if CASES[case][0] == "simulate":
        with open(GOLDEN / "records.csv", newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.DictReader(fh) if row.pop("case") == case]
        return {"records": [{k: float(v) if k in FLOAT_COLUMNS else v for k, v in row.items()}
                            for row in rows]}
    return _tables(case, {"report": (GOLDEN / f"{case}.json").read_bytes()})


def assert_close(actual, expected):
    """The same tables, rows and keys; non-floats equal, and each float within
    RTOL of the largest |value| of its column in `expected`."""
    assert actual.keys() == expected.keys()
    for table, rows in expected.items():
        assert len(actual[table]) == len(rows), table
        assert all(row.keys() == want.keys() for row, want in zip(actual[table], rows)), table
        for key in rows[0] if rows else ():
            want = [row[key] for row in rows]
            got = [row[key] for row in actual[table]]
            if isinstance(want[0], float):
                scale = max(abs(w) for w in want)
                worst = max(abs(g - w) for g, w in zip(got, want))
                assert worst <= RTOL * scale, f"{table}.{key}: off by {worst}, scale {scale}"
            else:
                assert got == want, f"{table}.{key}"


def _digests(code, outputs):
    return {"exit_code": code} | {name: hashlib.sha256(data).hexdigest()
                                  for name, data in outputs.items()}


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_the_golden_files(tmp_path, case):
    runs = [_run(tmp_path / str(threads), case, threads) for threads in THREADS[CASES[case][0]]]
    assert all(run == runs[0] for run in runs[1:])  # the same bytes at any --threads
    code, outputs = runs[0]
    golden = json.loads((GOLDEN / "digests.json").read_text())
    if golden["environment"] == _environment():
        assert _digests(code, outputs) == golden["cases"][case]
    else:
        assert code == golden["cases"][case]["exit_code"]
    assert_close(_tables(case, outputs), _golden_tables(case))


@pytest.mark.parametrize("column", FLOAT_COLUMNS)
def test_a_value_off_by_more_than_the_bound_fails(column):
    """The comparison off the recorded build sees a change of 2 RTOL of the
    column's scale in any float column, and any changed selection."""
    expected = _golden_tables("knn")
    moved = {"records": [dict(row) for row in expected["records"]]}
    scale = max(abs(row[column]) for row in expected["records"])
    moved["records"][-1][column] += 2 * RTOL * scale
    with pytest.raises(AssertionError, match=column):
        assert_close(moved, expected)
    moved = {"records": [dict(row) for row in expected["records"]]}
    moved["records"][0]["selected"] = "k32" if moved["records"][0]["selected"] != "k32" else "k1"
    with pytest.raises(AssertionError, match="selected"):
        assert_close(moved, expected)


def write_golden():
    """Rewrite digests.json, records.csv and each lemma case's report from this tree."""
    GOLDEN.mkdir(exist_ok=True)
    digests, lines = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for case, (command, _) in CASES.items():
            code, outputs = _run(pathlib.Path(tmp) / case, case, 1)
            digests[case] = _digests(code, outputs)
            if command == "simulate":
                header, *rows = _kept_lines(outputs["records"])
                lines = lines or [f"case,{header}"]
                lines += [f"{case},{row}" for row in rows]
            else:
                (GOLDEN / f"{case}.json").write_bytes(outputs["report"])
    (GOLDEN / "records.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    doc = {"environment": _environment(), "cases": digests}
    (GOLDEN / "digests.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_golden()
