import dataclasses
import io
import json
import math
import os

import numpy as np
import pytest

from sure_lab import (
    GaussianSequenceModel,
    SmootherFamily,
    centered_variables,
    derive_stream,
    from_matrix,
    krr_from_gram,
    montecarlo,
    projection_from_design,
    records_to_csv,
    risk,
    run_experiment,
    shell_decay_report,
    sure,
    sure_select,
    sure_unbiasedness_check,
)
from sure_lab.criteria import DegenerateFamilyError
from sure_lab.montecarlo import RECORD_CSV_COLUMNS


def one_row(family, model, z, index=0):
    """Statistics of the one replicate with standard-normal noise z, as {column: value}."""
    z = np.asarray(z, dtype=float)
    cols = montecarlo._Context(family, model).block(model.sigma * z[None, :], index)
    return {name: col[0] for name, col in cols.items()}


def csv_text(records):
    fh = io.StringIO()
    records_to_csv(records, fh)
    return fh.getvalue()


@pytest.fixture
def model():
    return GaussianSequenceModel(theta0=[1.0, 0.0], sigma=1.0)


@pytest.fixture
def zero_id_family():
    return SmootherFamily.of([
        from_matrix("a", np.zeros((2, 2))),
        from_matrix("b", np.eye(2)),
    ])


def test_replicate_zero_noise_singleton(model):
    h = from_matrix("h", np.array([[0.4, 0.0], [0.1, 0.3]]))
    fam = SmootherFamily.of([h])
    row = one_row(fam, model, [0.0, 0.0])
    # with z = 0 the statistic is -tr(H); its expectation over z is 0
    assert row["edf_total"] == pytest.approx(-h.df, abs=1e-12)
    assert row["edf_quadratic"] == pytest.approx(-h.df, abs=1e-12)
    assert row["edf_linear"] == 0.0


def test_replicate_hand_trace_select_zero(zero_id_family, model):
    row = one_row(zero_id_family, model, [0.5, -0.5])
    assert zero_id_family.labels[row["selected"]] == "a"
    assert row["sure_min"] == pytest.approx(2.5)
    assert row["loss_selected"] == pytest.approx(1.0)
    assert row["edf_total"] == 0.0
    assert row["edf_quadratic"] == 0.0
    assert row["edf_linear"] == 0.0
    assert row["exopt_stat"] == pytest.approx(0.5)
    assert row["shell"] == 0
    assert row["basic_inequality_slack"] >= -1e-8


def test_replicate_hand_trace_select_identity(zero_id_family, model):
    row = one_row(zero_id_family, model, [1.5, 0.5])
    assert zero_id_family.labels[row["selected"]] == "b"
    assert row["edf_total"] == pytest.approx(2.0)
    assert row["edf_quadratic"] == pytest.approx(0.5)
    assert row["edf_linear"] == pytest.approx(1.5)
    # basic inequality: LHS 1 <= RHS 3.5
    assert row["basic_inequality_slack"] == pytest.approx(2.5)


def test_replicate_exopt_linkage_exact(zero_id_family, model):
    for z in ([0.5, -0.5], [1.5, 0.5], [-2.0, 0.3]):
        row = one_row(zero_id_family, model, z)
        linkage = (row["exopt_stat"] - 2.0 * row["edf_total"]
                   - (row["noise_sq_gap"] - row["signal_cross"]))
        assert abs(linkage) <= 1e-8 * (1.0 + abs(row["exopt_stat"]))


def test_run_experiment_single_rep(zero_id_family, model):
    summary, records = run_experiment(zero_id_family, model, 1, 42, keep_records=True)
    assert summary.n_reps == 1
    assert summary.estimates["sure_min_mean"]["mean"] == records.columns["sure_min"][0]
    assert summary.estimates["sure_min_mean"]["stderr"] is None  # sentinel, not 0


def test_run_experiment_validation(zero_id_family, model):
    with pytest.raises(ValueError):
        run_experiment(zero_id_family, model, 0, 42)


def test_singleton_edf_centered(model):
    fam = SmootherFamily.of([from_matrix("h", np.diag([0.5, 0.25]))])
    summary, _ = run_experiment(fam, model, 20_000, 7)
    est = summary.estimates["edf_total"]
    assert abs(est["mean"]) <= 4.0 * est["stderr"]


def test_exopt_edf_linkage_in_expectation(zero_id_family, model):
    summary, _ = run_experiment(zero_id_family, model, 20_000, 11)
    assert summary.identity_pass_rates["exopt_linkage"] == 1.0
    # E[exopt] = 2 sigma^2 E[edf]: compare means within combined stderr
    exopt = summary.estimates["exopt"]
    edf = summary.estimates["edf_total"]
    combined = 4.0 * (exopt["stderr"] + 2.0 * edf["stderr"])
    assert abs(exopt["mean"] - 2.0 * edf["mean"]) <= combined
    gap = summary.estimates["noise_sq_gap"]
    assert abs(gap["mean"]) <= 4.0 * gap["stderr"]


def test_identity_pass_rates_all_one(model):
    rng = np.random.default_rng(3)
    fam = SmootherFamily.of(
        [from_matrix(f"m{i}", rng.standard_normal((2, 2)) * 0.5) for i in range(5)])
    summary, _ = run_experiment(fam, model, 5_000, 5)
    assert summary.all_identities_pass


def test_histograms_sum_to_n_reps(zero_id_family, model):
    summary, _ = run_experiment(zero_id_family, model, 3_000, 1)
    assert sum(summary.selection_histogram.values()) == 3_000
    assert sum(summary.shell_histogram.values()) == 3_000


def test_degenerate_r_star_disables_shells(zero_id_family):
    zero_model = GaussianSequenceModel(theta0=[0.0, 0.0], sigma=1.0)
    summary, records = run_experiment(zero_id_family, zero_model, 50, 2, keep_records=True)
    assert summary.shell_histogram is None
    assert "shell" not in records.columns
    with pytest.raises(DegenerateFamilyError):
        shell_decay_report(summary, zero_id_family, zero_model)


def test_sure_unbiasedness_targets(model):
    mean, target, z_score = sure_unbiasedness_check(
        from_matrix("zero", np.zeros((2, 2))), model, 20_000, 13)
    assert target == pytest.approx(3.0)  # risk 1 + n sigma^2
    assert abs(z_score) <= 4.0
    _, target_id, z_id = sure_unbiasedness_check(
        from_matrix("id", np.eye(2)), model, 20_000, 13)
    assert target_id == pytest.approx(4.0)
    assert abs(z_id) <= 4.0
    # the check is a one-member run: its mean is that run's sure_min_mean estimate
    h = from_matrix("h", np.diag([0.5, 0.25]))
    mean_h, _, _ = sure_unbiasedness_check(h, model, 5_000, 13)
    summary, _ = run_experiment(SmootherFamily.of([h]), model, 5_000, 13)
    assert mean_h == summary.estimates["sure_min_mean"]["mean"]


def test_shell_decay_report_two_member(zero_id_family, model):
    summary, _ = run_experiment(zero_id_family, model, 10_000, 42)
    report = shell_decay_report(summary, zero_id_family, model)
    assert [row["shell"] for row in report.rows] == [0, 1]
    assert report.rows[0]["members"] == 1 and report.rows[1]["members"] == 1
    assert report.rows[0]["frequency"] + report.rows[1]["frequency"] == pytest.approx(1.0)
    assert report.nonincreasing


def test_shell_decay_report_empty_middle_shells(zero_id_family):
    model = GaussianSequenceModel(theta0=[0.5, 0.0], sigma=1.0)  # r* = 1/4, identity in shell 3
    summary, _ = run_experiment(zero_id_family, model, 2_000, 42)
    report = shell_decay_report(summary, zero_id_family, model)
    assert [row["members"] for row in report.rows] == [1, 0, 0, 1]
    assert [row["frequency"] for row in report.rows][1:3] == [0.0, 0.0]
    assert sum(row["frequency"] for row in report.rows) == pytest.approx(1.0)


def test_shell_decay_report_zero_family_is_finite(model):
    fam = SmootherFamily.of([from_matrix("zero", np.zeros((2, 2)))])
    assert fam.h_op == 0.0 and fam.h_op_effective == 1.0
    summary, _ = run_experiment(fam, model, 100, 3)
    report = shell_decay_report(summary, fam, model)
    assert [row["lemma_shape"] for row in report.rows] == [math.exp(-1.0)]  # r* = 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_run_experiment_rejects_overflowing_shells(zero_id_family):
    model = GaussianSequenceModel(theta0=[1e-160, 0.0], sigma=1.0)  # r* = 1e-320
    with pytest.raises(ValueError, match="r_star"):
        run_experiment(zero_id_family, model, 10, 1)


def test_shell_decay_all_in_shell_zero(model):
    fam = SmootherFamily.of([
        from_matrix("a", np.diag([0.5, 0.5])),
        from_matrix("b", np.diag([0.5, 0.5])),
    ])
    summary, _ = run_experiment(fam, model, 500, 4)
    report = shell_decay_report(summary, fam, model)
    assert report.rows[0]["frequency"] == 1.0


def test_summary_fields_are_json_keys(zero_id_family, model):
    summary, _ = run_experiment(zero_id_family, model, 50, 3)
    doc = summary.to_json_dict()
    assert [f.name for f in dataclasses.fields(summary)] == list(doc)
    assert all(isinstance(key, str) for key in doc["shell_histogram"])


def test_summary_json_deterministic(zero_id_family, model):
    s1, _ = run_experiment(zero_id_family, model, 2_000, 42, n_threads=1)
    s2, _ = run_experiment(zero_id_family, model, 2_000, 42, n_threads=8)
    b1 = json.dumps(s1.to_json_dict(), sort_keys=True)
    b2 = json.dumps(s2.to_json_dict(), sort_keys=True)
    assert b1 == b2


def test_records_csv_round_trip(zero_id_family, model):
    _, records = run_experiment(zero_id_family, model, 20, 42, keep_records=True)
    text = csv_text(records)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(RECORD_CSV_COLUMNS)
    assert len(lines) == 21
    cells = lines[1].split(",")
    parsed = dict(zip(RECORD_CSV_COLUMNS, cells))
    assert float(parsed["sure_min"]) == records.columns["sure_min"][0]  # full precision
    assert int(parsed["replicate_index"]) == 0


def test_replicate_sure_tie_keeps_first_member(zero_id_family, model):
    # y = (2, 0): SURE(zero) = |y|^2 = 4 = 2 sigma^2 tr(I) = SURE(identity)
    assert zero_id_family.labels[one_row(zero_id_family, model, [1.0, 0.0])["selected"]] == "a"


def _random_family(rng, n, size):
    members = []
    for i in range(size):
        kind = i % 3
        if kind == 0:
            members.append(from_matrix(f"m{i}", rng.standard_normal((n, n)) / np.sqrt(n)))
        elif kind == 1:
            subset = list(range(int(rng.integers(1, n + 1))))
            members.append(projection_from_design(f"p{i}", rng.standard_normal((n, n)), subset))
        else:
            a = rng.standard_normal((n, n))
            members.append(krr_from_gram(f"k{i}", a @ a.T, float(rng.uniform(0.1, 5.0))))
    return SmootherFamily.of(members)


@pytest.mark.parametrize("n", [2, 7, 20])
def test_block_kernel_matches_criteria(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        family = _random_family(rng, n, int(rng.integers(1, 7)))
        model = GaussianSequenceModel(theta0=rng.normal(scale=2.0, size=n),
                                      sigma=float(rng.uniform(0.3, 2.0)))
        s2 = model.sigma_sq
        _, records = run_experiment(family, model, 40, 9, keep_records=True)
        oracle = min(family.members, key=lambda m: risk(m, model))
        cols = records.columns
        for i in range(len(records)):
            z = model.sigma * derive_stream(9, cols["replicate_index"][i]).standard_normal(n)
            y = model.theta0 + z
            selected = family.labels[cols["selected"][i]]
            assert selected == sure_select(family, y, model.sigma).selected
            h = family.member(selected)
            cv, cv0 = centered_variables(h, model, z), centered_variables(oracle, model, z)
            diff = h.h @ y - model.theta0
            expected = {
                "sure_min": sure(h, y, model.sigma),
                "loss_selected": diff @ diff,
                "edf_total": (h.h @ y) @ z / s2 - h.df,
                "edf_quadratic": (h.h @ z) @ z / s2 - h.df,
                "edf_linear": (h.h @ model.theta0) @ z / s2,
                "noise_sq_gap": n * s2 - z @ z,
                "signal_cross": 2.0 * model.theta0 @ z,
                "basic_inequality_slack": (cv.w - cv0.w) + 2.0 * (cv.zlin - cv0.zlin)
                - (risk(h, model) - risk(oracle, model)) / s2,
            }
            expected["exopt_stat"] = expected["loss_selected"] + n * s2 - expected["sure_min"]
            for name, want in expected.items():
                assert cols[name][i] == pytest.approx(want, rel=1e-10, abs=1e-10), name


def test_engine_rows_match_replicate():
    rng = np.random.default_rng(8)
    n = 200
    family = SmootherFamily.of(
        [from_matrix(f"m{i}", rng.standard_normal((n, n)) / n) for i in range(20)])
    model = GaussianSequenceModel(theta0=rng.standard_normal(n), sigma=1.0)
    block = montecarlo._Context(family, model).block_len
    assert block == 65
    _, records = run_experiment(family, model, block + 1, 3, keep_records=True)
    cols = records.columns
    for i in (0, block - 1, block):
        one = one_row(family, model, derive_stream(3, i).standard_normal(n), i)
        assert cols["replicate_index"][i] == one["replicate_index"] == i
        assert cols["selected"][i] == one["selected"] and cols["shell"][i] == one["shell"]
        for name in ("sure_min", "edf_total", "basic_inequality_slack"):
            assert cols[name][i] == pytest.approx(one[name], rel=1e-12)


def test_outputs_byte_identical_across_threads(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # let 3 workers really run
    n = 128
    family = SmootherFamily.of([projection_from_design(f"p{m}", np.eye(n), list(range(m)))
                                for m in (1, 2, 4, 8, 16, 32, 64, 128)])
    model = GaussianSequenceModel(theta0=5.0 / np.arange(1, n + 1), sigma=1.0)
    n_reps = 1000
    assert n_reps % montecarlo._Context(family, model).block_len != 0
    outputs = set()
    for threads in (1, 2, 3):
        summary, records = run_experiment(family, model, n_reps, 77, n_threads=threads,
                                          keep_records=True)
        outputs.add((json.dumps(summary.to_json_dict(), sort_keys=True), csv_text(records)))
    assert len(outputs) == 1


class RecordingPool:
    """Stand-in ThreadPoolExecutor that records max_workers and runs inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_worker_pool_bounded(monkeypatch, zero_id_family, model):
    RecordingPool.sizes = []
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    block = montecarlo._Context(zero_id_family, model).block_len
    run_experiment(zero_id_family, model, 3 * block, 1, n_threads=10**6)  # 3 blocks
    run_experiment(zero_id_family, model, 10 * block, 1, n_threads=10**6)  # 4 CPUs
    run_experiment(zero_id_family, model, block, 1, n_threads=10**6)  # 1 block: no pool
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_experiment(zero_id_family, model, 10 * block, 1, n_threads=10**6)  # unknown: 1
    assert RecordingPool.sizes == [3, 4]


def _csv_reference(records):
    """Row-by-row serializer that records_to_csv must reproduce byte for byte."""
    cols = records.columns
    lines = [",".join(RECORD_CSV_COLUMNS)]
    for i in range(len(records)):
        cells = []
        for col in RECORD_CSV_COLUMNS:
            if col not in cols:
                cells.append("")
            elif col == "selected":
                cells.append(records.labels[cols[col][i]])
            elif col in ("replicate_index", "shell"):
                cells.append(str(int(cols[col][i])))
            else:
                cells.append(repr(float(cols[col][i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_records_csv_matches_row_reference(zero_id_family, model):
    _, records = run_experiment(zero_id_family, model, 300, 5, keep_records=True)
    assert csv_text(records) == _csv_reference(records)
    zero_model = GaussianSequenceModel(theta0=[0.0, 0.0], sigma=1.0)
    _, no_shells = run_experiment(zero_id_family, zero_model, 30, 5, keep_records=True)
    assert csv_text(no_shells) == _csv_reference(no_shells)
    assert len(records) == 300 and records.columns["replicate_index"][-1] == 299


def test_records_csv_chunks_match_row_reference(monkeypatch):
    n = 128
    family = SmootherFamily.of([from_matrix("zero", np.zeros((n, n)))] + [
        projection_from_design(f"p{m}", np.eye(n), list(range(m))) for m in (4, 16, 64)])
    block = montecarlo._Context(family, GaussianSequenceModel(np.ones(n), 1.0)).block_len
    n_reps = 2 * block + 3
    monkeypatch.setattr(montecarlo, "CSV_CHUNK_ROWS", 7)
    assert n_reps % 7 and block % 7
    for theta0 in (np.ones(n), np.zeros(n)):  # with and without a shell column
        _, records = run_experiment(family, GaussianSequenceModel(theta0, 1.0), n_reps, 6,
                                    keep_records=True)
        assert ("shell" in records.columns) == bool(theta0.any())
        assert csv_text(records) == _csv_reference(records)
