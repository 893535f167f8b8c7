import dataclasses
import gc
import io
import itertools
import json
import os
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from sure_lab import (
    GaussianSequenceModel,
    SmootherFamily,
    centered_variables,
    criteria,
    derive_stream,
    family_from_doc,
    from_matrix,
    knn_from_points,
    krr_from_gram,
    make_theta0,
    montecarlo,
    projection_from_design,
    records_to_csv,
    risk,
    run_experiment,
    smoothers,
    sure,
    sure_select,
    sure_unbiasedness_check,
)
from sure_lab.cli import main
from sure_lab.criteria import DegenerateFamilyError
from sure_lab.montecarlo import RECORD_CSV_COLUMNS
from sure_lab.sequence_model import NOISE_CHUNK_FLOATS, standard_normal_rows


def noise_row(master_seed, i, n):
    """Replicate i's standard-normal noise by the chunk rule: row i % m of
    derive_stream(master_seed, i // m).standard_normal((m, n))."""
    m = max(1, NOISE_CHUNK_FLOATS // n)
    return derive_stream(master_seed, i // m).standard_normal((m, n))[i % m]


def one_row(family, model, z, index=0):
    """Statistics of the one replicate with standard-normal noise z, as {column: value}."""
    z = np.asarray(z, dtype=float)
    ctx = montecarlo._Context(family, model)
    cols = ctx.block(model.sigma * z[None, :], index)
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
    with pytest.raises(ValueError, match="^family dimension 2 does not match model dimension 3$"):
        run_experiment(zero_id_family, GaussianSequenceModel(np.ones(3), 1.0), 10, 42)


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


_NESTED_N = 20
# nested coordinate projections P_2, P_4, ..., P_20 onto the leading coordinates
_NESTED = [np.diag((np.arange(_NESTED_N) < k).astype(float)) for k in range(2, _NESTED_N + 1, 2)]


def _nested_model(snr, c):
    """poly_decay theta0 (alpha = 1) with max|theta0| / sigma = snr, scaled by c."""
    theta0 = make_theta0("poly_decay", _NESTED_N, alpha=1.0, scale=c * snr)
    return GaussianSequenceModel(theta0=theta0, sigma=c)


def _nested_family():
    return SmootherFamily.of([from_matrix(f"P{i}", h) for i, h in enumerate(_NESTED)])


@pytest.mark.parametrize("snr", [5e5, 5e7, 1e8])
def test_identity_verdicts_are_scale_invariant(snr):
    # The identities are homogeneous in (theta0, sigma): (c theta0, c sigma) over
    # twelve decades of c gets the same verdict as (theta0, sigma), and it is a pass.
    family = _nested_family()
    for c in 10.0 ** np.arange(-6, 7, 2):
        summary, _ = run_experiment(family, _nested_model(snr, c), 10_000, 3)
        assert set(summary.identity_pass_rates.values()) == {1.0}, c


def _inject(monkeypatch, column, error):
    """Make _Context.block add error(ctx, cols) to one record column."""
    block = montecarlo._Context.block

    def faulty(ctx, *args):
        cols = block(ctx, *args)
        cols[column] = cols[column] + error(ctx, cols)
        return cols

    monkeypatch.setattr(montecarlo._Context, "block", faulty)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("identity,column,error", [
    # a 1e-6 relative error in one term of each identity
    ("edf_decomposition", "edf_linear", lambda ctx, cols: 1e-6 * cols["edf_linear"]),
    ("basic_inequality", "basic_inequality_slack",
     lambda ctx, cols: -1e-6 * np.abs(cols["sure_min"]) / ctx.sigma_sq),
    ("exopt_linkage", "exopt_stat", lambda ctx, cols: 1e-6 * cols["loss_selected"]),
], ids=["edf_linear", "basic_inequality_slack", "exopt_stat"])
def test_identity_checks_catch_injected_errors(tmp_path, capsys, monkeypatch,
                                               c, identity, column, error):
    _inject(monkeypatch, column, error)
    summary, _ = run_experiment(_nested_family(), _nested_model(10.0, c), 500, 3)
    rates = summary.identity_pass_rates
    assert rates[identity] < 1.0
    assert all(rate == 1.0 for name, rate in rates.items() if name != identity)

    config = {
        "schema_version": 1, "n_reps": 500, "master_seed": 3,
        "model": {"n": _NESTED_N, "sigma": c,
                  "theta0": {"kind": "poly_decay", "alpha": 1.0, "scale": 10.0 * c}},
        "family": {"smoothers": [{"label": f"P{i}", "kind": "explicit",
                                  "parameters": {"matrix": h.ravel().tolist()}}
                                 for i, h in enumerate(_NESTED)]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s.json")]) == 2
    assert "exact identity check failed" in capsys.readouterr().err


def test_identity_tolerance_stays_finite_where_its_terms_overflow():
    # 1e308 + 1e308 overflows; the tolerance is still 1e-8 * 2e308 = 2e300
    assert not montecarlo._holds(np.array([1e301]), 1e308, 1e308)
    assert montecarlo._holds(np.array([1e299]), 1e308, 1e308)


def test_histograms_sum_to_n_reps(zero_id_family, model):
    summary, _ = run_experiment(zero_id_family, model, 3_000, 1)
    assert sum(summary.selection_histogram.values()) == 3_000
    assert sum(summary.shell_histogram.values()) == 3_000
    # the members' risks 1 and 2 lie in shells 0 and 1 at r* = 1; shell 1 is the rarer
    hist = summary.shell_histogram
    assert sorted(hist) == ["0", "1"] and hist["0"] >= hist["1"]
    # two equal members share shell 0, and so does the one member of a family
    twins = SmootherFamily.of([from_matrix(label, np.diag([0.5, 0.5])) for label in "ab"])
    single = SmootherFamily.of([from_matrix("zero", np.zeros((2, 2)))])
    for family in (twins, single):
        summary, _ = run_experiment(family, model, 500, 4)
        assert summary.shell_histogram == {"0": 500}


def test_degenerate_r_star_disables_shells(zero_id_family):
    zero_model = GaussianSequenceModel(theta0=[0.0, 0.0], sigma=1.0)
    summary, records = run_experiment(zero_id_family, zero_model, 50, 2, keep_records=True)
    assert summary.shell_histogram is None
    assert "shell" not in records.columns
    with pytest.raises(DegenerateFamilyError):
        criteria.shell_indices([risk(m, zero_model) for m in zero_id_family.members],
                               zero_model.sigma_sq, summary.r_star)
    # r* = 1/4: the identity's risk 2 is in shell 3, and shells 1 and 2 stay empty
    quarter = GaussianSequenceModel(theta0=[0.5, 0.0], sigma=1.0)
    summary, _ = run_experiment(zero_id_family, quarter, 2_000, 42)
    assert summary.r_star == 0.25 and sorted(summary.shell_histogram) == ["0", "3"]
    assert sum(summary.shell_histogram.values()) == 2_000


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_run_experiment_rejects_overflowing_shells(zero_id_family):
    model = GaussianSequenceModel(theta0=[1e-160, 0.0], sigma=1.0)  # r* = 1e-320
    with pytest.raises(ValueError, match="r_star"):
        run_experiment(zero_id_family, model, 10, 1)


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


def _krr_grid(rng, n, size, singular):
    """KRR members on one random Gram matrix, built as a family document is.

    A singular Gram (rank n - 1) gets positive lambdas; a nonsingular one
    also a lambda = 0 member (H = I).
    """
    a = rng.standard_normal((n, n - 1 if singular else n))
    lams = np.sort(rng.uniform(0.05, 20.0, size))
    if not singular:
        lams[0] = 0.0
    gram = (a @ a.T).reshape(-1).tolist()
    return family_from_doc({"schema_version": 1, "n": n, "smoothers": [
        {"label": f"k{i}", "kind": "krr", "parameters": {"gram": gram, "lambda": float(lam)}}
        for i, lam in enumerate(lams)]})


def _knn_family(rng, n, ks, d):
    """k-NN members with neighbour counts ks on one point set, built as a family
    document is. 1-D points lie on an integer grid (exact distance ties and
    repeated points); 2-D points are normal draws."""
    points = (rng.integers(0, max(2, n // 2), size=(n, 1)).astype(float) if d == 1
              else rng.standard_normal((n, 2)))
    return family_from_doc({"schema_version": 1, "n": n, "smoothers": [
        {"label": f"knn{i}", "kind": "knn", "parameters": {"points": points.tolist(), "k": int(k)}}
        for i, k in enumerate(ks)]})


def _dense_twin(family):
    """The family with the spectral forms dropped, each member carrying its dense
    matrix, so the engine applies every matrix."""
    return SmootherFamily.of([dataclasses.replace(m, dense=m.h, basis=None, spectrum=None)
                              for m in family.members])


def _kernel(ctx):
    return ctx._select.__name__.lstrip("_")


def _assert_records_match(got, want):
    """Equal integer columns; float columns within 1e-10 relative of the largest value."""
    for name, reference in want.columns.items():
        if reference.dtype.kind == "i":
            np.testing.assert_array_equal(got.columns[name], reference, err_msg=name)
        else:
            scale = max(1.0, float(np.max(np.abs(reference))))
            np.testing.assert_allclose(got.columns[name], reference, rtol=1e-10,
                                       atol=1e-10 * scale, err_msg=name)


def _oracle_rows_with_zero_slack(family, model, records):
    """Assert the basic-inequality slack is exactly 0 on every record whose selected
    member is the oracle member, and return how many such records there are: the
    kernel must apply the oracle one way, whichever side of the inequality it is on."""
    oracle = records.columns["selected"] == montecarlo._Context(family, model).oracle_idx
    np.testing.assert_array_equal(records.columns["basic_inequality_slack"][oracle], 0.0)
    return int(np.count_nonzero(oracle))


def _assert_sure_min_selected(family, model, records, master_seed):
    """Assert sure_min is, bit for bit, the criterion the kernel selected by:
    min over s of ||y - H_s y||^2 + 2 sigma^2 tr H_s from ctx._select, on the
    blocks and draws of _run."""
    ctx = montecarlo._Context(family, model)
    for lo in range(0, len(records), ctx.block_len):
        hi = min(lo + ctx.block_len, len(records))
        z = standard_normal_rows(master_seed, lo, hi, model.n) * model.sigma
        resid_sq, _ = ctx._select(ctx, z)
        criterion = resid_sq + 2.0 * model.sigma_sq * ctx.trs
        np.testing.assert_array_equal(records.columns["sure_min"][lo:hi], criterion.min(axis=1))


@pytest.mark.parametrize("n", [2, 7, 20])
def test_block_kernel_matches_criteria(n):
    rng = np.random.default_rng(100 + n)
    families = itertools.chain(
        (_random_family(rng, n, int(rng.integers(1, 7))) for _ in range(3)),
        (_krr_grid(rng, n, int(rng.integers(2, 9)), singular) for singular in (True, False)),
        (_knn_family(rng, n, rng.integers(1, n + 1, size=4), d) for d in (1, 2)))
    for family in families:
        model = GaussianSequenceModel(theta0=rng.normal(scale=2.0, size=n),
                                      sigma=float(rng.uniform(0.3, 2.0)))
        s2 = model.sigma_sq
        _, records = run_experiment(family, model, 40, 9, keep_records=True)
        oracle = min(family.members, key=lambda m: risk(m, model))
        cols = records.columns
        for i in range(len(records)):
            z = model.sigma * noise_row(9, cols["replicate_index"][i], n)
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


@pytest.mark.parametrize("n", [2, 7, 20])
@pytest.mark.parametrize("singular", [True, False], ids=["singular", "lambda0"])
def test_spectral_kernel_matches_dense(n, singular):
    rng = np.random.default_rng(200 + n)
    oracle_rows = 0
    for _ in range(3):
        family = _krr_grid(rng, n, int(rng.integers(2, 13)), singular)
        model = GaussianSequenceModel(theta0=rng.normal(scale=2.0, size=n),
                                      sigma=float(rng.uniform(0.3, 2.0)))
        dense = _dense_twin(family)
        assert montecarlo._Context(family, model).basis is not None
        assert montecarlo._Context(dense, model).basis is None
        runs = [run_experiment(f, model, 300, 4, keep_records=True) for f in (family, dense)]
        (spectral_summary, spectral), (dense_summary, reference) = runs
        for summary in (spectral_summary, dense_summary):
            assert set(summary.identity_pass_rates.values()) == {1.0}
        _assert_records_match(spectral, reference)
        for f, records in ((family, spectral), (dense, reference)):
            _assert_sure_min_selected(f, model, records, 4)
            oracle_rows += _oracle_rows_with_zero_slack(f, model, records)
    assert oracle_rows > 0


def _assert_knn_matches_dense(family, model, n_reps, seed):
    """Run a k-NN kernel family and its dense twin: every identity holds, the
    records agree, sure_min is the selecting criterion on both kernels, and the
    slack is exactly 0 where SURE selects the oracle. Returns the oracle rows."""
    dense = dataclasses.replace(family, neighbours=None)
    assert _kernel(montecarlo._Context(dense, model)) == "dense"
    runs = [run_experiment(f, model, n_reps, seed, keep_records=True) for f in (family, dense)]
    for summary, _ in runs:
        assert set(summary.identity_pass_rates.values()) == {1.0}
    (_, knn), (_, reference) = runs
    _assert_records_match(knn, reference)
    oracle_rows = 0
    for f, (_, records) in zip((family, dense), runs):
        _assert_sure_min_selected(f, model, records, seed)
        oracle_rows += _oracle_rows_with_zero_slack(f, model, records)
    return oracle_rows


@pytest.mark.parametrize("n", [2, 7, 20])
@pytest.mark.parametrize("d", [1, 2], ids=["ties-1d", "2d"])
def test_knn_kernel_matches_dense(n, d):
    """Random signals, then the two ends of the running-sum pass for the oracle's
    product: theta0 = 0 (the largest k, the last rank) and a large rough theta0
    (k = 1, the first rank), each with the oracle's k under two labels."""
    rng = np.random.default_rng(300 + 10 * n + d)
    oracle_rows = 0
    for oracle_k in (None, None, None, n, 1):
        ks = [1, n, *rng.integers(1, n + 1, size=int(rng.integers(0, 5)))]
        ks.append(ks[-1] if oracle_k is None else oracle_k)  # one k under two labels
        rng.shuffle(ks)
        family = _knn_family(rng, n, ks, d)
        theta0 = (rng.normal(scale=2.0, size=n) if oracle_k is None
                  else np.zeros(n) if oracle_k == n else rng.normal(scale=1e3, size=n))
        model = GaussianSequenceModel(theta0=theta0, sigma=float(rng.uniform(0.3, 2.0)))
        ctx = montecarlo._Context(family, model)
        assert _kernel(ctx) == "knn"
        if oracle_k is not None:
            assert ks[ctx.oracle_idx] == oracle_k and ks.count(oracle_k) >= 2
        oracle_rows += _assert_knn_matches_dense(family, model, 300, 5)
    assert oracle_rows > 0


def _knn_bench_shape():
    """The knn_n200 bench family's shape, 200 stratified points on a line and
    k = 1, 3, ..., 39, with a poly_decay signal."""
    n = 200
    points = (np.arange(n) + np.random.default_rng(12).uniform(size=n)) / n
    family = SmootherFamily.of([knn_from_points(f"knn_k{k}", points, k) for k in range(1, 40, 2)])
    model = GaussianSequenceModel(theta0=make_theta0("poly_decay", n, alpha=1.0, scale=4.0),
                                  sigma=1.0)
    return family, model


def test_knn_kernel_matches_dense_at_bench_shape():
    """At the bench shape a matrix product's SURE differs in the last digit from
    the running-sum SURE that selected the row on most rows; the run spans
    several blocks, the last one partial."""
    family, model = _knn_bench_shape()
    ctx = montecarlo._Context(family, model)
    assert _kernel(ctx) == "knn" and 1000 > 2 * ctx.block_len and 1000 % ctx.block_len
    _assert_knn_matches_dense(family, model, 1000, 2)


def test_spectral_kernel_keeps_digits_at_high_snr():
    """max|theta0| / sigma = 1e6: the spectral kernel rotates the exact draws, so
    its estimates stay within 1e-8 relative of the dense path's. Rotating y and
    subtracting the rotated theta0 instead drifts 5.8e-8 on this grid."""
    n = 40
    x = np.linspace(0.0, 1.0, n)
    gram = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2 * 0.1 ** 2))
    family = family_from_doc({"schema_version": 1, "n": n, "smoothers": [
        {"label": f"k{i}", "kind": "krr",
         "parameters": {"gram": gram.reshape(-1).tolist(), "lambda": float(lam)}}
        for i, lam in enumerate(np.logspace(-2, 2, 8))]})
    model = GaussianSequenceModel(theta0=1e6 * np.sin(6.0 * x), sigma=1.0)
    assert _kernel(montecarlo._Context(family, model)) == "spectral"
    spectral, dense = [run_experiment(f, model, 2000, 11)[0] for f in (family, _dense_twin(family))]
    assert spectral.selection_histogram == dense.selection_histogram
    assert set(spectral.identity_pass_rates.values()) == {1.0}
    for name, estimate in dense.estimates.items():
        assert spectral.estimates[name]["mean"] == pytest.approx(estimate["mean"], rel=1e-8), name


def test_spectral_block_fits_its_memory():
    """One spectral block of a 24-member KRR grid at n = 200, drawn, scaled and
    reduced as a run does it: the kernel takes every statistic from three
    products with per-member tables and holds about four n-vectors a row, so
    a block of at least 260 rows peaks under 2.3 MiB."""
    n = 200
    x = np.linspace(0.0, 1.0, n)
    gram = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2 * 0.1 ** 2))
    family = SmootherFamily.of([krr_from_gram(f"k{i}", gram, float(lam))
                                for i, lam in enumerate(np.logspace(-2, 2, 24))])
    model = GaussianSequenceModel(theta0=3.0 * np.sin(6.0 * x), sigma=1.5)
    ctx = montecarlo._Context(family, model)
    assert _kernel(ctx) == "spectral" and ctx.block_len >= 260
    assert _one_block_peak(ctx) < 2.3 * 2**20


def _one_block_peak(ctx):
    """The tracemalloc peak of a one-block _run, after a first run has made
    the first-call allocations (numpy's and the interpreter's caches) outside
    the trace."""
    montecarlo._run(ctx, ctx.block_len, 5, 1)
    tracemalloc.start()
    try:
        montecarlo._run(ctx, ctx.block_len, 5, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_knn_block_fits_its_memory():
    """One k-NN block at the bench shape, drawn, scaled and reduced as a run does
    it: every n-vector a row holds is in one of the block's four arrays (the
    draws, y, the running sums, one rank's values), so a block of at least
    250 rows peaks under 2.3 MiB."""
    family, model = _knn_bench_shape()
    ctx = montecarlo._Context(family, model)
    assert _kernel(ctx) == "knn" and ctx.block_len >= 250
    assert _one_block_peak(ctx) < 2.3 * 2**20


def test_dense_block_fits_its_memory():
    """One dense block of 20 nested projections of a random 200 x 20 design,
    drawn, scaled and reduced as a run does it: the products H_s y, |S| n
    floats a row, fill the block, so 65 rows peak under 2.6 MiB."""
    n = 200
    design = np.random.default_rng(3).standard_normal((n, 20))
    family = SmootherFamily.of([projection_from_design(f"p{m}", design, list(range(m)))
                                for m in range(1, 21)])
    model = GaussianSequenceModel(theta0=make_theta0("poly_decay", n, alpha=1.0, scale=4.0),
                                  sigma=1.0)
    ctx = montecarlo._Context(family, model)
    assert _kernel(ctx) == "dense" and ctx.block_len == 65
    assert _one_block_peak(ctx) < 2.6 * 2**20


def test_knn_engine_forms_no_member_matrix(monkeypatch, tmp_path):
    """The k-NN path takes H_s theta0 and every selected member's product from
    the neighbour ordering: at 1 and 2 workers, and in `sure-lab simulate`, no
    member gains its matrix `h` and smoothers._knn_matrix is never called,
    though SURE selects members other than the oracle."""
    calls = []
    knn_matrix = smoothers._knn_matrix

    def counting(*args):
        calls.append(args)
        return knn_matrix(*args)

    family, model = _knn_bench_shape()
    monkeypatch.setattr(smoothers, "_knn_matrix", counting)  # after the build's opnorms
    for workers in (1, 2):
        summary, _ = run_experiment(family, model, 1000, 2, n_threads=workers)
        assert sum(count > 0 for count in summary.selection_histogram.values()) > 2
    assert not calls and not [m.label for m in family if "h" in vars(m)]

    engine, families = montecarlo.run_experiment, []

    def run(family, *args, **kwargs):  # counts from the engine's start on
        families.append(family)
        calls.clear()
        return engine(family, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "run_experiment", run)
    points = [[float(i)] for i in np.random.default_rng(4).permutation(30)]
    cfg = tmp_path / "knn.json"
    cfg.write_text(json.dumps({
        "schema_version": 2,
        "model": {"n": 30, "sigma": 1.0, "theta0": {"kind": "poly_decay", "alpha": 1.0,
                                                     "scale": 4.0}},
        "family": {"smoothers": [{"label": f"k{k}", "kind": "knn",
                                  "parameters": {"points": points, "k": k}}
                                 for k in (1, 2, 3, 5, 8, 13)]},
        "n_reps": 400, "master_seed": 3}))
    out = tmp_path / "summary.json"
    assert main(["simulate", "--config", str(cfg), "--threads", "2", "--out", str(out)]) == 0
    histogram = json.loads(out.read_text())["summary"]["selection_histogram"]
    assert sum(count > 0 for count in histogram.values()) > 2
    (family,) = families
    assert not calls and not [m.label for m in family if "h" in vars(m)]


def test_knn_kernel_matches_dense_in_blocks_shorter_than_n(monkeypatch):
    """Blocks of fewer than n rows: the pick's 0/1 matrix does not fit in a
    B x n array, so the block makes the array it grows in n x n."""
    rng = np.random.default_rng(29)
    n = 20
    family = _knn_family(rng, n, [1, 2, 4, 7, 12, n], 2)
    model = GaussianSequenceModel(theta0=rng.normal(scale=1.0, size=n), sigma=1.0)
    monkeypatch.setattr(montecarlo, "BLOCK_BYTES", 3 * 8 * (4 * n + len(family) + n))  # k_max = n
    ctx = montecarlo._Context(family, model)
    assert _kernel(ctx) == "knn" and ctx.block_len == 3
    oracle_rows = _assert_knn_matches_dense(family, model, 301, 8)
    assert 0 < oracle_rows < 2 * 301  # over both runs: other members are applied too


def test_context_is_freed_without_the_cycle_collector():
    # A dense context holds |S| n^2 floats; it must go when its last reference does.
    rng = np.random.default_rng(9)
    n = 6
    points = rng.standard_normal((n, 2))
    model = GaussianSequenceModel(theta0=rng.standard_normal(n), sigma=1.0)
    gc.disable()
    try:
        for family in (SmootherFamily.of([knn_from_points("a", points, 2)]),
                       SmootherFamily.of([krr_from_gram("k", points @ points.T, 1.0)]),
                       SmootherFamily.of([from_matrix("i", np.eye(n))])):
            ctx = montecarlo._Context(family, model)
            ctx.block(rng.standard_normal((3, n)), 0)
            ref = weakref.ref(ctx)
            del ctx
            assert ref() is None, family.labels
    finally:
        gc.enable()


def test_knn_path_needs_one_ordering():
    rng = np.random.default_rng(6)
    n = 6
    model = GaussianSequenceModel(theta0=rng.standard_normal(n), sigma=1.0)
    a, b = rng.standard_normal((2, n, 2))
    one_set = SmootherFamily.of([knn_from_points("a", a, 3), knn_from_points("b", a, 1)])
    ctx = montecarlo._Context(one_set, model)
    assert _kernel(ctx) == "knn" and one_set.neighbours is not None
    assert not hasattr(ctx, "h_flat")  # no stack of member matrices
    two_sets = SmootherFamily.of([knn_from_points("a", a, 2), knn_from_points("b", b, 2)])
    mixed = SmootherFamily.of([knn_from_points("a", a, 2), from_matrix("i", np.eye(n))])
    with_krr = SmootherFamily.of([krr_from_gram("k", a @ a.T, 1.0), knn_from_points("a", a, 2)])
    for family in (two_sets, mixed, with_krr):
        ctx = montecarlo._Context(family, model)
        assert family.neighbours is None
        assert _kernel(ctx) == "dense" and ctx.h_flat.shape == (len(family) * n, n)


def test_spectral_path_needs_one_basis():
    rng = np.random.default_rng(5)
    n = 6
    model = GaussianSequenceModel(theta0=rng.standard_normal(n), sigma=1.0)
    grams = [a @ a.T for a in rng.standard_normal((2, n, n))]
    one_gram = SmootherFamily.of([krr_from_gram("a", grams[0], 1.0),
                                  krr_from_gram("b", grams[0], 2.0)])
    two_grams = SmootherFamily.of([krr_from_gram("a", grams[0], 1.0),
                                   krr_from_gram("b", grams[1], 1.0)])
    mixed = SmootherFamily.of([krr_from_gram("a", grams[0], 1.0), from_matrix("i", np.eye(n))])
    mixed_dense_first = SmootherFamily.of([from_matrix("i", np.eye(n)),
                                           krr_from_gram("a", grams[0], 1.0)])
    assert one_gram.basis is not None
    assert montecarlo._Context(one_gram, model).basis is one_gram.basis
    for family in (two_grams, mixed, mixed_dense_first, _dense_twin(one_gram)):
        ctx = montecarlo._Context(family, model)
        assert family.basis is None
        assert ctx.basis is None and ctx.h_flat.shape == (len(family) * n, n)


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
        one = one_row(family, model, noise_row(3, i, n), i)
        assert cols["replicate_index"][i] == one["replicate_index"] == i
        assert cols["selected"][i] == one["selected"] and cols["shell"][i] == one["shell"]
        for name in ("sure_min", "edf_total", "basic_inequality_slack"):
            assert cols[name][i] == pytest.approx(one[name], rel=1e-12)


def test_outputs_byte_identical_across_threads(monkeypatch):
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 8)  # let 3 workers really run
    n = 128
    projections = SmootherFamily.of([projection_from_design(f"p{m}", np.eye(n), list(range(m)))
                                     for m in (1, 2, 4, 8, 16, 32, 64, 128)])
    rng = np.random.default_rng(77)
    krr_grid = _krr_grid(rng, n, 10, singular=True)
    knn_grid = _knn_family(rng, n, range(1, 40, 2), d=1)

    def fresh_knn_grid():  # a new family a run, whose members form their matrices in it
        family = _knn_family(np.random.default_rng(78), n, range(1, 40, 2), d=2)
        assert not any("h" in vars(m) for m in family)
        return family

    model = GaussianSequenceModel(theta0=5.0 / np.arange(1, n + 1), sigma=1.0)
    n_reps = 1000
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # workers swap often: blocks must not mix
    try:
        for make, kernel in ((lambda: projections, "dense"), (lambda: krr_grid, "spectral"),
                             (lambda: knn_grid, "knn"), (fresh_knn_grid, "knn")):
            ctx = montecarlo._Context(make(), model)
            assert _kernel(ctx) == kernel
            assert n_reps % ctx.block_len != 0 and n_reps > 2 * ctx.block_len
            outputs = set()
            for threads in (1, 2, 3):
                summary, records = run_experiment(make(), model, n_reps, 77, n_threads=threads,
                                                  keep_records=True)
                outputs.add((json.dumps(summary.to_json_dict(), sort_keys=True),
                             csv_text(records)))
            assert len(outputs) == 1
    finally:
        sys.setswitchinterval(switch)


def test_outputs_byte_identical_across_threads_at_large_n():
    """At n where OpenBLAS splits a product over its threads (BLAS set to 2
    here), one worker and two write the same summary and records on every
    kernel: BLAS runs one thread for every run. Workers are bounded by the
    CPUs, so on a 1-CPU host both runs have one worker and this cannot fail."""
    n = 1000
    points = np.random.default_rng(31).standard_normal((n, 2))
    knn_grid = family_from_doc({"schema_version": 1, "n": n, "smoothers": [
        {"label": f"knn{k}", "kind": "knn", "parameters": {"points": points.tolist(), "k": k}}
        for k in range(1, 21)]})
    x = np.linspace(0.0, 1.0, n)
    gram = (np.exp(-0.5 * ((x[:, None] - x[None, :]) / 0.05) ** 2) + 1e-8 * np.eye(n)).tolist()
    krr_grid = family_from_doc({"schema_version": 1, "n": n, "smoothers": [
        {"label": f"k{i}", "kind": "krr", "parameters": {"gram": gram, "lambda": float(lam)}}
        for i, lam in enumerate(np.logspace(-3, 1, 8))]})
    rng = np.random.default_rng(32)
    explicit = SmootherFamily.of([from_matrix(f"m{i}", rng.standard_normal((500, 500)) / 500)
                                  for i in range(5)])
    get_threads, set_threads = montecarlo._blas_threads()
    before = get_threads()
    set_threads(2)
    try:
        for family, n_reps, kernel in ((knn_grid, 600, "knn"), (krr_grid, 300, "spectral"),
                                       (explicit, 300, "dense")):
            model = GaussianSequenceModel(
                theta0=make_theta0("poly_decay", family.n, alpha=1.0, scale=4.0), sigma=1.0)
            assert _kernel(montecarlo._Context(family, model)) == kernel
            outputs = set()
            for threads in (1, 2):
                summary, records = run_experiment(family, model, n_reps, 5, n_threads=threads,
                                                  keep_records=True)
                outputs.add((json.dumps(summary.to_json_dict(), sort_keys=True),
                             csv_text(records)))
            assert len(outputs) == 1, kernel
            assert get_threads() == 2
    finally:
        set_threads(before)


def test_workers_draw_noise_at_once(monkeypatch):
    """No lock around the noise: the first two draws of a 3-worker run each
    wait inside standard_normal_rows for the other, and the records are
    byte-identical at 1, 2 and 3 workers, with blocks that start inside a
    chunk of the noise."""
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 8)  # let 3 workers really run
    calls, count = [0], threading.Lock()
    both_inside = threading.Barrier(2, timeout=10)  # broken if the other never comes in
    draw = montecarlo.standard_normal_rows

    def meeting_draw(*args):
        with count:
            calls[0] += 1
            first_two = calls[0] <= 2
        if first_two:
            both_inside.wait()
        return draw(*args)

    monkeypatch.setattr(montecarlo, "standard_normal_rows", meeting_draw)
    n = 48
    family = SmootherFamily.of([from_matrix(f"m{i}", np.eye(n) * i / 4) for i in range(5)])
    model = GaussianSequenceModel(theta0=np.ones(n), sigma=1.0)
    block = montecarlo._Context(family, model).block_len
    assert block % (NOISE_CHUNK_FLOATS // n) != 0
    outputs = set()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # workers swap often: blocks must not mix
    try:
        for threads in (3, 2, 1):
            summary, records = run_experiment(family, model, 6 * block + 7, 3,
                                              n_threads=threads, keep_records=True)
            outputs.add((json.dumps(summary.to_json_dict(), sort_keys=True), csv_text(records)))
    finally:
        sys.setswitchinterval(switch)
    assert calls[0] == 3 * 7 and len(outputs) == 1


def test_families_of_one_n_and_seed_draw_the_same_noise():
    """A k-NN and a KRR family of one n, run on one model and seed with other
    block lengths, see the same draws: their columns of the noise alone are equal."""
    rng = np.random.default_rng(12)
    n = 100
    model = GaussianSequenceModel(theta0=rng.standard_normal(n), sigma=1.5)
    knn_grid = _knn_family(rng, n, range(1, 10, 2), d=1)
    krr_grid = _krr_grid(rng, n, 4, singular=False)
    lens = {montecarlo._Context(family, model).block_len for family in (knn_grid, krr_grid)}
    assert len(lens) == 2 and max(lens) < 1500
    columns = [run_experiment(family, model, 1500, 21, keep_records=True)[1].columns
               for family in (knn_grid, krr_grid)]
    for name in ("noise_sq_gap", "signal_cross"):
        assert np.array_equal(columns[0][name], columns[1][name]), name


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
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 4)
    block = montecarlo._Context(zero_id_family, model).block_len
    run_experiment(zero_id_family, model, 3 * block, 1, n_threads=10**6)  # 3 blocks
    run_experiment(zero_id_family, model, 10 * block, 1, n_threads=10**6)  # 4 CPUs
    run_experiment(zero_id_family, model, block, 1, n_threads=10**6)  # 1 block: 1 worker
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
    run_experiment(zero_id_family, model, 10 * block, 1, n_threads=10**6)  # 1 CPU: 1 worker
    assert RecordingPool.sizes == [3, 4, 1, 1]


def test_n_threads_none_runs_every_cpu(monkeypatch, zero_id_family, model):
    """n_threads=None drops the caller's cap; a given value is still checked."""
    RecordingPool.sizes = []
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 4)
    block = montecarlo._Context(zero_id_family, model).block_len
    run_experiment(zero_id_family, model, 10 * block, 1, n_threads=None)
    assert RecordingPool.sizes == [4]
    for bad in (0, True, 1.5):
        with pytest.raises(ValueError, match="n_threads"):
            run_experiment(zero_id_family, model, block, 1, n_threads=bad)


def test_blas_runs_one_thread_for_every_run(monkeypatch):
    """Every run, with two workers or one, pins BLAS to one thread and gives the
    count back afterwards, also when a block raises."""
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 8)  # let 2 workers really run
    get_threads, set_threads = montecarlo._blas_threads()
    seen, draw = set(), montecarlo.standard_normal_rows

    def recording_draw(*args):
        seen.add(get_threads())
        return draw(*args)

    monkeypatch.setattr(montecarlo, "standard_normal_rows", recording_draw)
    family, model = _knn_bench_shape()
    before = get_threads()
    set_threads(2)
    try:
        run_experiment(family, model, 1000, 4, n_threads=2)
        assert seen == {1} and get_threads() == 2
        seen.clear()
        run_experiment(family, model, 1000, 4, n_threads=1)
        assert seen == {1} and get_threads() == 2

        def failing_draw(*args):
            seen.add(get_threads())
            raise MemoryError

        seen.clear()
        monkeypatch.setattr(montecarlo, "standard_normal_rows", failing_draw)
        with pytest.raises(MemoryError):
            run_experiment(family, model, 1000, 4, n_threads=1)
        assert seen == {1} and get_threads() == 2
    finally:
        set_threads(before)


def test_no_blas_setter_runs_one_worker(monkeypatch, capsys, tmp_path, zero_id_family, model):
    """Where numpy bundles no OpenBLAS, the lookup finds no setter, says so once,
    and a run asked for three workers runs one."""
    RecordingPool.sizes = []
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 4)
    monkeypatch.setattr(montecarlo.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    block = montecarlo._Context(zero_id_family, model).block_len
    montecarlo._blas_threads.cache_clear()
    try:
        assert montecarlo._blas_threads() is None
        three, _ = run_experiment(zero_id_family, model, 3 * block, 1, n_threads=3)
        one, _ = run_experiment(zero_id_family, model, 3 * block, 1)
    finally:
        montecarlo._blas_threads.cache_clear()
    assert RecordingPool.sizes == [1, 1]
    assert capsys.readouterr().err.count("no OpenBLAS thread-count setter found") == 1
    assert three == one


def test_cpu_count_is_the_affinity_set(monkeypatch):
    """Workers are bounded by the CPUs this process may run on, not the host's:
    a container pinned to 1 CPU of an 8-CPU host runs one worker."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert montecarlo._cpu_count() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
    assert montecarlo._cpu_count() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: 1
    assert montecarlo._cpu_count() == 1


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
