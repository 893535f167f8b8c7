"""Acceptance suite: one test per advertised guarantee, one printed line each.

Each test prints `[PASS]`/`[FAIL] <name>: <detail>` before asserting, so a
`pytest -s` run gives a one-line verdict per criterion. Expensive Monte Carlo
experiments are shared through a module-scoped cache.
"""

import json
import math
import time

import numpy as np
import pytest

from sure_lab import (
    GaussianSequenceModel,
    SmootherFamily,
    edf_bound,
    from_matrix,
    knn_from_points,
    knn_opnorm_bound,
    krr_from_gram,
    make_theta0,
    projection_from_design,
    quadratic_form_params,
    quadratic_form_sampler,
    run_experiment,
    shell_decay_report,
    sure,
    sure_identity_residual,
    sure_unbiasedness_check,
    verify_max_moment,
    verify_mgf_bound,
)
from sure_lab.cli import main as cli_main

SEED = 20240817


def _verdict(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def coordinate_projection(n: int, m: int) -> "Smoother":
    return projection_from_design(f"proj{m}", np.eye(n), list(range(m)))


def _model(n, sigma, kind, **params):
    return GaussianSequenceModel(theta0=make_theta0(kind, n, **params), sigma=sigma)


# ---------------------------------------------------------------------------
# Shared experiment cache. Values are (family, model, n_reps).
# ---------------------------------------------------------------------------

def _experiment_defs():
    defs = {}

    defs["pair_zero_identity"] = (
        SmootherFamily.of([from_matrix("zero", np.zeros((2, 2))),
                           from_matrix("identity", np.eye(2))]),
        _model(2, 1.0, "sparse", k=1, amplitude=1.0),
        10**5)

    n = 20
    defs["nested_projections"] = (
        SmootherFamily.of([coordinate_projection(n, m) for m in range(2, 21, 2)]),
        _model(n, 1.0, "poly_decay", alpha=1.0, scale=5.0),
        10**5)

    defs["singleton_projection"] = (
        SmootherFamily.of([coordinate_projection(8, 3)]),
        _model(8, 1.0, "sparse", k=2, amplitude=3.0),
        10**5)

    defs["null_signal"] = (
        SmootherFamily.of([from_matrix("zero", np.zeros((4, 4))),
                           from_matrix("half", 0.5 * np.eye(4)),
                           coordinate_projection(4, 2),
                           from_matrix("identity", np.eye(4))]),
        _model(4, 1.0, "zero"),
        10**5)

    # Unbiased projections with risks m in {1,2,3,4,6,8,12,16}: the risk gaps
    # m - 1 land in dyadic shells 0,1,1,2,2,3,3,4.
    n = 16
    defs["shell_ladder"] = (
        SmootherFamily.of([coordinate_projection(n, m)
                           for m in (1, 2, 3, 4, 6, 8, 12, 16)]),
        _model(n, 1.0, "sparse", k=1, amplitude=4.0),
        10**5)
    return defs


EXPERIMENT_DEFS = _experiment_defs()


@pytest.fixture(scope="module")
def experiments():
    cache = {}

    def get(name):
        if name not in cache:
            family, model, n_reps = EXPERIMENT_DEFS[name]
            cache[name] = run_experiment(family, model, n_reps, SEED, n_threads=4)
        return cache[name]

    return get


# ---------------------------------------------------------------------------
# 1. SURE identity on randomized families
# ---------------------------------------------------------------------------

def _random_smoother(rng, n, which, label):
    if which == 0:
        h = rng.normal(size=(n, n)) / math.sqrt(n)
        return from_matrix(label, h)
    if which == 1:
        design = rng.normal(size=(n, n))
        m = int(rng.integers(1, n + 1))
        return projection_from_design(label, design, list(range(m)))
    if which == 2:
        a = rng.normal(size=(n, n))
        gram = a @ a.T
        return krr_from_gram(label, gram, float(rng.uniform(0.01, 10.0)))
    points = rng.normal(size=(n, 2))
    k = int(rng.integers(1, n + 1))
    return knn_from_points(label, points, k)


def test_sure_identity_randomized_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    n_cases = 0
    worst = 0.0
    for _ in range(250):
        n = int(rng.integers(2, 21))
        members = [_random_smoother(rng, n, int(rng.integers(0, 4)), f"s{i}")
                   for i in range(int(rng.integers(1, 11)))]
        family = SmootherFamily.of(members)
        sigma = float(rng.uniform(0.1, 3.0))
        theta0 = rng.normal(scale=rng.uniform(0.0, 5.0), size=n)
        model = GaussianSequenceModel(theta0=theta0, sigma=sigma)
        for _ in range(4):
            z = sigma * rng.standard_normal(n)
            for member in family.members:
                resid = abs(sure_identity_residual(member, model, z))
                scale = 1.0 + abs(sure(member, model.theta0 + z, sigma)) / model.sigma_sq
                worst = max(worst, resid / scale)
                assert resid <= 1e-8 * scale
            n_cases += 1
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-8 and n_cases == 1000 and elapsed < 10.0
    _verdict("sure_identity_suite", passed,
             f"{n_cases} cases, worst relative residual {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Basic inequality holds on every replicate
# ---------------------------------------------------------------------------

def test_basic_inequality_suite(experiments):
    start = time.perf_counter()
    rates = {name: experiments(name)[0].identity_pass_rates["basic_inequality"]
             for name in ("pair_zero_identity", "nested_projections")}
    elapsed = time.perf_counter() - start
    passed = all(rate == 1.0 for rate in rates.values())
    _verdict("basic_inequality_suite", passed,
             f"pass rates {rates} over 10^5 replicates each, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. edf decomposition on every replicate of every experiment
# ---------------------------------------------------------------------------

def test_edf_decomposition_everywhere(experiments):
    rates = {name: experiments(name)[0].identity_pass_rates["edf_decomposition"]
             for name in EXPERIMENT_DEFS}
    passed = all(rate == 1.0 for rate in rates.values())
    _verdict("edf_decomposition", passed,
             f"quadratic+linear split exact on all replicates: {rates}")


# ---------------------------------------------------------------------------
# 4. SURE unbiasedness for fixed smoothers
# ---------------------------------------------------------------------------

UNBIASEDNESS_PAIRS = [
    ("zero", from_matrix("zero", np.zeros((5, 5))),
     _model(5, 1.0, "sparse", k=2, amplitude=2.0)),
    ("identity", from_matrix("identity", np.eye(5)),
     _model(5, 2.0, "constant", value=1.0)),
    ("projection", coordinate_projection(10, 4),
     _model(10, 1.0, "poly_decay", alpha=1.5, scale=3.0)),
    ("krr", krr_from_gram("krr", np.diag([4.0, 2.0, 1.0, 0.5]), 1.0),
     _model(4, 0.5, "constant", value=2.0)),
    ("knn", knn_from_points("knn", np.arange(6.0).reshape(-1, 1), 2),
     _model(6, 1.0, "sparse", k=3, amplitude=1.0)),
]


def test_sure_unbiasedness_pairs():
    start = time.perf_counter()
    scores = {}
    for name, smoother, model in UNBIASEDNESS_PAIRS:
        _, _, z_score = sure_unbiasedness_check(smoother, model, 10**5, SEED)
        scores[name] = round(z_score, 3)
    elapsed = time.perf_counter() - start
    passed = all(abs(z) <= 4.0 for z in scores.values()) and elapsed < 60.0
    _verdict("sure_unbiasedness", passed,
             f"z-scores {scores} at 10^5 replicates, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Fixed smoother has zero excess degrees of freedom
# ---------------------------------------------------------------------------

def test_zero_edf_singleton(experiments):
    summary, _ = experiments("singleton_projection")
    est = summary.estimates["edf_total"]
    passed = abs(est["mean"]) <= 4.0 * est["stderr"]
    _verdict("zero_edf_fixed_smoother", passed,
             f"mean edf {est['mean']:.5f} +- {est['stderr']:.5f} (singleton family)")


# ---------------------------------------------------------------------------
# 6. Excess-optimism / edf linkage
# ---------------------------------------------------------------------------

def test_exopt_edf_linkage(experiments):
    # The exact per-replicate identity carries a signal cross term
    # -2 theta0^T z with mean zero; it vanishes identically when theta0 = 0.
    rates = {name: experiments(name)[0].identity_pass_rates["exopt_linkage"]
             for name in EXPERIMENT_DEFS}
    exact_ok = all(rate == 1.0 for rate in rates.values())

    null_summary, _ = experiments("null_signal")
    gap = null_summary.estimates["noise_sq_gap"]
    gap_ok = abs(gap["mean"]) <= 4.0 * gap["stderr"]

    passed = exact_ok and gap_ok
    _verdict("exopt_edf_linkage", passed,
             f"identity pass rates {rates}; mean(n sigma^2 - |z|^2) = "
             f"{gap['mean']:.5f} +- {gap['stderr']:.5f}")


def test_exopt_linkage_literal_under_null(experiments):
    # With theta0 = 0 the linkage reduces to
    # exopt_stat = 2 sigma^2 edf_total + (n sigma^2 - |z|^2) exactly.
    family, model, _ = EXPERIMENT_DEFS["null_signal"]
    summary, _ = experiments("null_signal")
    assert np.all(model.theta0 == 0.0)
    assert summary.identity_pass_rates["exopt_linkage"] == 1.0


# ---------------------------------------------------------------------------
# 7. edf bound ratio over a configuration grid
# ---------------------------------------------------------------------------

def _projection_grid(n, size, k):
    grid = np.unique(np.rint(np.linspace(1, n, size)).astype(int))
    assert grid.size == size
    if k not in grid:
        grid[np.argmin(np.abs(grid - k))] = k
    return sorted(set(grid.tolist()))


def test_edf_bound_ratio_grid():
    start = time.perf_counter()
    n = 128
    ratios = {}
    for size in (2, 8, 32):
        for k in (1, 10, 50, 100):
            members = [coordinate_projection(n, m)
                       for m in _projection_grid(n, size, k)]
            family = SmootherFamily.of(members)
            model = _model(n, 1.0, "sparse", k=k, amplitude=10.0)
            summary, _ = run_experiment(family, model, 10**4, SEED, n_threads=4)
            assert summary.r_star == pytest.approx(float(k))
            bound = edf_bound(summary.r_star, len(family), summary.h_op)
            ratio = summary.estimates["edf_total"]["mean"] / bound
            assert math.isfinite(ratio)
            ratios[(size, k)] = round(ratio, 4)
    elapsed = time.perf_counter() - start
    worst = max(ratios.values())
    # Ceiling of 10 on the ratio is a test constant, not a derived value.
    passed = worst <= 10.0 and elapsed < 600.0
    _verdict("edf_bound_ratio_grid", passed,
             f"{len(ratios)} configurations, max ratio {worst:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Shell occupancy decays
# ---------------------------------------------------------------------------

def test_shell_decay(experiments):
    summary, _ = experiments("shell_ladder")
    family, model, _ = EXPERIMENT_DEFS["shell_ladder"]
    report = shell_decay_report(summary, family, model)
    occupied = [row["shell"] for row in report.rows if row["members"] > 0]
    freqs = {row["shell"]: row["frequency"] for row in report.rows}
    passed = report.nonincreasing and len(occupied) >= 3
    _verdict("shell_decay", passed,
             f"{len(occupied)} occupied shells, frequencies {freqs}, "
             f"violations {report.violations}")


# ---------------------------------------------------------------------------
# 9. Quadratic-form MGF battery
# ---------------------------------------------------------------------------

def test_mgf_battery():
    # Exact chi-square oracle checks on diagonal forms.
    exact_cases = [np.eye(2), np.diag([1.0, 2.0, 3.0]), np.diag([0.5, -1.5])]
    exact_checks = []
    for a in exact_cases:
        first, _ = quadratic_form_params(a)
        lam_max = 0.9 / first.b
        eigs = np.linalg.eigvalsh(0.5 * (a + a.T))
        exact_checks += verify_mgf_bound(
            None, first, [-lam_max, -0.4 * lam_max, 0.4 * lam_max, lam_max],
            n_samples=0, exact_eigs=eigs)
    i2_check = verify_mgf_bound(None, quadratic_form_params(np.eye(2))[0],
                                [0.1], n_samples=0, exact_eigs=[1.0, 1.0])[0]
    assert i2_check.estimate == pytest.approx(1.023414, abs=1e-6)
    assert i2_check.bound == pytest.approx(1.040811, abs=1e-6)

    # Monte Carlo checks on random matrices, sampled through the same
    # quadratic-form contract.
    rng = np.random.default_rng(SEED)
    mc_checks = []
    for i in range(20):
        dim = int(rng.integers(2, 6))
        a = rng.normal(size=(dim, dim))
        first, _ = quadratic_form_params(a)
        lam_max = 0.9 / first.b
        mc_checks += verify_mgf_bound(
            quadratic_form_sampler(a), first,
            [-lam_max, -0.5 * lam_max, 0.1 * lam_max, 0.5 * lam_max, lam_max],
            n_samples=5 * 10**4, master_seed=SEED + i)
    all_checks = exact_checks + [i2_check] + mc_checks
    n_pass = sum(c.passed for c in all_checks)
    passed = n_pass == len(all_checks)
    _verdict("quadratic_mgf_battery", passed,
             f"{n_pass}/{len(all_checks)} grid points "
             f"({len(exact_checks) + 1} exact, {len(mc_checks)} Monte Carlo)")


# ---------------------------------------------------------------------------
# 10. Sub-Gaussian maxima moment battery
# ---------------------------------------------------------------------------

def test_max_moment_battery():
    results = {}
    for n_vars in (1, 10, 100):
        for k in (1, 2, 4):
            for tau in (1.0, 2.0):
                empirical, bound, ok = verify_max_moment(
                    n_vars, k, tau, n_samples=10**5, master_seed=SEED)
                results[(n_vars, k, tau)] = ok
                assert ok, (n_vars, k, tau, empirical, bound)
    passed = all(results.values())
    _verdict("max_moment_battery", passed,
             f"{sum(results.values())}/{len(results)} (N, k, tau) combinations")


# ---------------------------------------------------------------------------
# 11. k-NN structure: exact Frobenius norm and spectral ceiling
# ---------------------------------------------------------------------------

def test_knn_structure():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for n in range(1, 101):
        points = rng.normal(size=(n, 1))
        for k in range(1, n + 1):
            sm = knn_from_points("knn", points, k)
            assert sm.frob_sq == n / k

    bound_ok = 0
    for _ in range(50):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, n + 1))
        points = rng.normal(size=(n, int(rng.integers(1, 4))))
        sm = knn_from_points("knn", points, k)
        if sm.opnorm <= knn_opnorm_bound(sm, k) + 1e-10:
            bound_ok += 1
    elapsed = time.perf_counter() - start
    passed = bound_ok == 50
    _verdict("knn_structure", passed,
             f"frob_sq == n/k on all 5050 (n, k) pairs; spectral bound held on "
             f"{bound_ok}/50 random point sets, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 12. Thread-count determinism of the CLI
# ---------------------------------------------------------------------------

def test_cli_determinism(tmp_path):
    config = {
        "schema_version": 1,
        "model": {"n": 8, "sigma": 1.0,
                  "theta0": {"kind": "poly_decay", "alpha": 1.0, "scale": 2.0}},
        "family": {"smoothers": [
            {"label": f"proj{m}", "kind": "projection",
             "parameters": {"p": 8, "design": np.eye(8).ravel().tolist(),
                            "subset": list(range(m))}}
            for m in (1, 2, 4, 8)
        ]},
        "n_reps": 2000,
        "master_seed": SEED,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"summary_t{threads}.json"
        code = cli_main(["simulate", "--config", str(cfg_path),
                         "--threads", threads, "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    passed = outs[0] == outs[1]
    _verdict("cli_determinism", passed,
             f"summaries byte-identical across 1 and 8 threads "
             f"({len(outs[0])} bytes)")
