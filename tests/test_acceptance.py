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
    risk,
    run_experiment,
    shell_indices,
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
    family, model, n_reps = EXPERIMENT_DEFS["shell_ladder"]
    risks = [risk(m, model) for m in family.members]
    members = np.bincount(shell_indices(risks, model.sigma_sq, summary.r_star))
    occupied = np.flatnonzero(members).tolist()
    # an empty shell has frequency 0
    freqs = [summary.shell_histogram.get(str(l), 0) / n_reps for l in range(len(members))]
    first = next((l for l, f in enumerate(freqs) if f > 0), len(freqs))
    violations = [l for l in range(first + 1, len(freqs)) if freqs[l] > freqs[l - 1]]
    passed = not violations and len(occupied) >= 3
    _verdict("shell_decay", passed,
             f"{len(occupied)} occupied shells, frequencies {dict(enumerate(freqs))}, "
             f"violations {violations}")


# ---------------------------------------------------------------------------
# 9. Quadratic-form MGF battery
# ---------------------------------------------------------------------------

def test_mgf_battery():
    # Exact chi-square oracle checks on diagonal forms.
    exact_cases = [np.eye(2), np.diag([1.0, 2.0, 3.0]), np.diag([0.5, -1.5])]
    exact_checks = []
    for a in exact_cases:
        first = quadratic_form_params(a)
        lam_max = 0.9 / first.b
        eigs = np.linalg.eigvalsh(0.5 * (a + a.T))
        exact_checks += verify_mgf_bound(
            None, first, [-lam_max, -0.4 * lam_max, 0.4 * lam_max, lam_max],
            n_samples=0, exact_eigs=eigs)
    i2_check = verify_mgf_bound(None, quadratic_form_params(np.eye(2)),
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
        first = quadratic_form_params(a)
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
        if sm.opnorm <= knn_opnorm_bound(sm) + 1e-10:
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


# ---------------------------------------------------------------------------
# 13. Tuned edf against exact references
# ---------------------------------------------------------------------------

# A Monte Carlo mean passes when it lies within Z_BAND of its standard errors
# of the exact value: at |z| <= 4 a correct engine fails one check in about
# 16 000, and a wrong formula off by 0.1 edf fails at these replicate counts.
Z_BAND = 4.0


def _exact_singleton_edf(n: int, steps: int = 6000, s_max: float = 12.0) -> float:
    """E[edf] of SURE tuning over the n singletons e_i e_i^T at theta0 = 0, sigma = 1.

    SURE(i) = ||y||^2 - y_i^2 + 2 selects argmax_i y_i^2, so E[edf] =
    E[max_i z_i^2] - 1 = int_0^inf (1 - erf(sqrt(t/2))^n) dt - 1, here by
    Simpson's rule in s = sqrt(t) (smooth integrand; the tail past s_max is
    below 1e-30).
    """
    h = s_max / steps

    def f(s):
        return 2.0 * s * (1.0 - math.erf(s / math.sqrt(2.0)) ** n)

    total = f(0.0) + f(s_max) + sum((4.0 if i % 2 else 2.0) * f(i * h) for i in range(1, steps))
    return total * h / 3.0 - 1.0


def _chi2_sf_even(m: int, x: float) -> float:
    """P(chi^2_m > x) for even m: e^{-x/2} sum_{i < m/2} (x/2)^i / i!."""
    return math.exp(-x / 2.0) * sum((x / 2.0) ** i / math.factorial(i) for i in range(m // 2))


def test_erratum_witness(tmp_path):
    """The erratum corrects the excess-degrees-of-freedom bound of Tibshirani &
    Rosset (JASA 2019) for SURE-tuned linear estimators; `bounds.edf.bound` is
    the corrected form sqrt(r* log|S|) + h_op log|S| (1 + log_+(h_op^2 log|S| / r*)).
    On the singletons e_i e_i^T at theta0 = 0, sigma = 1, r* = h_op = 1 for
    every n while the tuned edf grows like 2 log n: edf / sqrt(r* log|S|) more
    than doubles from n = 4 to 64, so no bound of that order alone holds, and
    edf / bound stays near 0.488."""
    exact, estimate, stderr, bound = {}, {}, {}, {}
    for n in (4, 16, 64):
        config = {
            "schema_version": 2,
            "model": {"n": n, "sigma": 1.0, "theta0": {"kind": "zero"}},
            "family": {"smoothers": [
                {"label": f"e{i}", "kind": "projection",
                 "parameters": {"p": n, "design": np.eye(n).ravel().tolist(), "subset": [i]}}
                for i in range(n)]},
            "n_reps": 20_000,
            "master_seed": SEED,
        }
        cfg_path, out = tmp_path / f"singletons{n}.json", tmp_path / f"summary{n}.json"
        cfg_path.write_text(json.dumps(config))
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        edf = doc["bounds"]["edf"]
        assert doc["summary"]["r_star"] == 1.0 and edf["h_op_effective"] == 1.0
        exact[n] = _exact_singleton_edf(n)
        estimate[n], stderr[n], bound[n] = edf["estimate"], edf["stderr"], edf["bound"]
        assert edf["ratio"] == estimate[n] / bound[n]

    z = {n: (estimate[n] - exact[n]) / stderr[n] for n in exact}
    # edf / sqrt(r* log|S|), r* = 1: exact 1.249 at n = 4 and 2.900 at n = 64;
    # the Monte Carlo reading takes each estimate at the unfavourable end of its band
    growth = {n: exact[n] / math.sqrt(math.log(n)) for n in exact}
    mc_doubles = ((estimate[64] - Z_BAND * stderr[64]) / math.sqrt(math.log(64))
                  > 2.0 * (estimate[4] + Z_BAND * stderr[4]) / math.sqrt(math.log(4)))
    # every n's edf / bound inside the exact ratios' range (0.487-0.489),
    # widened by Z_BAND of the widest standard error in ratio units
    exact_ratio = [exact[n] / bound[n] for n in exact]
    slack = Z_BAND * max(stderr[n] / bound[n] for n in exact)
    band = (min(exact_ratio) - slack, max(exact_ratio) + slack)
    ratio = {n: estimate[n] / bound[n] for n in exact}
    passed = (all(abs(v) <= Z_BAND for v in z.values()) and growth[64] > 2.0 * growth[4]
              and mc_doubles and all(band[0] <= r <= band[1] for r in ratio.values()))
    _verdict("erratum_witness", passed,
             "; ".join(f"n={n}: edf {estimate[n]:.4f} +- {stderr[n]:.4f} vs exact "
                       f"{exact[n]:.4f} (z {z[n]:+.2f}), edf/bound {ratio[n]:.4f}" for n in exact)
             + f"; exact edf/sqrt(log|S|) {growth[4]:.3f} -> {growth[64]:.3f}, "
               f"band {band[0]:.3f}-{band[1]:.3f}")


def test_zero_identity_exact_edf():
    """{0, I} at theta0 = 0: SURE selects I iff ||y||^2 > 2 n sigma^2, where the
    edf is ||z||^2 / sigma^2 - n, so E[edf] = n [P(chi^2_{n+2} > 2n) - P(chi^2_n > 2n)]."""
    assert math.isclose(2 * (_chi2_sf_even(4, 4.0) - _chi2_sf_even(2, 4.0)), 4.0 * math.exp(-2.0))
    details, passed = [], True
    for n in (2, 4, 8):
        family = SmootherFamily.of([from_matrix("zero", np.zeros((n, n))),
                                    from_matrix("identity", np.eye(n))])
        summary, _ = run_experiment(family, _model(n, 1.0, "zero"), 10**5, SEED)
        est = summary.estimates["edf_total"]
        exact = n * (_chi2_sf_even(n + 2, 2.0 * n) - _chi2_sf_even(n, 2.0 * n))
        z = (est["mean"] - exact) / est["stderr"]
        passed &= abs(z) <= Z_BAND
        details.append(f"n={n}: edf {est['mean']:.4f} +- {est['stderr']:.4f} vs exact "
                       f"{exact:.4f} (z {z:+.2f})")
    _verdict("zero_identity_exact_edf", passed, "; ".join(details))


def _nested_projection_edf(n: int) -> float:
    """E[edf] of SURE tuning over the nested coordinate projections P_1..P_n at
    theta0 = 0, sigma = 1: sum_{k=1}^{n-1} k^{k/2} e^{-k} / Gamma(k/2 + 1).

    SURE(k) = ||y||^2 - sum_{i<=k} y_i^2 + 2k selects the argmax k^ of the
    random walk S_k = sum_{i<=k} (z_i^2 - 2), and edf = S_k^ + k^. Spitzer's
    identity E[max S] = sum_k E[S_k^+] / k and Sparre Andersen's theorem
    E[k^] = sum_k P(S_k > 0) combine to sum_{k<n} [P(chi^2_{k+2} > 2k) -
    P(chi^2_k > 2k)], which is the series by Q(a+1, x) - Q(a, x) =
    x^a e^{-x} / Gamma(a+1).
    """
    return sum(math.exp(k / 2.0 * math.log(k) - k - math.lgamma(k / 2.0 + 1.0))
               for k in range(1, n))


def test_nested_projections_exact_edf():
    """Tuning an ordered family is nearly free: the tuned edf of P_1..P_n at
    theta0 = 0 rises to a finite limit, 1.62524, while the corrected bound grows
    without limit (r* = 1). The terms decay like (2/e)^{k/2} / sqrt(pi k)."""
    exact = {n: _nested_projection_edf(n) for n in (4, 8, 16)}
    assert [round(exact[n], 4) for n in exact] == [0.8804, 1.3006, 1.5514]
    assert round(_nested_projection_edf(200), 5) == 1.62524
    details, passed = [], True
    for n in exact:
        family = SmootherFamily.of([coordinate_projection(n, m) for m in range(1, n + 1)])
        summary, _ = run_experiment(family, _model(n, 1.0, "zero"), 20_000, SEED)
        est = summary.estimates["edf_total"]
        z = (est["mean"] - exact[n]) / est["stderr"]
        passed &= abs(z) <= Z_BAND
        details.append(f"n={n}: edf {est['mean']:.4f} +- {est['stderr']:.4f} vs exact "
                       f"{exact[n]:.4f} (z {z:+.2f})")
    _verdict("nested_projections_exact_edf", passed, "; ".join(details))


def _all_subsets_edf(theta0, t: float = math.sqrt(2.0)) -> float:
    """E[edf] of SURE tuning over all 2^n diagonal 0/1 masks at sigma = 1:
    sum_i t (phi(t - theta_i) + phi(t + theta_i)), t = sqrt(2).

    SURE(D) = sum_{i not in D} y_i^2 + 2 |D| keeps coordinate i iff y_i^2 > 2,
    hard thresholding at t, and Stein's lemma on y_i 1{|y_i| > t} gives each
    coordinate's term (Donoho & Johnstone, JASA 1995)."""
    def phi(x):
        return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)

    return sum(t * (phi(t - th) + phi(t + th)) for th in theta0)


def test_all_subsets_exact_edf():
    """Tuning an unordered menu pays: over all 2^n coordinate subsets at
    theta0 = linspace(0, 3, n), the tuned edf is the hard-thresholding series,
    exactly, within Z_BAND of the Monte Carlo mean."""
    theta0 = {n: np.linspace(0.0, 3.0, n) for n in (4, 8)}
    exact = {n: _all_subsets_edf(theta0[n].tolist()) for n in theta0}
    assert [round(exact[n], 4) for n in exact] == [1.6009, 3.3924]
    details, passed = [], True
    for n in exact:
        family = SmootherFamily.of(
            [from_matrix(f"{mask:0{n}b}", np.diag([(mask >> i) & 1 for i in range(n)]))
             for mask in range(2 ** n)])
        model = GaussianSequenceModel(theta0=theta0[n], sigma=1.0)
        summary, _ = run_experiment(family, model, 20_000, SEED)
        est = summary.estimates["edf_total"]
        z = (est["mean"] - exact[n]) / est["stderr"]
        passed &= abs(z) <= Z_BAND
        details.append(f"n={n}: edf {est['mean']:.4f} +- {est['stderr']:.4f} vs exact "
                       f"{exact[n]:.4f} (z {z:+.2f})")
    _verdict("all_subsets_exact_edf", passed, "; ".join(details))
