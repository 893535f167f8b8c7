import math

import numpy as np
import pytest

from sure_lab import (
    SubExpParams,
    exact_quadratic_mgf,
    max_moment_bound,
    max_moment_bound_subexp,
    quadratic_form_params,
    quadratic_form_sampler,
    verify_max_moment,
    verify_mgf_bound,
)


def test_quadratic_form_params_identity():
    first, second = quadratic_form_params(np.eye(2))
    assert (first.tau_sq, first.b) == (8.0, 4.0)
    assert (second.tau_sq, second.b) == (2.0, 4.0)


def test_quadratic_form_params_antisymmetric():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    first, _ = quadratic_form_params(a)
    assert (first.tau_sq, first.b) == (0.0, 0.0)  # z^T A z is identically zero


def test_quadratic_form_params_shift():
    first, _ = quadratic_form_params([[0.0, 1.0], [0.0, 0.0]])
    assert first.tau_sq == pytest.approx(2.0)
    assert first.b == pytest.approx(2.0)


def test_first_param_dominated_by_frobenius():
    rng = np.random.default_rng(21)
    for _ in range(30):
        a = rng.standard_normal((int(rng.integers(1, 9)),) * 2)
        first, _ = quadratic_form_params(a)
        assert first.tau_sq <= 4.0 * np.sum(a * a) + 1e-9


def test_exact_mgf_chi_square_example():
    # centered chi^2_2 at lambda = 0.1: e^{-0.2}/(1 - 0.2)
    value = exact_quadratic_mgf([1.0, 1.0], 0.1)
    assert value == pytest.approx(math.exp(-0.2) / 0.8, rel=1e-12)
    assert value <= math.exp(0.01 * 8.0 / 2.0)
    assert exact_quadratic_mgf([1.0, 1.0], 0.0) == 1.0


def test_exact_mgf_divergence():
    with pytest.raises(ValueError):
        exact_quadratic_mgf([1.0], 0.6)


def test_verify_mgf_domain_enforcement():
    params = SubExpParams(tau_sq=8.0, b=4.0)
    with pytest.raises(ValueError):
        verify_mgf_bound(None, params, [0.3], 10**4, exact_eigs=np.ones(2))


def test_verify_mgf_exact_path():
    params, _ = quadratic_form_params(np.eye(2))
    checks = verify_mgf_bound(None, params, [0.1, 0.0, -0.1], 10**4,
                              exact_eigs=np.ones(2))
    assert all(c.passed for c in checks)
    lam0 = next(c for c in checks if c.lam == 0.0)
    assert lam0.estimate == 1.0 and lam0.bound == 1.0


def test_verify_mgf_mc_matches_exact_for_diagonal():
    a = np.diag([1.5, -0.5, 0.25])
    params, _ = quadratic_form_params(a)
    grid = [0.5 / params.b, -0.5 / params.b]
    mc = verify_mgf_bound(quadratic_form_sampler(a), params, grid, 2 * 10**5,
                          master_seed=5)
    for check in mc:
        exact = exact_quadratic_mgf(np.diag(a), check.lam)
        assert abs(check.estimate - exact) <= 4.0 * check.stderr


def test_verify_mgf_random_matrices_grid():
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = rng.standard_normal((4, 4))
        params, _ = quadratic_form_params(a)
        grid = [f / params.b for f in (0.9, 0.5, 0.1, -0.1, -0.5, -0.9)] + [0.0]
        checks = verify_mgf_bound(quadratic_form_sampler(a), params, grid, 10**5,
                                  master_seed=101, slack=0.0)
        assert all(c.passed for c in checks)


def test_verify_mgf_validation():
    params = SubExpParams(tau_sq=1.0, b=0.0)
    with pytest.raises(ValueError):
        verify_mgf_bound(lambda n, rng: np.zeros(n), params, [0.1], 100)  # too few samples
    with pytest.raises(ValueError):
        verify_mgf_bound(None, params, [0.1], 10**4, slack=-1.0, exact_eigs=[1.0])


def test_max_moment_bound_examples():
    assert max_moment_bound(1, 2, 1.0) == 4.0
    assert max_moment_bound(10, 1, 1.0) == pytest.approx(2.0 * math.sqrt(2.0 * math.log(10)))
    expected = 32.0 * (2.0 * math.log(10)) ** 2
    assert max_moment_bound(10, 4, 2.0) == pytest.approx(expected)


def test_max_moment_bound_beyond_float_range():
    for k, tau in ((1e308, 1.0), (300.0, 1.0), (1.0, 1e308)):
        with pytest.raises(ValueError, match="float range"):
            max_moment_bound(10, k, tau)


def test_max_moment_bound_monotone():
    grid_n = [1, 3, 10, 100]
    grid_k = [1.0, 2.0, 4.0]
    grid_tau = [0.5, 1.0, 2.0]
    for k in grid_k:
        for tau in grid_tau:
            vals = [max_moment_bound(n, k, tau) for n in grid_n]
            assert vals == sorted(vals)
    for n in grid_n:
        # monotone in k requires tau >= 1; tau^k shrinks faster otherwise
        for tau in [t for t in grid_tau if t >= 1.0]:
            vals = [max_moment_bound(n, k, tau) for k in grid_k]
            assert vals == sorted(vals)
        for k in grid_k:
            vals = [max_moment_bound(n, k, tau) for tau in grid_tau]
            assert vals == sorted(vals)


def test_verify_max_moment_single_gaussian():
    empirical, bound, passed = verify_max_moment(1, 2, 1.0, 10**5, master_seed=3)
    assert empirical == pytest.approx(1.0, abs=0.05)  # E[X^2] = tau^2
    assert bound == 4.0
    assert passed


def test_verify_max_moment_examples():
    empirical, bound, passed = verify_max_moment(10, 1, 1.0, 10**5, master_seed=4)
    assert passed and empirical <= bound
    empirical, bound, passed = verify_max_moment(100, 2, 1.0, 10**5, master_seed=4)
    assert passed
    assert bound == pytest.approx(4.0 * math.log(100))


def test_max_moment_bound_subexp_examples():
    assert max_moment_bound_subexp(1, 1, SubExpParams(1.0, 0.0), 1.0) == 1.0
    # max{sqrt(log 55), log 55, sqrt(2), 2}: the b log N term, log 55 ~ 4.007
    assert max_moment_bound_subexp(55, 2, SubExpParams(1.0, 1.0), 1.0) == math.log(55)
    # b = 0 reduces to the sub-Gaussian scale sqrt(tau_sq * max{log N, k})
    sub_gauss = max_moment_bound_subexp(10, 3, SubExpParams(2.0, 0.0), 1.0)
    assert sub_gauss == pytest.approx(math.sqrt(2.0 * max(math.log(10), 3.0)))


def test_subexp_params_validation():
    with pytest.raises(ValueError):
        SubExpParams(tau_sq=-1.0, b=0.0)
    with pytest.raises(ValueError):
        SubExpParams(tau_sq=1.0, b=-1.0)
