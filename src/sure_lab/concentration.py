"""Numerical verification of sub-exponential MGF bounds and maxima moments.

Gaussian quadratic forms z^T A z (z standard normal) are sub-exponential with
parameters computable from A; this module evaluates those parameters, checks
the MGF bound on a lambda grid (preferring the exact chi-square-product oracle
over raw Monte Carlo when A is available in diagonalized form), and evaluates
the moment bounds for maxima of sub-Gaussian variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequence_model import derive_stream

__all__ = [
    "SubExpParams",
    "quadratic_form_params",
    "quadratic_form_sampler",
    "exact_quadratic_mgf",
    "MgfCheck",
    "verify_mgf_bound",
    "max_moment_bound",
    "verify_max_moment",
    "max_moment_bound_subexp",
]


@dataclass(frozen=True)
class SubExpParams:
    """(tau^2, b) sub-exponential parameters; b = 0 means sub-Gaussian."""

    tau_sq: float
    b: float

    def __post_init__(self):
        if self.tau_sq < 0:
            raise ValueError(f"tau_sq must be nonnegative, got {self.tau_sq}")
        if self.b < 0:
            raise ValueError(f"b must be nonnegative, got {self.b}")

    def mgf_bound(self, lam: float) -> float:
        """exp(lam^2 tau_sq / 2), valid for |lam| <= 1/b."""
        self.check_domain(lam)
        return math.exp(lam * lam * self.tau_sq / 2.0)

    def check_domain(self, lam: float) -> None:
        if self.b > 0 and abs(lam) * self.b > 1.0:
            raise ValueError(
                f"lambda {lam} outside sub-exponential domain |lambda| <= {1.0 / self.b}")


def _symmetric_part_spectrum(a: np.ndarray) -> np.ndarray:
    sym = 0.5 * (a + a.T)
    return np.linalg.eigvalsh(sym)


def quadratic_form_params(a) -> tuple[SubExpParams, SubExpParams]:
    """Both sub-exponential parameterizations of z^T A z for z ~ N(0, I).

    first:  (tr((A + A^T)^2), 2 ||A + A^T||_op)
    second: (||A||_F^2,       4 ||A||_op)
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    doubled = a + a.T
    first = SubExpParams(
        tau_sq=float(np.sum(doubled * doubled)),  # tr(M^2) = ||M||_F^2 for symmetric M
        b=2.0 * float(np.linalg.norm(doubled, 2)),
    )
    second = SubExpParams(
        tau_sq=float(np.sum(a * a)),
        b=4.0 * float(np.linalg.norm(a, 2)),
    )
    return first, second


def quadratic_form_sampler(a):
    """Sampler for the centered quadratic form X = z^T A z - tr(A)."""
    a = np.asarray(a, dtype=float)
    eigs = _symmetric_part_spectrum(a)

    def draw(n_samples: int, rng: np.random.Generator) -> np.ndarray:
        z_sq = rng.standard_normal((int(n_samples), eigs.size)) ** 2
        return (z_sq - 1.0) @ eigs

    return draw


def exact_quadratic_mgf(eigs, lam: float) -> float:
    """Exact MGF of sum_i d_i (z_i^2 - 1): prod_i e^{-lam d_i}/sqrt(1 - 2 lam d_i)."""
    eigs = np.asarray(eigs, dtype=float)
    shifted = 1.0 - 2.0 * lam * eigs
    if np.any(shifted <= 0):
        raise ValueError(f"MGF diverges at lambda = {lam} for eigenvalues {eigs}")
    return float(np.exp(-lam * np.sum(eigs) - 0.5 * np.sum(np.log(shifted))))


@dataclass(frozen=True)
class MgfCheck:
    """One lambda point of an MGF verification run."""

    lam: float
    estimate: float
    stderr: float  # 0 on the exact-oracle path
    bound: float
    passed: bool
    method: str  # "mc" or "exact"


def verify_mgf_bound(sampler, params: SubExpParams, lambda_grid, n_samples: int,
                     master_seed: int = 0, slack: float = 0.0,
                     exact_eigs=None) -> list[MgfCheck]:
    """Check E[e^{lam X}] <= exp(lam^2 tau^2 / 2) on a lambda grid.

    A point passes when estimate <= bound * (1 + slack) + 4 * stderr. When
    exact_eigs is given (diagonalized quadratic form), the closed-form
    chi-square product replaces sampling and stderr is zero. Lambdas outside
    |lam| <= 1/b raise; grids should stay below the boundary (0.95/b).
    """
    if slack < 0:
        raise ValueError(f"slack must be nonnegative, got {slack}")
    n_samples = int(n_samples)
    if exact_eigs is None and n_samples < 10**4:
        raise ValueError(f"n_samples must be >= 10^4 for MC verification, got {n_samples}")
    for lam in lambda_grid:
        params.check_domain(float(lam))

    if exact_eigs is None:
        rng = derive_stream(master_seed, 0)
        draws = sampler(n_samples, rng)
    checks = []
    for lam in lambda_grid:
        lam = float(lam)
        bound = params.mgf_bound(lam)
        if exact_eigs is not None:
            estimate = exact_quadratic_mgf(exact_eigs, lam)
            stderr = 0.0
            method = "exact"
        else:
            values = np.exp(lam * draws)
            estimate = float(np.mean(values))
            stderr = float(np.std(values, ddof=1) / np.sqrt(n_samples))
            method = "mc"
        checks.append(MgfCheck(
            lam=lam,
            estimate=estimate,
            stderr=stderr,
            bound=bound,
            passed=estimate <= bound * (1.0 + slack) + 4.0 * stderr,
            method=method,
        ))
    return checks


def max_moment_bound(n_vars: int, k: float, tau: float) -> float:
    """Moment bound 2 tau^k max{(2 log N)^{k/2}, k^{k/2}} for sub-Gaussian maxima."""
    n_vars = int(n_vars)
    if n_vars < 1:
        raise ValueError(f"n_vars must be >= 1, got {n_vars}")
    k = float(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    try:
        bound = 2.0 * tau**k * max((2.0 * math.log(n_vars)) ** (k / 2.0), k ** (k / 2.0))
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError(f"moment bound for k={k}, tau={tau} exceeds the float range")
    return bound


def verify_max_moment(n_vars: int, k: float, tau: float, n_samples: int,
                      master_seed: int = 0):
    """Monte Carlo check of the sub-Gaussian maxima moment bound.

    Estimates E[max_i |X_i|^k] for X_i i.i.d. N(0, tau^2); passes when
    estimate - 4 * stderr <= bound. Returns (empirical, bound, passed).
    """
    bound = max_moment_bound(n_vars, k, tau)
    rng = derive_stream(master_seed, 0)
    draws = tau * rng.standard_normal((int(n_samples), int(n_vars)))
    maxima = np.max(np.abs(draws), axis=1) ** float(k)
    empirical = float(np.mean(maxima))
    stderr = float(np.std(maxima, ddof=1) / np.sqrt(maxima.size))
    return empirical, bound, empirical - 4.0 * stderr <= bound


def max_moment_bound_subexp(n_vars: int, k: float, params: SubExpParams,
                            c_test: float) -> float:
    """Sub-exponential maxima scale
    c * max{sqrt(tau^2 log N), b log N, sqrt(tau^2 k), b k}.

    The constant is caller-supplied (default choice for smoke tests: 10).
    """
    if c_test <= 0:
        raise ValueError(f"c_test must be positive, got {c_test}")
    k = float(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_vars = int(n_vars)
    if n_vars < 1:
        raise ValueError(f"n_vars must be >= 1, got {n_vars}")
    log_n = math.log(n_vars)
    tau_sq, b = params.tau_sq, params.b
    return c_test * max(
        math.sqrt(tau_sq * log_n),
        b * log_n,
        math.sqrt(tau_sq * k),
        b * k,
    )
