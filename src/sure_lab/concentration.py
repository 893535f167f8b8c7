"""Numerical verification of sub-exponential MGF bounds and maxima moments.

A Gaussian quadratic form z^T A z (z standard normal) is, once centered, the
weighted chi-square sum sum_i d_i (z_i^2 - 1) over the spectrum d of
(A + A^T)/2, so the spectrum is the one input of the MGF layer: it gives the
sub-exponential parameters, the exact chi-square-product MGF and the Monte
Carlo draws. The module also evaluates the moment bounds for maxima of
sub-Gaussian variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _validate as validate
from .sequence_model import derive_stream

__all__ = [
    "SubExpParams",
    "quadratic_form_spectrum",
    "quadratic_form_params",
    "exact_quadratic_mgf",
    "MgfCheck",
    "verify_mgf_bound",
    "max_moment_bound",
    "verify_max_moment",
]


@dataclass(frozen=True)
class SubExpParams:
    """(tau^2, b) sub-exponential parameters; b = 0 means sub-Gaussian."""

    tau_sq: float
    b: float

    def __post_init__(self):
        validate.number(self.tau_sq, "tau_sq", 0)
        validate.number(self.b, "b", 0)

    @classmethod
    def from_spectrum(cls, eigs) -> SubExpParams:
        """(tau^2, b) = (4 sum d^2, 4 max|d|) of sum_i d_i (z_i^2 - 1); for the
        spectrum d of (A + A^T)/2 these are tr((A + A^T)^2) and 2 ||A + A^T||_op."""
        d = validate.array(eigs, "eigs").reshape(-1)
        return cls(tau_sq=4.0 * float(d @ d), b=4.0 * float(np.max(np.abs(d), initial=0.0)))

    def mgf_bound(self, lam: float) -> float:
        """exp(lam^2 tau_sq / 2), valid for |lam| <= 1/b."""
        self.check_domain(lam)
        return math.exp(lam * lam * self.tau_sq / 2.0)

    def check_domain(self, lam: float) -> None:
        if self.b > 0 and abs(lam) * self.b > 1.0:
            raise ValueError(
                f"lambda {lam} outside sub-exponential domain |lambda| <= {1.0 / self.b}")


def quadratic_form_spectrum(a) -> np.ndarray:
    """The eigenvalues d of (A + A^T)/2: z^T A z - tr(A) has the law of
    sum_i d_i (z_i^2 - 1), z ~ N(0, I), so d is all the MGF layer takes."""
    a = validate.finite_matrix(a, "a")
    return np.linalg.eigvalsh(0.5 * (a + a.T))


def quadratic_form_params(a) -> SubExpParams:
    """Sub-exponential (tau^2, b) of z^T A z, z ~ N(0, I), from its spectrum."""
    return SubExpParams.from_spectrum(quadratic_form_spectrum(a))


def exact_quadratic_mgf(eigs, lam: float) -> float:
    """Exact MGF of sum_i d_i (z_i^2 - 1): prod_i e^{-lam d_i}/sqrt(1 - 2 lam d_i)."""
    eigs = validate.array(eigs, "eigs")
    lam = validate.number(lam, "lam")
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


def verify_mgf_bound(eigs, lambda_grid, n_samples=None, master_seed: int = 0,
                     slack: float = 0.0, stream: int = 0) -> list[MgfCheck]:
    """Check E[e^{lam X}] <= exp(lam^2 tau^2 / 2) on a lambda grid, for
    X = sum_i d_i (z_i^2 - 1) with d = eigs and (tau^2, b) from the same d.

    Without n_samples the estimate is the exact chi-square product and its
    stderr is zero; with n_samples it is the mean of e^{lam X} over that many
    draws (z^2 - 1) @ eigs from derive_stream(master_seed, stream). A point
    passes when estimate <= bound * (1 + slack) + 4 * stderr. Lambdas outside
    |lam| <= 1/b raise; grids should stay below the boundary (0.95/b).
    """
    eigs = validate.array(eigs, "eigs").reshape(-1)
    params = SubExpParams.from_spectrum(eigs)
    slack = validate.number(slack, "slack", 0)
    lambda_grid = validate.array(lambda_grid, "lambda_grid").reshape(-1).tolist()
    for lam in lambda_grid:
        params.check_domain(lam)

    if n_samples is not None:
        n_samples = validate.integer(n_samples, "n_samples", 10**4)
        z_sq = derive_stream(master_seed, stream).standard_normal((n_samples, eigs.size)) ** 2
        draws = (z_sq - 1.0) @ eigs
    checks = []
    for lam in lambda_grid:
        bound = params.mgf_bound(lam)
        if n_samples is None:
            estimate, stderr, method = exact_quadratic_mgf(eigs, lam), 0.0, "exact"
        else:
            values = np.exp(lam * draws)
            estimate = float(np.mean(values))
            stderr = float(np.std(values, ddof=1) / np.sqrt(n_samples))
            method = "mc"
        checks.append(MgfCheck(lam=lam, estimate=estimate, stderr=stderr, bound=bound,
                               passed=estimate <= bound * (1.0 + slack) + 4.0 * stderr,
                               method=method))
    return checks


def max_moment_bound(n_vars: int, k: float, tau: float) -> float:
    """Moment bound 2 tau^k max{(2 log N)^{k/2}, k^{k/2}} for sub-Gaussian maxima."""
    n_vars = validate.integer(n_vars, "n_vars", 1)
    k = validate.number(k, "k", 1)
    tau = validate.number(tau, "tau", validate.POSITIVE)
    try:
        bound = 2.0 * tau**k * max((2.0 * math.log(n_vars)) ** (k / 2.0), k ** (k / 2.0))
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError(f"moment bound for k={k}, tau={tau} exceeds the float range")
    return bound


def verify_max_moment(n_vars: int, k: float, tau: float, n_samples: int,
                      master_seed: int = 0, stream: int = 0):
    """Monte Carlo check of the sub-Gaussian maxima moment bound.

    Estimates E[max_i |X_i|^k] for X_i i.i.d. N(0, tau^2) from
    derive_stream(master_seed, stream); passes when estimate - 4 * stderr <=
    bound. Returns (empirical, bound, passed).
    """
    bound = max_moment_bound(n_vars, k, tau)
    n_samples = validate.integer(n_samples, "n_samples", 2)  # a stderr needs two
    rng = derive_stream(master_seed, stream)
    draws = tau * rng.standard_normal((n_samples, int(n_vars)))
    maxima = np.max(np.abs(draws), axis=1) ** float(k)
    empirical = float(np.mean(maxima))
    stderr = float(np.std(maxima, ddof=1) / np.sqrt(maxima.size))
    return empirical, bound, empirical - 4.0 * stderr <= bound
