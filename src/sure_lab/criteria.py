"""Risk, SURE, selection rules, centered variables, shells, and bound formulas.

All functions are pure. The centered-variable and shell machinery exists so
that the Monte Carlo layer can check exact per-replicate identities rather
than expectation-level statements only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _validate as validate
from .sequence_model import GaussianSequenceModel
from .smoothers import Smoother, SmootherFamily

__all__ = [
    "SelectionReport",
    "CenteredVariables",
    "risk",
    "risk_from",
    "sure",
    "oracle_select",
    "sure_select",
    "centered_variables",
    "sure_identity_residual",
    "r_star",
    "shell_indices",
    "edf_bound",
    "DegenerateFamilyError",
]


class DegenerateFamilyError(ValueError):
    """Raised when shell machinery is requested with r_star <= 0."""


@dataclass(frozen=True)
class SelectionReport:
    """Criterion values per label and the argmin (earliest label on ties)."""

    per_label_values: dict
    selected: str
    criterion: str


@dataclass(frozen=True)
class CenteredVariables:
    """Quadratic (w) and linear (zlin) centered variables of one smoother."""

    w: float
    zlin: float


def _check_dim(smoother: Smoother, n: int) -> None:
    if smoother.n != n:
        raise ValueError(
            f"smoother {smoother.label!r} has dimension {smoother.n}, expected {n}")


def risk(smoother: Smoother, model: GaussianSequenceModel) -> float:
    """Exact risk ||(I - H) theta0||^2 + sigma^2 ||H||_F^2; no sampling. A risk
    beyond the float range is inf."""
    _check_dim(smoother, model.n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in the risk
        bias = model.theta0 - smoother.apply(model.theta0)
    return risk_from(bias, smoother.frob_sq, model.sigma_sq)


def risk_from(bias, frob_sq: float, sigma_sq: float) -> float:
    """||bias||^2 + sigma^2 ||H||_F^2: the risk of a member with ||H||_F^2 = frob_sq
    and bias = (I - H) theta0, in any orthonormal coordinates."""
    with np.errstate(over="ignore"):
        return float(bias @ bias) + sigma_sq * frob_sq


def sure(smoother: Smoother, y, sigma: float) -> float:
    """SURE value ||y - Hy||^2 + 2 sigma^2 tr(H); note tr(H), not ||H||_F^2."""
    y = validate.array(y, "y").reshape(-1)
    sigma = validate.number(sigma, "sigma", validate.POSITIVE)
    _check_dim(smoother, y.size)
    resid = y - smoother.apply(y)
    return float(resid @ resid) + 2.0 * sigma**2 * smoother.df


def _argmin_report(family: SmootherFamily, values, criterion: str) -> SelectionReport:
    return SelectionReport(
        per_label_values={m.label: float(v) for m, v in zip(family.members, values)},
        selected=family.members[int(np.argmin(values))].label,  # ties: earliest label
        criterion=criterion,
    )


def oracle_select(family: SmootherFamily, model: GaussianSequenceModel) -> SelectionReport:
    """Select the member minimizing true risk (known-truth oracle)."""
    return _argmin_report(family, [risk(m, model) for m in family.members], "risk")


def sure_select(family: SmootherFamily, y, sigma: float) -> SelectionReport:
    """Select the member minimizing SURE on the realized observation."""
    return _argmin_report(family, [sure(m, y, sigma) for m in family.members], "sure")


def centered_variables(smoother: Smoother, model: GaussianSequenceModel, z) -> CenteredVariables:
    """Centered quadratic/linear variables of one smoother at realized noise z.

    w    = z^T (2H - H^T H) z / sigma^2 + ||H||_F^2 - 2 tr(H)
    zlin = theta0^T (H - I)^T (I - H) z / sigma^2
    """
    z = validate.array(z, "z").reshape(-1)
    _check_dim(smoother, z.size)
    if z.size != model.n:
        raise ValueError(f"noise vector has length {z.size}, expected {model.n}")
    s2 = model.sigma_sq
    hz = smoother.apply(z)
    w = (2.0 * float(z @ hz) - float(hz @ hz)) / s2 + smoother.frob_sq - 2.0 * smoother.df
    bias = model.theta0 - smoother.apply(model.theta0)
    zlin = -float(bias @ (z - hz)) / s2
    return CenteredVariables(w=w, zlin=zlin)


def sure_identity_residual(smoother: Smoother, model: GaussianSequenceModel, z) -> float:
    """Residual of the exact decomposition of SURE into risk and centered terms.

    Checks SURE(s)/sigma^2 = R(s)/sigma^2 + ||z||^2/sigma^2 - w - 2 zlin,
    returning LHS - RHS (zero up to floating-point roundoff).
    """
    z = validate.array(z, "z").reshape(-1)
    s2 = model.sigma_sq
    lhs = sure(smoother, model.theta0 + z, model.sigma) / s2
    cv = centered_variables(smoother, model, z)
    rhs = risk(smoother, model) / s2 + float(z @ z) / s2 - cv.w - 2.0 * cv.zlin
    return lhs - rhs


def r_star(family: SmootherFamily, model: GaussianSequenceModel) -> float:
    """Minimal valid normalized oracle risk, min_s R(s) / sigma^2."""
    return min(risk(m, model) for m in family.members) / model.sigma_sq


def shell_indices(risks, sigma_sq: float, r_star_value: float) -> np.ndarray:
    """Dyadic shell of every entry of a risk vector: the unique l >= 0 with
    R - min R in [(2^l - 1), (2^{l+1} - 1)) * sigma^2 * r_star.

    Half-open on the right, so the shells partition the vector, and the
    minimum (the oracle member of a family's risks) lands in shell 0.
    """
    if r_star_value <= 0:
        raise DegenerateFamilyError(
            f"shell decomposition requires r_star > 0, got {r_star_value}")
    risks = validate.array(risks, "risks", infinite=True)  # an overflowed risk raises below
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        ratio = (risks - risks.min()) / (sigma_sq * r_star_value) + 1.0
    if not np.all(np.isfinite(ratio)):
        raise ValueError(f"shell ratios are not finite at r_star = {r_star_value!r}: "
                         "a risk overflows or r_star is too small")
    # ratio = m 2^e with m in [0.5, 1), so floor(log2(ratio)) = e - 1 exactly
    return (np.frexp(ratio)[1] - 1).astype(int)


def edf_bound(r_star_value: float, family_size: int, h_op: float) -> float:
    """Closed-form excess-degrees-of-freedom bound expression
    sqrt(r* log|S|) + h_op log|S| (1 + log_+(h_op^2 log|S| / r*)),
    excluding any universal constant.
    """
    family_size = validate.integer(family_size, "family_size", 1)
    r_star_value = validate.number(r_star_value, "r_star_value", validate.POSITIVE)
    h_op = validate.number(h_op, "h_op", 1)
    log_s = math.log(family_size)
    if log_s == 0.0:
        return 0.0
    log_plus = max(0.0, math.log(h_op * h_op * log_s / r_star_value))
    return math.sqrt(r_star_value * log_s) + h_op * log_s * (1.0 + log_plus)
