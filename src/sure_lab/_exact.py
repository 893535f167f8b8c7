"""Exact references for the tuned edf of SURE, from `math` alone.

Each function is E[edf] of SURE tuning at sigma = 1 over a family whose
selection has a closed form, so the acceptance tests can hold the engine's
Monte Carlo means to it. Quadratures are Simpson's rule on smooth integrands
(a kink, where there is one, is a node). Private: nothing here is exported.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)


def _simpson(f, a: float, b: float, steps: int) -> float:
    """Simpson's rule for f on [a, b] with an even number of steps."""
    h = (b - a) / steps
    total = f(a) + f(b) + sum((4.0 if i % 2 else 2.0) * f(a + i * h) for i in range(1, steps))
    return total * h / 3.0


def _phi(x: float) -> float:
    return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)


def _poisson_sum(x: float, a: float, count: int) -> float:
    """e^{-x} sum_{j < count} x^{a+j} / Gamma(a+j+1) for x > 0.

    The terms are summed relative to the largest, whose logarithm carries
    e^{-x}, so no term underflows where e^{-x} alone does (x > 745). They
    fall geometrically on both sides of it, and the walk stops once they no
    longer add to the sum."""
    if count == 0:
        return 0.0
    top = min(count - 1, max(0, math.floor(x - a)))  # term j / term j-1 = x / (a + j)
    total = term = 1.0
    for j in range(top, 0, -1):
        term *= (a + j) / x
        if total + term == total:
            break
        total += term
    term = 1.0
    for j in range(top + 1, count):
        term *= x / (a + j)
        if total + term == total:
            break
        total += term
    return math.exp(-x + (a + top) * math.log(x) - math.lgamma(a + top + 1.0)) * total


def chi2_sf_even(r: int, t: float) -> float:
    """P(chi^2_r > t) for even r: e^{-t/2} sum_{i < r/2} (t/2)^i / i!."""
    return _poisson_sum(t / 2.0, 0.0, r // 2) if t > 0.0 else 1.0


def chi2_cdf(r: int, t: float) -> float:
    """P(chi^2_r <= t) for an integer r >= 1: 1 minus a Poisson sum for even r,
    and erf(sqrt(t/2)) minus the half-integer sum e^{-t/2} sum_{j < (r-1)/2}
    (t/2)^{j+1/2} / Gamma(j + 3/2) for odd r. Both are differences of
    numbers near 1 in the left tail, so the error is absolute: within 2e-12
    of scipy's for r up to 4097."""
    if t <= 0.0:
        return 0.0
    if r % 2 == 0:
        return 1.0 - chi2_sf_even(r, t)
    return math.erf(math.sqrt(t / 2.0)) - _poisson_sum(t / 2.0, 0.5, r // 2)


def block_edf(r: int, m: int, steps: int = 6000) -> float:
    """E[edf] of SURE tuning over the projections onto m disjoint coordinate
    blocks of size r, at theta0 = 0: E[max of m i.i.d. chi^2_r] - r =
    int_0^inf (1 - F_r(t)^m) dt - r.

    SURE(b) = ||y||^2 - ||P_b y||^2 + 2r selects the block with the largest
    chi^2_r, whose edf is ||P_b z||^2 - r. The integral is taken in s =
    sqrt(t), where the integrand is smooth for every r, up to t = r + 40
    sqrt(r) + 80, past which 1 - F_r(t)^m is below m 1e-27. r = 1 is the
    singletons."""
    def f(s):
        return 2.0 * s * (1.0 - chi2_cdf(r, s * s) ** m)

    return _simpson(f, 0.0, math.sqrt(r + 40.0 * math.sqrt(r) + 80.0), steps) - r


def singleton_edf(n: int) -> float:
    """E[edf] of SURE tuning over the n singletons e_i e_i^T at theta0 = 0:
    SURE(i) = ||y||^2 - y_i^2 + 2 selects argmax_i y_i^2, so E[edf] =
    E[max_i z_i^2] - 1, the block witness with r = 1."""
    return block_edf(1, n)


def singletons_edf(theta0, steps: int = 6000, z_max: float = 12.0) -> float:
    """E[edf] of SURE tuning over the singletons e_i e_i^T at any theta0:

        sum_i int phi(z) z (theta_i + z) prod_{k != i} P(|y_k| < |theta_i + z|) dz - 1.

    SURE selects J = argmax_i |y_i|, and E[z_J y_J] sums, over i, z_i y_i
    times the chance that every other |y_k| is below |y_i|. Each integral is
    taken on [-z_max, z_max] in two pieces split at the kink z = -theta_i."""
    theta0 = [float(t) for t in theta0]
    total = 0.0
    for i, th in enumerate(theta0):
        others = theta0[:i] + theta0[i + 1:]

        def f(z, th=th, others=others):
            a = abs(th + z)
            below = math.prod(0.5 * (math.erf((a - t) / _SQRT2) + math.erf((a + t) / _SQRT2))
                              for t in others)
            return _phi(z) * z * (th + z) * below

        kink = min(max(-th, -z_max), z_max)
        total += _simpson(f, -z_max, kink, steps // 2) + _simpson(f, kink, z_max, steps // 2)
    return total - 1.0


def nested_projection_edf(n: int, with_zero: bool = False) -> float:
    """E[edf] of SURE tuning over the nested coordinate projections P_1..P_n
    (P_0..P_n `with_zero`) at theta0 = 0: sum_{k=1}^{n-1} (to n with P_0)
    k^{k/2} e^{-k} / Gamma(k/2 + 1).

    SURE(k) = ||y||^2 - sum_{i<=k} y_i^2 + 2k selects the argmax k^ of the
    random walk S_k = sum_{i<=k} (z_i^2 - 2), and edf = S_k^ + k^. Spitzer's
    identity E[max S] = sum_k E[S_k^+] / k and Sparre Andersen's theorem
    E[k^] = sum_k P(S_k > 0) combine to sum_k [P(chi^2_{k+2} > 2k) -
    P(chi^2_k > 2k)], which is the series by Q(a+1, x) - Q(a, x) =
    x^a e^{-x} / Gamma(a+1), with k up to n when P_0 (S_0 = 0) is a member.
    Without P_0 the walk's first step is always taken; its mean edf is 0,
    and the walk from there has n - 1 steps.
    """
    return sum(math.exp(k / 2.0 * math.log(k) - k - math.lgamma(k / 2.0 + 1.0))
               for k in range(1, n + 1 if with_zero else n))


def all_subsets_edf(theta0, t: float = _SQRT2) -> float:
    """E[edf] of SURE tuning over all 2^n diagonal 0/1 masks at sigma = 1:
    sum_i t (phi(t - theta_i) + phi(t + theta_i)), t = sqrt(2).

    SURE(D) = sum_{i not in D} y_i^2 + 2 |D| keeps coordinate i iff y_i^2 > 2,
    hard thresholding at t, and Stein's lemma on y_i 1{|y_i| > t} gives each
    coordinate's term (Donoho & Johnstone, JASA 1995)."""
    return sum(t * (_phi(t - th) + _phi(t + th)) for th in theta0)
