"""Gaussian sequence model: truth vectors, noise sampling, seeded streams.

The simulator observes y = theta0 + z with z ~ N(0, sigma^2 I) and, unlike a
real analyst, keeps the realized noise z around so that exact per-replicate
identities can be checked downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianSequenceModel",
    "Observation",
    "make_theta0",
    "derive_stream",
    "standard_normal_rows",
    "sample",
]


@dataclass(frozen=True)
class GaussianSequenceModel:
    """Signal vector theta0 plus known noise standard deviation sigma."""

    theta0: np.ndarray
    sigma: float

    def __post_init__(self):
        theta0 = np.array(self.theta0, dtype=float, copy=True).reshape(-1)
        if theta0.size < 1:
            raise ValueError("theta0 must have length >= 1")
        if not np.all(np.isfinite(theta0)):
            raise ValueError("theta0 entries must be finite")
        sigma = float(self.sigma)
        if not (np.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be a positive finite real, got {self.sigma!r}")
        theta0.setflags(write=False)
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return self.theta0.size

    @property
    def sigma_sq(self) -> float:
        return self.sigma * self.sigma


@dataclass(frozen=True)
class Observation:
    """One draw y = theta0 + z, with the realized noise retained."""

    y: np.ndarray
    z: np.ndarray


_THETA0_KINDS = ("zero", "constant", "sparse", "poly_decay", "explicit")


def make_theta0(kind: str, n: int, **params) -> np.ndarray:
    """Build a standard truth vector of length n.

    Supported kinds and parameters:
      zero                      -- all zeros
      constant   (value)        -- all entries equal to value
      sparse     (k, amplitude) -- amplitude in the first k coordinates, 0 after
      poly_decay (alpha, scale) -- entry i (1-based) equals scale * i**(-alpha)
      explicit   (values)       -- given vector, must have length n
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if kind not in _THETA0_KINDS:
        raise ValueError(f"unknown theta0 kind {kind!r}; expected one of {_THETA0_KINDS}")

    def _take(*names):
        missing = [name for name in names if name not in params]
        if missing:
            raise ValueError(f"theta0 kind {kind!r} requires parameters {missing}")
        extra = set(params) - set(names)
        if extra:
            raise ValueError(f"theta0 kind {kind!r} got unexpected parameters {sorted(extra)}")
        return [params[name] for name in names]

    if kind == "zero":
        _take()
        return np.zeros(n)
    if kind == "constant":
        (value,) = _take("value")
        return np.full(n, float(value))
    if kind == "sparse":
        k, amplitude = _take("k", "amplitude")
        k = int(k)
        if not 0 <= k <= n:
            raise ValueError(f"sparse theta0 requires 0 <= k <= n, got k={k}, n={n}")
        out = np.zeros(n)
        out[:k] = float(amplitude)
        return out
    if kind == "poly_decay":
        alpha, scale = _take("alpha", "scale")
        alpha = float(alpha)
        if alpha <= 0:
            raise ValueError(f"poly_decay requires alpha > 0, got {alpha}")
        idx = np.arange(1, n + 1, dtype=float)
        return float(scale) * idx ** (-alpha)
    # explicit
    (values,) = _take("values")
    out = np.asarray(values, dtype=float).reshape(-1)
    if out.size != n:
        raise ValueError(f"explicit theta0 has length {out.size}, expected {n}")
    return out


_MASK64 = 2**64 - 1


def _philox(master_seed: int, replicate_index: int) -> np.random.Philox:
    master_seed = int(master_seed)
    replicate_index = int(replicate_index)
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed}")
    if replicate_index < 0:
        raise ValueError(f"replicate_index must be >= 0, got {replicate_index}")
    return np.random.Philox(key=master_seed, counter=replicate_index << 64)


def derive_stream(master_seed: int, replicate_index: int) -> np.random.Generator:
    """Counter-based stream for one replicate.

    Uses Philox keyed on the master seed with the counter offset by the
    replicate index, so streams are collision-free and replicate i's noise
    never depends on execution order or worker scheduling. Gaussian draws use
    numpy's ziggurat standard_normal; golden outputs are stable within this
    repo, while cross-implementation comparisons should be statistical.
    """
    return np.random.Generator(_philox(master_seed, replicate_index))


def standard_normal_rows(master_seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Standard normal rows for replicates start..stop-1, shape (stop - start, n).

    Row k is bit-identical to derive_stream(master_seed, start + k)
    .standard_normal(n). One Philox generator serves the whole range: before
    each row its counter is reset to (replicate index) << 64 with an empty
    output buffer, which is the state a fresh derive_stream starts from and
    costs a fraction of building one.
    """
    bitgen = _philox(master_seed, start)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    counter = state["state"]["counter"]
    out = np.empty((max(0, stop - start), n))
    for row, index in enumerate(range(start, stop)):
        counter[1:] = (index & _MASK64, (index >> 64) & _MASK64, index >> 128)
        bitgen.state = state
        gen.standard_normal(out=out[row])
    return out


def sample(model: GaussianSequenceModel, stream: np.random.Generator) -> Observation:
    """Draw one observation y = theta0 + z with z ~ N(0, sigma^2 I)."""
    z = model.sigma * stream.standard_normal(model.n)
    return Observation(y=model.theta0 + z, z=z)
