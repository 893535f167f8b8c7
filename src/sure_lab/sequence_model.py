"""Gaussian sequence model: truth vectors, noise sampling, seeded streams.

The simulator observes y = theta0 + z with z ~ N(0, sigma^2 I) and, unlike a
real analyst, keeps the realized noise z around so that exact per-replicate
identities can be checked downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _validate as validate

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
        if not (sigma > 0 and np.finfo(float).tiny <= sigma * sigma < np.inf):
            raise ValueError("sigma must be positive with sigma^2 a normal float (about "
                             f"1.5e-154 to 1.3e+154), got {self.sigma!r}")
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


# Parameters of each theta0 kind; all are required.
_THETA0_PARAMETERS = {"zero": (), "constant": ("value",), "sparse": ("k", "amplitude"),
                      "poly_decay": ("alpha", "scale"), "explicit": ("values",)}


def make_theta0(kind: str, n: int, **params) -> np.ndarray:
    """Build a standard truth vector of length n.

    Supported kinds and parameters:
      zero                      -- all zeros
      constant   (value)        -- all entries equal to value
      sparse     (k, amplitude) -- amplitude in the first k coordinates, 0 after
      poly_decay (alpha, scale) -- entry i (1-based) equals scale * i**(-alpha)
      explicit   (values)       -- given vector, must have length n
    """
    n = validate.integer(n, "n", 1)
    validate.string(kind, "theta0 kind", _THETA0_PARAMETERS)
    validate.obj(params, f"theta0 kind {kind!r}", _THETA0_PARAMETERS[kind])
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, validate.number(params["value"], "theta0.value"))
    if kind == "sparse":
        k = validate.integer(params["k"], "theta0.k", 0, n)
        out = np.zeros(n)
        out[:k] = validate.number(params["amplitude"], "theta0.amplitude")
        return out
    if kind == "poly_decay":
        alpha = validate.number(params["alpha"], "theta0.alpha", positive=True)
        idx = np.arange(1, n + 1, dtype=float)
        return validate.number(params["scale"], "theta0.scale") * idx ** (-alpha)
    return validate.array(params["values"], "theta0.values", (n,))


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
