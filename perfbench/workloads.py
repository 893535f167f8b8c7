"""Seeded experiment configs for the benchmark workloads.

The program sees only the JSON files written here. A seed changes the signal,
the KRR points and Gram matrix and the master seed, but not the amount of
work: KRR points are stratified (one uniform draw per cell of a regular
grid), so the spectrum of the Gram matrix, and with it the number of
power-iteration steps in `smoothers.operator_norm`, barely moves between
seeds. Independent uniform points changed that step count by +-40 % from
seed to seed.

The k-NN points are one fixed stratified layout for every seed. Over twelve
layouts the k-NN family took 0.8 to 8.5 s to build, the difference being
power-iteration steps, and on about one layout in 25 `operator_norm` gives up on a
member. The fixed layout builds in about the median time; the traced run
probes a failing layout, so that defect shows as a count instead of
depending on the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = 1

# Gaussian-kernel bandwidth of the KRR workload, on points in [0, 1].
KRR_BANDWIDTH = 0.1
# The grid starts at 1e-2 because smaller lambdas make the power iteration of
# `operator_norm` give up on this Gram matrix; the traced run probes this
# lambda separately so the defect shows as `smoothers.build_failed`.
KRR_LAMBDA_RANGE = (1e-2, 1e2)
KRR_PROBE_LAMBDA = 1e-3
KNN_LAYOUT_SEED = (9, 2)
KNN_PROBE_K = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: family shape, replicate count and records."""

    name: str
    kind: str  # "knn" or "krr"
    n: int
    members: int
    n_reps: int
    records: bool


# Why each workload is in the benchmark is in BENCHMARK.json. Both run at
# --threads nproc.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("knn_n200", "knn", n=200, members=20, n_reps=6_000, records=True),
        Workload("krr_grid", "krr", n=200, members=24, n_reps=2_000, records=False),
    )
}


def _stratified_points(rng, n):
    return (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n


def gaussian_gram(points):
    diff = points[:, None] - points[None, :]
    return np.exp(-diff * diff / (2.0 * KRR_BANDWIDTH**2))


def knn_probe_points():
    """A stratified 200-point layout on which `operator_norm` gives up for
    the k-NN smoother with k = KNN_PROBE_K."""
    rng = np.random.default_rng([107, 0])
    rng.uniform(size=2)
    return _stratified_points(rng, 200)


def _krr_points(seed, n):
    # Own stream, so the traced run can rebuild the same Gram matrix.
    return _stratified_points(np.random.default_rng([seed, 1]), n)


def krr_gram(seed, n):
    """The Gram matrix the krr workload embeds for this seed."""
    return gaussian_gram(_krr_points(seed, n))


def _smoother(label, kind, **parameters):
    return {"label": label, "kind": kind, "parameters": parameters}


def experiment_doc(workload: Workload, seed: int) -> dict:
    """The experiment config of `workload` for `seed` (deterministic)."""
    rng = np.random.default_rng([seed, 0])
    n = workload.n
    if workload.kind == "knn":
        theta0 = {"kind": "poly_decay", "alpha": float(rng.uniform(0.5, 1.5)),
                  "scale": float(rng.uniform(2.0, 6.0))}
        layout = _stratified_points(np.random.default_rng(KNN_LAYOUT_SEED), n)
        points = [[float(p)] for p in layout]
        smoothers = [_smoother(f"knn_k{k}", "knn", points=points, k=k)
                     for k in range(1, 2 * workload.members, 2)]
    elif workload.kind == "krr":
        x = _krr_points(seed, n)
        freq = float(rng.uniform(1.0, 3.0))
        theta0 = {"kind": "explicit",
                  "values": (3.0 * np.sin(2.0 * np.pi * freq * x)).tolist()}
        gram = gaussian_gram(x).reshape(-1).tolist()
        lambdas = np.logspace(np.log10(KRR_LAMBDA_RANGE[0]), np.log10(KRR_LAMBDA_RANGE[1]),
                              workload.members)
        smoothers = [_smoother(f"krr_{i:02d}", "krr", gram=gram, **{"lambda": float(lam)})
                     for i, lam in enumerate(lambdas)]
    else:
        raise ValueError(f"unknown workload kind {workload.kind!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "model": {"n": n, "sigma": 1.0, "theta0": theta0},
        "family": {"smoothers": smoothers},
        "n_reps": workload.n_reps,
        "master_seed": int(rng.integers(0, 2**63)),
    }


WARMUP_DOC = {
    "schema_version": SCHEMA_VERSION,
    "model": {"n": 8, "sigma": 1.0, "theta0": {"kind": "sparse", "k": 2, "amplitude": 1.0}},
    "family": {"smoothers": [
        _smoother("zero", "zero"),
        _smoother("identity", "identity"),
        _smoother("knn", "knn", points=[[float(i)] for i in range(8)], k=3),
        _smoother("krr", "krr", gram=np.eye(8).reshape(-1).tolist(), **{"lambda": 1.0}),
    ]},
    "n_reps": 8,
    "master_seed": 1,
}


def dumps(doc: dict) -> bytes:
    """Canonical config bytes: the same document always gives the same bytes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
