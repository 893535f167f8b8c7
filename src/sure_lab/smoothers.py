"""Linear smoother matrices with cached df, Frobenius norm, and operator norm.

Constructors cover orthogonal projections from a design matrix, kernel ridge
regression from a Gram matrix, k-nearest-neighbor averaging, and explicit
matrices. Families are immutable and JSON-serializable (see
docs/family_schema.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import _validate as validate

__all__ = [
    "Smoother",
    "SmootherFamily",
    "from_matrix",
    "projection_from_design",
    "krr_from_gram",
    "knn_from_points",
    "knn_opnorm_bound",
    "operator_norm",
    "family_to_doc",
    "family_from_doc",
    "save_family",
    "load_family",
]

def operator_norm(h) -> float:
    """Largest singular value of a square matrix (LAPACK SVD)."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    return float(np.linalg.norm(h, 2))


@dataclass(frozen=True)
class Smoother:
    """Labeled n x n matrix with cached tr(H), ||H||_F^2, and ||H||_op.

    `params` holds the constructor inputs; array inputs are kept as
    read-only ndarrays and become lists only in `family_to_doc`.
    """

    label: str
    h: np.ndarray
    df: float
    frob_sq: float
    opnorm: float
    kind: str = "explicit"
    params: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.h.shape[0]


def _frozen(a, shape=(-1,)) -> np.ndarray:
    """Read-only float copy of `a`, reshaped (flattened by default)."""
    a = np.array(a, dtype=float).reshape(shape)
    a.setflags(write=False)
    return a


def _make(label, h, kind, params, df=None, frob_sq=None, opnorm=None) -> Smoother:
    """Wrap `h`; statistics the constructor knows in closed form are passed in."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"smoother matrix must be square, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("smoother matrix entries must be finite")
    h = h.copy()
    h.setflags(write=False)
    if df is None:
        df = float(np.trace(h))
    if frob_sq is None:
        frob_sq = float(np.sum(h * h))
    return Smoother(
        label=str(label),
        h=h,
        df=df,
        frob_sq=frob_sq,
        opnorm=operator_norm(h) if opnorm is None else float(opnorm),
        kind=kind,
        params=dict(params),
    )


def from_matrix(label: str, h) -> Smoother:
    """Wrap an explicit square matrix, computing all cached statistics."""
    h = np.asarray(h, dtype=float)
    return _make(label, h, "explicit", {"matrix": _frozen(h)})


_RANK_TOL = 1e-10


def projection_from_design(label: str, design, subset) -> Smoother:
    """Orthogonal projector onto the span of the selected design columns.

    Subset indices are 0-based. Rank-deficient selections project onto the
    actual column span (singular values below 1e-10 of the largest are treated
    as zero), so df equals the span dimension.
    """
    design = np.asarray(design, dtype=float)
    if design.ndim != 2:
        raise ValueError(f"design must be a 2-d matrix, got shape {design.shape}")
    subset = [int(j) for j in subset]
    if len(subset) == 0:
        raise ValueError("subset must be nonempty")
    p = design.shape[1]
    bad = [j for j in subset if not 0 <= j < p]
    if bad:
        raise ValueError(f"subset indices {bad} out of range for {p} design columns")
    cols = design[:, subset]
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    rank = int(np.sum(s > _RANK_TOL * (s[0] if s.size else 0.0)))
    ur = u[:, :rank]
    h = ur @ ur.T
    h = 0.5 * (h + h.T)
    return _make(label, h, "projection", {"design": _frozen(design), "p": p, "subset": subset},
                 opnorm=float(rank > 0))


def krr_from_gram(label: str, gram, lam: float) -> Smoother:
    """Kernel ridge smoother H = (G + lam I)^{-1} G from a PSD Gram matrix.

    The Gram matrix is symmetrized when its asymmetry is below 1e-10 (larger
    asymmetry is an error); eigenvalues in [-1e-10, 0) are clipped to 0.
    lam = 0 requires a nonsingular Gram matrix and yields H = I.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"gram must be square, got shape {gram.shape}")
    lam = float(lam)
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    scale = max(1.0, float(np.max(np.abs(gram))) if gram.size else 0.0)
    asym = float(np.max(np.abs(gram - gram.T))) if gram.size else 0.0
    if asym > 1e-10 * scale:
        raise ValueError(f"gram matrix asymmetry {asym:g} exceeds tolerance")
    gram = 0.5 * (gram + gram.T)
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals.min() < -1e-10 * scale:
        raise ValueError(f"gram matrix has negative eigenvalue {eigvals.min():g}")
    eigvals = np.clip(eigvals, 0.0, None)
    params = {"gram": _frozen(gram), "lambda": lam}
    n = gram.shape[0]
    if lam == 0.0:
        if eigvals.min() <= 1e-12 * max(eigvals.max(), 1.0):
            raise np.linalg.LinAlgError("lambda = 0 requires a nonsingular gram matrix")
        return _make(label, np.eye(n), "krr", params, opnorm=1.0)
    shrink = eigvals / (eigvals + lam)
    h = (eigvecs * shrink) @ eigvecs.T
    h = 0.5 * (h + h.T)
    return _make(label, h, "krr", params, df=float(np.sum(shrink)), opnorm=float(shrink.max()))


def knn_from_points(label: str, points, k: int) -> Smoother:
    """k-nearest-neighbor averaging matrix: row i puts 1/k on N_k(i).

    Each point is always its own first neighbor; remaining neighbors are the
    closest other points with distance ties broken by smallest index. Hence
    k=1 gives the identity and k=n the global mean, and ||H||_F^2 = n/k.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2:
        raise ValueError(f"points must be a list of vectors, got shape {points.shape}")
    n = points.shape[0]
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if not np.all(np.isfinite(points)):
        raise ValueError("k-NN points must be finite")
    diffs = points[:, None, :] - points[None, :, :]
    dist_sq = np.sum(diffs * diffs, axis=2)
    np.fill_diagonal(dist_sq, -np.inf)  # each point is its own first neighbor
    neighbors = np.argsort(dist_sq, axis=1, kind="stable")[:, :k]  # ties: smallest index
    h = np.zeros((n, n))
    np.put_along_axis(h, neighbors, 1.0 / k, axis=1)
    return _make(label, h, "knn", {"points": _frozen(points, points.shape), "k": k},
                 frob_sq=n / k)


def knn_opnorm_bound(smoother: Smoother, k: int) -> float:
    """Gershgorin-style operator norm bound (1/k) max_i |N_k^{-1}(i)|.

    Counts, for each column i, how many rows use point i as a neighbor. Valid
    for matrices built by knn_from_points with this k.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    reverse_counts = np.sum(smoother.h > 0, axis=0)
    return float(reverse_counts.max()) / k


@dataclass(frozen=True)
class SmootherFamily:
    """Finite ordered selection menu of smoothers sharing a dimension."""

    members: tuple
    n: int
    h_op: float

    @classmethod
    def of(cls, members) -> "SmootherFamily":
        members = tuple(members)
        if not members:
            raise ValueError("family must be nonempty")
        n = members[0].n
        for m in members:
            if m.n != n:
                raise ValueError(
                    f"smoother {m.label!r} has dimension {m.n}, expected {n}")
        labels = [m.label for m in members]
        if len(set(labels)) != len(labels):
            raise ValueError(f"family labels must be distinct, got {labels}")
        return cls(members=members, n=n, h_op=max(m.opnorm for m in members))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @property
    def h_op_effective(self) -> float:
        """max(1, h_op): the operator norm the bounds use (edf_bound needs h_op >= 1)."""
        return max(1.0, self.h_op)

    @property
    def labels(self):
        return [m.label for m in self.members]

    def member(self, label: str) -> Smoother:
        for m in self.members:
            if m.label == label:
                return m
        raise KeyError(label)


# ---------------------------------------------------------------------------
# JSON serialization (schema in docs/family_schema.md)
# ---------------------------------------------------------------------------

FAMILY_SCHEMA_VERSION = 1


# Parameter keys of each smoother kind; all are required.
_KIND_PARAMETERS = {"zero": (), "identity": (), "explicit": ("matrix",),
                    "projection": ("design", "p", "subset"), "krr": ("gram", "lambda"),
                    "knn": ("points", "k")}


def build_smoother(spec: dict, n: int) -> Smoother:
    """Build one smoother from its JSON description for dimension n.

    Malformed members (unknown kind, missing or unknown `parameters` keys,
    values of the wrong type or shape) raise ValueError.
    """
    validate.obj(spec, "smoother spec", ("label", "kind"), ("parameters",))
    label = validate.string(spec["label"], "smoother label")
    kind = validate.string(spec["kind"], "smoother kind", _KIND_PARAMETERS)
    where = f"smoother {label!r} parameters"
    params = validate.obj(spec.get("parameters", {}), where, _KIND_PARAMETERS[kind])
    if kind == "zero":
        return _make(label, np.zeros((n, n)), "zero", {}, opnorm=0.0)
    if kind == "identity":
        return _make(label, np.eye(n), "identity", {}, opnorm=float(n > 0))
    if kind == "explicit":
        return from_matrix(label, validate.array(params["matrix"], f"{where}.matrix", (n, n)))
    if kind == "projection":
        p = validate.integer(params["p"], f"{where}.p", 1)
        return projection_from_design(
            label, validate.array(params["design"], f"{where}.design", (n, p)),
            validate.list_of(params["subset"], f"{where}.subset", validate.integer, 0))
    if kind == "krr":
        return krr_from_gram(label, validate.array(params["gram"], f"{where}.gram", (n, n)),
                             validate.number(params["lambda"], f"{where}.lambda"))
    return knn_from_points(label, validate.array(params["points"], f"{where}.points"),
                           validate.integer(params["k"], f"{where}.k", 1))


def family_to_doc(family: SmootherFamily) -> dict:
    return {
        "schema_version": FAMILY_SCHEMA_VERSION,
        "n": family.n,
        "smoothers": [
            {"label": m.label, "kind": m.kind,
             "parameters": {key: value.tolist() if isinstance(value, np.ndarray) else value
                            for key, value in m.params.items()}}
            for m in family.members
        ],
    }


def family_from_doc(doc: dict) -> SmootherFamily:
    where = "family document"
    validate.obj(doc, where, ("schema_version", "n", "smoothers"))
    validate.integer(doc["schema_version"], f"{where}.schema_version",
                     FAMILY_SCHEMA_VERSION, FAMILY_SCHEMA_VERSION)
    n = validate.integer(doc["n"], f"{where}.n", 1)
    return SmootherFamily.of(validate.list_of(
        doc["smoothers"], f"{where}.smoothers", lambda spec, _: build_smoother(spec, n)))


def save_family(family: SmootherFamily, path) -> None:
    with open(path, "w") as fh:
        json.dump(family_to_doc(family), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_family(path) -> SmootherFamily:
    with open(path) as fh:
        return family_from_doc(json.load(fh))
