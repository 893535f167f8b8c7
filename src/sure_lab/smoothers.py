"""Linear smoothers with cached df, Frobenius norm, and operator norm.

Constructors cover orthogonal projections from a design matrix, kernel ridge
regression from a Gram matrix, k-nearest-neighbor averaging, and explicit
matrices. Kernel ridge members keep their spectral form only, and k-NN members
their neighbour ordering only; both form their dense matrix on first access.
Families are immutable and JSON-serializable (see docs/family_schema.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

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
    """Largest singular value of a square matrix: s * sqrt(lambda_max(G^T G)), G = H / s.

    Scaling by s = max|H| keeps G^T G finite and normal for any finite H, so
    the symmetric eigensolver (LAPACK, values only) is exact to rounding.
    """
    h = validate.finite_matrix(h, "h")
    s = float(np.max(np.abs(h))) if h.size else 0.0
    if s == 0.0:
        return 0.0
    g = h / s
    return s * float(np.sqrt(np.linalg.eigvalsh(g.T @ g)[-1]))


@dataclass(frozen=True, eq=False)
class Smoother:
    """Labeled linear smoother H (n x n) with cached tr(H), ||H||_F^2, and ||H||_op.

    `params` holds the constructor inputs; array inputs are kept as
    read-only ndarrays and become lists only in `family_to_doc`. KRR members
    keep only their spectral form H = basis @ diag(spectrum) @ basis.T (an
    orthonormal eigenbasis of the Gram matrix and the filter mu/(mu+lambda)).
    k-NN members keep only `neighbours`, the read-only neighbour ordering of
    their points (row i lists the points by distance from point i, itself
    first), which members on one point set share; row i of H puts 1/k on the
    points neighbours[i, :k]. Both have `dense` None; the other kinds keep
    their read-only matrix as `dense`, with `basis`, `spectrum` and
    `neighbours` None. `h` is the read-only dense matrix of any member, formed
    from the spectral form or the ordering on first access and kept; `apply`
    multiplies a KRR member by H without forming it, any other by `h`. == and
    hash are identity.
    """

    label: str
    df: float
    frob_sq: float
    opnorm: float
    kind: str
    params: dict = field(repr=False)
    dense: np.ndarray | None = field(repr=False)
    basis: np.ndarray | None = field(repr=False)
    spectrum: np.ndarray | None = field(repr=False)
    neighbours: np.ndarray | None = field(repr=False)

    @property
    def n(self) -> int:
        return next(a for a in (self.dense, self.basis, self.neighbours) if a is not None).shape[0]

    @cached_property
    def h(self) -> np.ndarray:
        """The dense matrix: `dense`, or, formed on first access, (basis * spectrum)
        @ basis.T of a member with a spectral form and the k-NN averaging matrix of
        a member with a neighbour ordering; read-only."""
        if self.dense is not None:
            return self.dense
        if self.basis is not None:
            h = (self.basis * self.spectrum) @ self.basis.T
        else:
            h = _knn_matrix(self.neighbours, self.params["k"])
        h.setflags(write=False)
        return h

    def apply(self, v) -> np.ndarray:
        """H v for a vector v, or H v_b for each row v_b of a stacked (B, n) array:
        basis @ (spectrum * basis.T @ v) for a member with a spectral form, which
        leaves `h` unformed, else v @ h.T."""
        if self.basis is not None:
            return ((v @ self.basis) * self.spectrum) @ self.basis.T
        return v @ self.h.T


def _frozen(a, shape=(-1,)) -> np.ndarray:
    """Read-only float copy of `a`, reshaped (flattened by default)."""
    a = np.array(a, dtype=float).reshape(shape)
    a.setflags(write=False)
    return a


def _make(label, h, kind, params, df, frob_sq, opnorm) -> Smoother:
    """Freeze and wrap the dense float array `h` itself, with its statistics."""
    h.setflags(write=False)
    return Smoother(
        label=str(label),
        df=float(df),
        frob_sq=float(frob_sq),
        opnorm=float(opnorm),
        kind=kind,
        params=params,
        dense=h,
        basis=None,
        spectrum=None,
        neighbours=None,
    )


def from_matrix(label: str, h) -> Smoother:
    """Wrap a copy of an explicit square matrix; flattened, the copy is params["matrix"].
    The one kind whose tr H and ||H||_F^2 have no closed form."""
    h = validate.finite_matrix(h, "matrix").copy()
    h.setflags(write=False)
    with np.errstate(over="ignore"):  # a trace or ||H||_F^2 beyond the float range is inf
        df, frob_sq = np.trace(h), np.sum(h * h)
    return _make(label, h, "explicit", {"matrix": h.reshape(-1)}, df, frob_sq, operator_norm(h))


_RANK_TOL = 1e-10


def projection_from_design(label: str, design, subset) -> Smoother:
    """Orthogonal projector onto the span of the selected design columns.

    `subset` is a nonempty list of 0-based column indices. Rank-deficient
    selections project onto the actual column span (singular values below
    1e-10 of the largest are treated as zero), so df and ||H||_F^2 equal the
    span dimension, the rank.
    """
    design = validate.finite_matrix(design, "design", square=False)
    p = design.shape[1]
    subset = validate.list_of(subset, "subset", validate.integer, 0, p - 1)
    if not subset:
        raise ValueError("subset: must be nonempty")
    cols = design[:, subset]
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    rank = int(np.sum(s > _RANK_TOL * (s[0] if s.size else 0.0)))
    ur = u[:, :rank]
    return _make(label, ur @ ur.T, "projection",  # exactly symmetric (BLAS syrk)
                 {"design": _frozen(design), "p": p, "subset": subset},
                 df=rank, frob_sq=rank, opnorm=rank > 0)


def krr_from_gram(label: str, gram, lam: float) -> Smoother:
    """Kernel ridge smoother H = (G + lam I)^{-1} G from a PSD Gram matrix.

    The Gram matrix is symmetrized when its asymmetry is below 1e-10 (larger
    asymmetry is an error); eigenvalues in [-1e-10, 0) are clipped to 0.
    lam is a finite number >= 0; lam = 0 requires a nonsingular Gram matrix
    (else LinAlgError) and yields the filter 1, H = I.
    """
    return _krr(label, _gram_spectrum(gram), lam)


def _gram_spectrum(gram):
    """(read-only flattened Gram, clipped eigenvalues, read-only eigenvectors) of a
    PSD Gram matrix, after the checks krr_from_gram documents."""
    gram = validate.finite_matrix(gram, "gram")
    scale = max(1.0, float(np.max(np.abs(gram))) if gram.size else 0.0)
    with np.errstate(over="ignore"):  # an overflowing difference is an inf asymmetry
        asym = float(np.max(np.abs(gram - gram.T))) if gram.size else 0.0
    if asym > 1e-10 * scale:
        raise ValueError(f"gram: asymmetry {asym:g} exceeds tolerance")
    with np.errstate(over="ignore"):  # checked just below
        gram = 0.5 * (gram + gram.T)
    if not np.all(np.isfinite(gram)):
        raise ValueError("gram: symmetrization 0.5 (G + G^T) overflows the float range")
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals.min() < -1e-10 * scale:
        raise ValueError(f"gram: negative eigenvalue {eigvals.min():g}")
    eigvecs.setflags(write=False)
    return _frozen(gram), np.clip(eigvals, 0.0, None), eigvecs


def _krr(label, gram_spectrum, lam) -> Smoother:
    """KRR member for one lambda from a _gram_spectrum, which members may share;
    it keeps the spectral form only (see Smoother.h)."""
    gram, eigvals, eigvecs = gram_spectrum
    lam = validate.number(lam, "lambda", 0)
    if lam == 0.0 and eigvals.min() <= 1e-12 * max(eigvals.max(), 1.0):
        raise np.linalg.LinAlgError("lambda: must be positive when the gram matrix is singular")
    with np.errstate(over="ignore"):
        denom = eigvals + lam
    shrink = eigvals / denom  # exactly 1 at lambda = 0, where every eigenvalue is positive
    over = np.isinf(denom)
    if over.any():  # halving is exact here, and the halved sum does not overflow
        half = 0.5 * eigvals[over]
        shrink[over] = half / (half + 0.5 * lam)
    return Smoother(label=str(label), df=float(np.sum(shrink)),
                    frob_sq=float(np.sum(shrink * shrink)), opnorm=float(shrink.max()),
                    kind="krr", params={"gram": gram, "lambda": lam}, dense=None,
                    basis=eigvecs, spectrum=_frozen(shrink), neighbours=None)


def knn_from_points(label: str, points, k: int) -> Smoother:
    """k-nearest-neighbor averaging matrix: row i puts 1/k on N_k(i).

    Each point is always its own first neighbor; remaining neighbors are the
    closest other points with distance ties broken by smallest index. Hence
    k=1 gives the identity and k=n the global mean, and tr H = ||H||_F^2 = n/k.
    k is an integer in [1, n].
    """
    return _knn(label, _neighbour_order(points), k)


def _neighbour_order(points):
    """(read-only points as rows, read-only full neighbour ordering of each row) after
    the checks knn_from_points documents; column j of row i is its (j+1)-th neighbour."""
    points = validate.array(points, "points")
    points = validate.finite_matrix(points[:, None] if points.ndim == 1 else points, "points",
                                    square=False)
    diffs = points[:, None, :] - points[None, :, :]
    dist_sq = np.sum(diffs * diffs, axis=2)
    np.fill_diagonal(dist_sq, -np.inf)  # each point is its own first neighbor
    order = np.argsort(dist_sq, axis=1, kind="stable")  # ties: smallest index
    order.setflags(write=False)
    return _frozen(points, points.shape), order


def _knn(label, neighbour_order, k) -> Smoother:
    """k-NN member for one k from a _neighbour_order, which members may share;
    it keeps the ordering only (see Smoother.h). Its operator norm comes from
    its matrix, formed here and dropped."""
    points, order = neighbour_order
    n = order.shape[0]
    k = validate.integer(k, "k", 1, n)
    return Smoother(label=str(label), df=n / k, frob_sq=n / k,
                    opnorm=operator_norm(_knn_matrix(order, k)), kind="knn",
                    params={"points": points, "k": k}, dense=None, basis=None,
                    spectrum=None, neighbours=order)


def _knn_matrix(order, k) -> np.ndarray:
    """The n x n matrix whose row i puts 1/k on the points order[i, :k]."""
    h = np.zeros(order.shape)
    np.put_along_axis(h, order[:, :k], 1.0 / k, axis=1)
    return h


def knn_opnorm_bound(smoother: Smoother) -> float:
    """Gershgorin-style operator norm bound (1/k) max_i |N_k^{-1}(i)| of a k-NN member.

    Counts, for each point i, how many rows of the member's neighbour ordering
    list i among their first k; k is the member's own. Raises ValueError for a
    member knn_from_points did not build.
    """
    if smoother.kind != "knn":
        raise ValueError(f"smoother {smoother.label!r} is {smoother.kind!r}, not k-NN")
    k = smoother.params["k"]
    reverse_counts = np.bincount(smoother.neighbours[:, :k].ravel(), minlength=smoother.n)
    return float(reverse_counts.max()) / k


@dataclass(frozen=True, eq=False)
class SmootherFamily:
    """Finite ordered selection menu of smoothers sharing a dimension.

    `basis` is the eigenbasis all members' spectral forms share, else None;
    `neighbours` is the neighbour ordering all members share when every member
    is k-NN, else None. == is identity.
    """

    members: tuple
    n: int
    h_op: float
    basis: np.ndarray | None = field(repr=False)
    neighbours: np.ndarray | None = field(repr=False)

    @classmethod
    def of(cls, members) -> "SmootherFamily":
        members = tuple(members)
        if not members:
            raise ValueError("family must be nonempty")
        n = members[0].n
        for m in members:
            if m.n != n:
                raise ValueError(f"smoother {m.label!r} has dimension {m.n}, expected {n}")
        labels = [m.label for m in members]
        if len(set(labels)) != len(labels):
            raise ValueError(f"family labels must be distinct, got {labels}")
        return cls(members=members, n=n, h_op=max(m.opnorm for m in members),
                   basis=_common([m.basis for m in members]),
                   neighbours=_common([m.neighbours for m in members]))

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


def _common(arrays):
    """The array every entry equals (by identity, else entry for entry), or None
    when an entry is None or differs."""
    first = arrays[0]
    if first is None or any(a is None or (a is not first and not np.array_equal(a, first))
                            for a in arrays[1:]):
        return None
    return first


# ---------------------------------------------------------------------------
# JSON serialization (schema in docs/family_schema.md)
# ---------------------------------------------------------------------------

FAMILY_SCHEMA_VERSION = 1


# Parameter keys of each smoother kind; all are required.
_KIND_PARAMETERS = {"zero": (), "identity": (), "explicit": ("matrix",),
                    "projection": ("design", "p", "subset"), "krr": ("gram", "lambda"),
                    "knn": ("points", "k")}


def build_family(specs, n: int, where: str) -> SmootherFamily:
    """The family of a JSON list of smoother descriptions for dimension n.

    An array parameter is converted once per list object, so a list the
    reader gives every member that repeats it is converted once. KRR members
    given equal Gram matrices share one eigendecomposition: one read-only
    `gram` parameter and one `basis`. k-NN members given equal points share
    one neighbour ordering and one read-only `points` parameter. Each member
    is bit-identical to the `krr_from_gram` or `knn_from_points` call with its
    parameters.
    """
    if isinstance(specs, list) and len(specs) * n * n > validate.MAX_ENTRIES:
        raise validate.ConfigError(f"len(smoothers) * n^2: must be at most 2^27, "
                                   f"got {len(specs) * n * n}")
    shared = {}
    return SmootherFamily.of(validate.list_of(
        specs, where, lambda spec, _: build_smoother(spec, n, shared)))


def build_smoother(spec: dict, n: int, shared=None) -> Smoother:
    """Build one smoother from its JSON description for dimension n.

    Malformed members (unknown kind, missing or unknown `parameters` keys,
    values of the wrong type or shape, values the constructor rejects) raise
    ConfigError; a parameter's error is "smoother '<label>' parameters.<the
    constructor's message>", which starts with the parameter. `shared` maps an
    array parameter's list object to its conversion, a Gram matrix to its
    eigendecomposition and a point set to its neighbour ordering; it is
    reused and extended across the members of one family.
    """
    shared = {} if shared is None else shared
    validate.obj(spec, "smoother spec", ("label", "kind"), ("parameters",))
    label = validate.string(spec["label"], "smoother label")
    kind = validate.string(spec["kind"], "smoother kind", _KIND_PARAMETERS)
    where = f"smoother {label!r} parameters"
    params = validate.obj(spec.get("parameters", {}), where, _KIND_PARAMETERS[kind])
    if kind == "zero":
        return _make(label, np.zeros((n, n)), "zero", {}, df=0, frob_sq=0, opnorm=0)
    if kind == "identity":
        return _make(label, np.eye(n), "identity", {}, df=n, frob_sq=n, opnorm=n > 0)
    try:
        if kind == "explicit":
            return from_matrix(label, _array(shared, params["matrix"], "matrix", (n, n)))
        if kind == "projection":
            p = validate.integer(params["p"], "p", 1)
            return projection_from_design(
                label, _array(shared, params["design"], "design", (n, p)), params["subset"])
        if kind == "krr":
            gram = _array(shared, params["gram"], "gram", (n, n))
            return _krr(label, _shared(shared, _gram_spectrum, gram), params["lambda"])
        points = _array(shared, params["points"], "points")
        if len(points) != n:
            raise validate.ConfigError(f"points: expected n = {n} points, got {len(points)}")
        return _knn(label, _shared(shared, _neighbour_order, points), params["k"])
    except ValueError as exc:
        raise validate.ConfigError(f"{where}.{exc}") from exc


def _array(shared, value, where, shape=None):
    """validate.array(value, where, shape), once per (value object, shape) in
    `shared`, which keeps `value` so that its id is not reused."""
    key = (id(value), shape)
    if key not in shared:
        shared[key] = value, validate.array(value, where, shape)
    return shared[key][1]


def _shared(shared, derive, a):
    """derive(a), computed once per distinct (derive, a.shape, a.tobytes()) in
    `shared`. An array seen before is found by identity, without hashing its
    bytes; `shared` keeps it, so that its id is not reused."""
    key = (derive, id(a))
    if key not in shared:
        by_value = (derive, a.shape, a.tobytes())
        if by_value not in shared:
            shared[by_value] = derive(a)
        shared[key] = a, shared[by_value]
    return shared[key][1]


def family_to_doc(family: SmootherFamily) -> dict:
    """The family document of `family`. An array parameter members share (a KRR
    grid's Gram matrix, a k-NN family's points) becomes one list, which every
    member's entry holds."""
    lists = {}  # id of an array parameter -> its list; the members keep the arrays alive

    def plain(value):
        if not isinstance(value, np.ndarray):
            return value
        if id(value) not in lists:
            lists[id(value)] = value.tolist()
        return lists[id(value)]

    return {
        "schema_version": FAMILY_SCHEMA_VERSION,
        "n": family.n,
        "smoothers": [
            {"label": m.label, "kind": m.kind,
             "parameters": {key: plain(value) for key, value in m.params.items()}}
            for m in family.members
        ],
    }


def family_from_doc(doc: dict) -> SmootherFamily:
    where = "family document"
    validate.obj(doc, where, ("schema_version", "n", "smoothers"))
    validate.integer(doc["schema_version"], f"{where}.schema_version",
                     FAMILY_SCHEMA_VERSION, FAMILY_SCHEMA_VERSION)
    n = validate.integer(doc["n"], f"{where}.n", 1, validate.MAX_N)
    return build_family(doc["smoothers"], n, f"{where}.smoothers")


def save_family(family: SmootherFamily, path) -> None:
    """Write the family document of `family` to `path` as UTF-8 JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_to_doc(family), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_family(path) -> SmootherFamily:
    """The family of the UTF-8 JSON family document at `path`."""
    return family_from_doc(validate.load_json(path))
