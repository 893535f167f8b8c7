"""Seeded replicated experiments over smoother families.

Replicates run in fixed blocks of consecutive indices: every member's SURE
is computed on a block's draws, SURE selects, and the statistics whose exact
identities (edf decomposition, basic inequality, excess-optimism linkage)
are checked on every draw come out as columns. There are three selection
kernels; each gives, per row, every member's residual norm, which selects,
and five inner products of the selected member and of the oracle member, on
which one function writes every statistic for all three. Families whose
members share one eigenbasis (KRR members on one Gram matrix) work in that
eigenbasis: the draws are rotated once, every member is a filter there, and
every inner product is a column of one of three products of the block with
per-member filter tables. Families of k-NN members on one neighbour
ordering get every SURE, and the oracle member's product, from running sums
over that ordering, then sort the rows by k and apply one product per k that
a non-oracle row selects, with a 0/1 neighbour matrix grown rank by rank, so
that no member's matrix is formed. Any other family applies every member
with one matrix product. All three then select the same way. Block boundaries depend only
on n_reps and the family, and numpy's OpenBLAS runs one thread for every run,
so a product rounds the same way at any n and results do not depend on the
worker count; workers take turns drawing the noise.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import _validate as validate
from . import criteria
from .sequence_model import GaussianSequenceModel, standard_normal_rows
from .smoothers import Smoother, SmootherFamily

__all__ = [
    "ReplicateRecords",
    "MonteCarloSummary",
    "run_experiment",
    "sure_unbiasedness_check",
    "records_to_csv",
    "RECORD_CSV_COLUMNS",
]

IDENTITY_TOL = 1e-8
# A block (1 to 1024 replicates) keeps the floats its rows hold at the peak,
# as each kernel counts them, within BLOCK_BYTES.
BLOCK_BYTES = 2 * 1024 * 1024

# summary estimate -> record column it averages
ESTIMATE_COLUMNS = {
    "risk_tuned": "loss_selected",
    "exopt": "exopt_stat",
    "edf_total": "edf_total",
    "edf_quadratic": "edf_quadratic",
    "edf_linear": "edf_linear",
    "sure_min_mean": "sure_min",
    "noise_sq_gap": "noise_sq_gap",
}


@dataclass(frozen=True)
class MonteCarloSummary:
    """Deterministic reduction of an experiment's replicate records.

    The fields are the summary's JSON keys and hold their JSON values.
    """

    n_reps: int
    estimates: dict  # name -> {"mean": float, "stderr": float | None}
    shell_histogram: dict | None  # str(shell) -> count; None when r_star is degenerate
    selection_histogram: dict  # label -> count
    identity_pass_rates: dict  # edf_decomposition, basic_inequality, exopt_linkage -> rate
    r_star: float
    h_op: float
    family_size: int

    @property
    def all_identities_pass(self) -> bool:
        return all(rate == 1.0 for rate in self.identity_pass_rates.values())

    def to_json_dict(self) -> dict:
        return asdict(self)


RECORD_CSV_COLUMNS = ("replicate_index", "selected", "sure_min", "loss_selected",
                      "edf_total", "edf_quadratic", "edf_linear", "exopt_stat",
                      "noise_sq_gap", "signal_cross", "shell", "basic_inequality_slack")
# records_to_csv holds the text of at most this many rows (about 180 bytes
# each) at a time, so the CSV's memory does not grow with n_reps; from 256 to
# 4096 rows a chunk, the writer ran equally fast.
CSV_CHUNK_ROWS = 512


class ReplicateRecords:
    """Per-replicate statistics of a run, one array per column.

    With z the replicate's noise, y = theta0 + z and j the member SURE selects,
    `columns` holds:

      replicate_index         i, with z = sigma * derive_stream(master_seed, i)
                              .standard_normal(n)
      selected                j, an index into `labels` (the CSV writes the label)
      sure_min                SURE(j) = ||y - H_j y||^2 + 2 sigma^2 tr H_j
      loss_selected           ||H_j y - theta0||^2
      edf_total               z^T H_j y / sigma^2 - tr H_j
                              = edf_quadratic + edf_linear
      edf_quadratic           z^T H_j z / sigma^2 - tr H_j
      edf_linear              (H_j theta0)^T z / sigma^2
      exopt_stat              loss_selected + n sigma^2 - sure_min
      noise_sq_gap            n sigma^2 - ||z||^2
      signal_cross            2 theta0^T z
      basic_inequality_slack  right minus left side of the basic inequality
                              of j against the oracle member
      shell                   dyadic risk shell of j; absent when r* is
                              degenerate, which disables the shells

    The exact per-replicate linkage is
    exopt_stat = 2 sigma^2 edf_total + noise_sq_gap - signal_cross.
    """

    def __init__(self, columns: dict, labels):
        self.columns = columns
        self.labels = labels

    def __len__(self) -> int:
        return len(self.columns["replicate_index"])


def _rowdot(a, b):
    return np.einsum("...i,...i->...", a, b)


def _coldot(a, b):
    return np.einsum("i...,i...->...", a, b)


def _numbers(z, hz, h_theta, bias, dot=_rowdot):
    """(z.(H z), ||H z||^2, (H theta0).z, b.(z - H z), b.(H z)) per replicate, in
    the order block() reads them, for rows (or, with _coldot, columns) z and
    hz = H y, which is overwritten with H z and then z - H z; h_theta and
    bias = theta0 - H theta0 are per replicate or one for all."""
    hz -= h_theta
    zhz, hz_sq, h_theta_z, bias_hz = dot(z, hz), dot(hz, hz), dot(h_theta, z), dot(bias, hz)
    np.subtract(z, hz, out=hz)
    return zhz, hz_sq, h_theta_z, dot(bias, hz), bias_hz


class _Context:
    """Per-(family, model) arrays shared by every block of replicates.

    block() gets the draws z (B x n, y = theta0 + z) and hands them to one of
    three selection kernels, which makes the block's arrays and returns two
    parts: resid_sq, ||y - H_s y||^2 for every row and member s, and pick.
    block() adds 2 sigma^2 tr H_s to it in place; that criterion gives the
    argmin j and sure_min, its value at j. pick(j) returns (selected,
    oracle), the five numbers
        z.(H z), ||H z||^2, (H theta0).z, b.(z - H z), b.(H z)
    per row of the member j selected in it and of the oracle member j0, with
    b_s = theta0 - H_s theta0. A row that selects the oracle reads the
    oracle's own numbers, so its slack is exactly 0; this rule and every
    statistic are written once, in block(), on those numbers and the
    constants ||b_s||^2: loss_selected is ||H_j z||^2 - 2 b_j.(H_j z) +
    ||b_j||^2 and (H_j y).z is z.(H_j z) + (H_j theta0).z. The inner
    products may be taken in any orthonormal coordinates, which leave them
    and ||b_s||^2 unchanged: V^T x on the spectral kernel, x on the others.
    - spectral: a family with a shared eigenbasis V = family.basis
      (H_s = V diag(f_s) V^T) works on u = V^T z, the exact draws rotated,
      and t = V^T theta0, where H_s is the filter f_s. With F the filters
      (member s is row s), every number is a column of (y∘y)((1-F)^2)^T,
      (u∘u)[F; F^2]^T or u[F∘t; (1-F)^2∘t; F(1-F)∘t]^T: O(n^2 + n|S|) a
      replicate, one n x n product, and no H_j y is formed. y∘y, then u∘u,
      is one array;
    - k-NN: a family of k-NN members on one neighbour ordering
      (family.neighbours) holds y as columns and keeps, for each point, the
      running sum C of its neighbours' values over the ranks r < k_max, so
      H_k y = C / k at rank k, where the oracle's numbers are taken, and
      ||y - H_k y||^2 = ||C - k y||^2 / k^2: O(n k_max) a replicate. H_k
      theta0 is the same running sum over theta0, divided by k. pick sorts
      the rows by k and applies one product per k that a non-oracle row
      selects, in ascending k: that k's rows of y times A_k, the 0/1 matrix
      whose row i has ones on point i's first k neighbours, then divided by
      k. A_k is zeroed once a block and grown by n ones a rank, so no
      member's matrix is formed. y, the running sums and one rank's values
      are three B x n arrays, which every other B x n array of the block
      reuses; A_k is grown over the third, made n x n where B < n;
    - dense: any other family applies every member with one product,
      O(|S| n^2) a replicate, and picks the products.
    _numbers takes the five numbers of a member from H z = H y - H theta0.
    """

    def __init__(self, family: SmootherFamily, model: GaussianSequenceModel):
        if family.n != model.n:
            raise ValueError(
                f"family dimension {family.n} does not match model dimension {model.n}")
        self.family = family
        self.n = model.n
        self.sigma = model.sigma
        self.sigma_sq = model.sigma_sq
        self.theta0 = model.theta0
        members = family.members
        self.basis = family.basis  # None off the spectral kernel
        # Each kernel's theta0 and H_s theta0 in its coordinates (one rotation for a
        # shared basis), its tables and row_floats, the floats a row holds at the peak.
        # An overflow gives an inf risk, which stops the run below (shell_indices
        # raises) before anything else uses them.
        with np.errstate(over="ignore", invalid="ignore"):
            if self.basis is not None:
                f = np.stack([m.spectrum for m in members])
                t = self.theta_c = self.theta0 @ self.basis
                self.h_theta_c = t * f
                self.resid_filters_sq = (1.0 - f) ** 2
                self.square_filters = np.concatenate([f, f * f])
                self.linear_filters = np.concatenate([self.h_theta_c, self.resid_filters_sq * t,
                                                      f * (1.0 - f) * t])
                # The draws, their rotation, one square (y∘y, then u∘u) and the
                # three products' 6 |S| columns. A 277-row block at n = 200,
                # |S| = 24 peaked at 1.59 MiB (tracemalloc, drawing included).
                row_floats = 4 * self.n + 6 * len(family)
                self._select = _Context._spectral  # unbound: a bound method would be a cycle
            elif family.neighbours is not None:
                self.ks = np.array([m.params["k"] for m in members])
                # ranks[r] is every point's (r+1)-th neighbour, at_rank[r] the
                # members with k = r+1
                self.ranks = np.ascontiguousarray(family.neighbours[:, :self.ks.max()].T)
                self.at_rank = [np.flatnonzero(self.ks == r + 1).tolist()
                                for r in range(len(self.ranks))]
                # H_k theta0 = C / k from running sums over the ranks, the kernel's
                # arithmetic for H_k y, so no member's matrix is formed
                self.theta_c = self.theta0
                self.h_theta_c = (np.cumsum(self.theta0[self.ranks], axis=0)[self.ks - 1]
                                  / self.ks[:, None])
                # The draws and three arrays (y, the running sums, one rank's values,
                # which later hold the products), and every member's residual norm:
                # a 319-row block at n = 200, |S| = 20 peaked at 2.09 MiB (tracemalloc,
                # drawing included), 4.3 n-vectors a row. The pick's n x n 0/1
                # matrix is grown over the third array.
                row_floats = 4 * self.n + len(family)
                self._select = _Context._knn
            else:
                self.theta_c = self.theta0
                self.h_theta_c = np.stack([m.apply(self.theta0) for m in members])
                # member s is rows s*n .. s*n + n - 1
                self.h_flat = np.concatenate([m.h for m in members])
                # The products H_s y of one replicate, beside the draws and y. A
                # 65-row block of 20 nested projections at n = 200 peaked at
                # 2.46 MiB (tracemalloc, drawing included).
                row_floats = len(family) * self.n
                self._select = _Context._dense
            self.bias_c = self.theta_c - self.h_theta_c
            self.bias_sq = _rowdot(self.bias_c, self.bias_c)
        self.risks = np.array([criteria.risk_from(bias, m.frob_sq, self.sigma_sq)
                               for bias, m in zip(self.bias_c, members)])
        self.oracle_idx = int(np.argmin(self.risks))
        self.r_star = float(self.risks[self.oracle_idx]) / self.sigma_sq
        # degenerate r_star disables the shell machinery
        self.shells = (criteria.shell_indices(self.risks, self.sigma_sq, self.r_star)
                       if self.r_star > 0 else None)
        self.trs = np.array([m.df for m in members])
        self.frob_sqs = np.array([m.frob_sq for m in members])
        self.block_len = min(max(BLOCK_BYTES // (8 * row_floats), 1), 1024)

    def _spectral(self, z):
        """(||y - H_s y||^2 of every member s per row, pick) from the draws rotated
        to u = V^T z in the eigenbasis: pick takes every number from columns j
        and j0 of the three products."""
        b, s = len(z), len(self.trs)
        # the exact draws rotated, never y's rotation minus theta0's, which would
        # lose z's digits when |theta0| >> sigma
        u = z @ self.basis
        scratch = self.theta_c + u  # y∘y, then u∘u
        resid_sq = np.multiply(scratch, scratch, out=scratch) @ self.resid_filters_sq.T
        # square[:, 0] is z.(H_s z), square[:, 1] ||H_s z||^2; linear[:, 0] is
        # (H_s theta0).z, linear[:, 1] b_s.(z - H_s z), linear[:, 2] (f_s(1-f_s)t).u
        square = (np.multiply(u, u, out=scratch) @ self.square_filters.T).reshape(b, 2, s)
        linear = (u @ self.linear_filters.T).reshape(b, 3, s)
        rows, j0 = np.arange(b), self.oracle_idx

        def pick(j):
            return ((*square[rows, :, j].T, *linear[rows, :, j].T),
                    (*square[:, :, j0].T, *linear[:, :, j0].T))

        return resid_sq, pick

    def _knn(self, z):
        """As _spectral, from running sums over the shared neighbour ordering, in
        three B x n arrays."""
        b, n = z.shape
        j0, k0 = self.oracle_idx, self.ks[self.oracle_idx]
        # yt[:, i] is row i's y, so a rank's neighbours of every point are a row gather
        yt, total = np.empty((2, n, b))
        # one rank's values, then the pick's n x n 0/1 matrix: n^2 floats where B < n
        room = np.empty(n * max(n, b))
        part = room[:n * b].reshape(n, b)
        np.add(self.theta0[:, None], z.T, out=yt)
        total.fill(0.0)
        resid_sq = np.empty((len(self.trs), b))  # member s is row s
        for r, (neighbours, members) in enumerate(zip(self.ranks, self.at_rank)):
            total += np.take(yt, neighbours, axis=0, out=part, mode="clip")  # indices are valid
            if members:
                if r + 1 == k0:  # the oracle's numbers from its product C / k0
                    oracle = _numbers(z.T, np.divide(total, r + 1, out=part),
                                      self.h_theta_c[j0, :, None], self.bias_c[j0, :, None],
                                      _coldot)
                # ||y - C/k||^2 = ||C - k y||^2 / k^2: a B x n product, not a division
                np.multiply(yt, r + 1, out=part)
                part -= total
                np.einsum("ij,ij->j", part, part, out=resid_sq[members[0]])
                resid_sq[members[0]] /= (r + 1) ** 2
                for s in members[1:]:  # one k under several labels
                    resid_sq[s] = resid_sq[members[0]]

        def pick(j):  # rows sorted by k, one product per k that a non-oracle row selects
            # The oracle's rows read its numbers: they sort first, as k = 0. A label
            # repeating k0 is never selected, as argmin ties go to the first index.
            k = np.where(j == j0, 0, self.ks[j])
            order = np.argsort(k, kind="stable")
            ends = np.searchsorted(k, np.arange(k.max() + 1), side="right", sorter=order)
            # y of the rows in that order, the bits of yt, and then their H_j y
            ys = np.take(z, order, axis=0, out=yt.reshape(b, n), mode="clip")
            ys += self.theta0
            grouped = total.reshape(b, n)
            grouped[:ends[0]] = 0.0  # any finite value: these rows read the oracle's
            ones = room[:n * n].reshape(n, n)  # row i puts 1 on point i's first r+1 neighbours
            ones.fill(0.0)
            points = np.arange(n)
            for r, (lo, hi) in enumerate(zip(ends, ends[1:])):
                ones[points, self.ranks[r]] = 1.0
                if lo < hi:
                    np.divide(np.matmul(ys[lo:hi], ones.T, out=grouped[lo:hi]), r + 1,
                              out=grouped[lo:hi])
            # mode="clip" everywhere: the default mode writes a B x n copy of out first
            hy = np.take(grouped, np.argsort(order), axis=0, out=yt.reshape(b, n), mode="clip")
            h_theta = np.take(self.h_theta_c, j, axis=0, out=part.reshape(b, n), mode="clip")
            bias = np.take(self.bias_c, j, axis=0, out=grouped, mode="clip")
            return _numbers(z, hy, h_theta, bias), oracle

        return resid_sq.T, pick

    def _dense(self, z):
        """As _spectral, from every member applied by one product."""
        b, n = z.shape
        y = self.theta0 + z
        hy = (y @ self.h_flat.T).reshape(b, -1, n)  # hy[b, s] = H_s y_b
        resid_sq = np.empty(hy.shape[:2])
        for s in range(hy.shape[1]):  # one (B, |S|, n) residual array was 1.4x slower
            resid = y - hy[:, s]
            resid_sq[:, s] = _rowdot(resid, resid)
        rows, j0 = np.arange(len(z)), self.oracle_idx

        def pick(j):  # fancy indexing copies: _numbers overwrites H y
            oracle = _numbers(z, hy[rows, j0], self.h_theta_c[j0], self.bias_c[j0])
            return _numbers(z, hy[rows, j], self.h_theta_c[j], self.bias_c[j]), oracle

        return resid_sq, pick

    def block(self, z: np.ndarray, first_index: int) -> dict:
        """Record columns of replicates first_index, ... with noise rows z (B x n)."""
        s2, n, j0 = self.sigma_sq, self.n, self.oracle_idx
        rows = np.arange(len(z))
        criterion, pick = self._select(self, z)
        criterion += 2.0 * s2 * self.trs  # in place: ||y - H_s y||^2 + 2 sigma^2 tr H_s
        j = np.argmin(criterion, axis=1)  # first index on ties
        sure_min = criterion[rows, j]  # the criterion that selected j
        selected, oracle = pick(j)
        # a row that selects the oracle reads the oracle's own numbers: its slack is exactly 0
        zhz, hz_sq, h_theta_z, bias_resid, bias_hz = (
            np.where(j == j0, o, s) for o, s in zip(oracle, selected))
        zhz_0, hz_sq_0, _, bias_resid_0, _ = oracle

        def centered(s, zhz, hz_sq, bias_resid):  # criteria.centered_variables, per row
            quad = 2.0 * zhz - hz_sq  # z^T (2H - H^T H) z
            return quad / s2 + self.frob_sqs[s] - 2.0 * self.trs[s], -bias_resid / s2

        loss = hz_sq - 2.0 * bias_hz + self.bias_sq[j]  # H_j y - theta0 = H_j z - b_j
        w_j, zlin_j = centered(j, zhz, hz_sq, bias_resid)
        w_0, zlin_0 = centered(j0, zhz_0, hz_sq_0, bias_resid_0)
        lhs = (self.risks[j] - self.risks[j0]) / s2
        cols = {
            "replicate_index": first_index + rows,
            "selected": j,
            "sure_min": sure_min,
            "loss_selected": loss,
            "edf_total": (zhz + h_theta_z) / s2 - self.trs[j],
            "edf_quadratic": zhz / s2 - self.trs[j],
            "edf_linear": h_theta_z / s2,
            "exopt_stat": loss + n * s2 - sure_min,
            "noise_sq_gap": n * s2 - _rowdot(z, z),
            "signal_cross": 2.0 * _rowdot(self.theta0, z),
            "basic_inequality_slack": (w_j - w_0) + 2.0 * (zlin_j - zlin_0) - lhs,
        }
        if self.shells is not None:
            cols["shell"] = self.shells[j]
        return cols


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one (a container pinned to 1 CPU of a larger host has 1), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# (setter, getter) of numpy's bundled OpenBLAS, by the names its builds export
_BLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, which every
    run sets to 1 and restores afterwards, or None, said once on stderr, where
    no known setter is found; then a run uses one worker and leaves BLAS as it is.

    The library is the one bundled with numpy's wheels (numpy.libs, or
    numpy/.dylibs on macOS); loading it again returns the loaded copy. The
    first lookup took 0.1 ms listing the two folders, 0.3 ms with a glob."""
    package = os.path.dirname(np.__file__)
    folders = (os.path.join(package, os.pardir, "numpy.libs"), os.path.join(package, ".dylibs"))
    paths = [os.path.join(folder, name) for folder in folders if os.path.isdir(folder)
             for name in sorted(os.listdir(folder)) if "openblas" in name]
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _BLAS_THREAD_FUNCTIONS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return get_threads, set_threads
    print("sure-lab: no OpenBLAS thread-count setter found; running one worker",
          file=sys.stderr)
    return None


def _run(ctx: _Context, n_reps: int, master_seed: int, n_threads: int) -> ReplicateRecords:
    """Replicates 0 .. n_reps-1 in blocks of ctx.block_len, reduced in index
    order; a record column with an entry beyond the float range raises."""
    starts = range(0, n_reps, ctx.block_len)
    # One worker at a time draws: the per-row loop gives up and retakes the
    # interpreter lock on every row, and two workers in it at once drew 0.75x
    # the rows a second of one (161-row blocks, n = 200).
    drawing = threading.Lock()

    def run_block(lo):
        hi = min(lo + ctx.block_len, n_reps)
        with drawing:
            z = standard_normal_rows(master_seed, lo, hi, ctx.n)
        z *= ctx.sigma
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            return ctx.block(z, lo)

    blas = _blas_threads()
    workers = min(n_threads, len(starts), _cpu_count()) if blas else 1
    # One level of parallelism, and one rounding at any worker count: BLAS runs
    # one thread for every run. Without a setter, one worker and BLAS as it is.
    get_threads, set_threads = blas or (lambda: None, lambda count: None)
    blas_threads = get_threads()
    set_threads(1)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(run_block, starts))
    finally:
        set_threads(blas_threads)
    columns = {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}
    for name, column in columns.items():
        if not np.isfinite(column).all():
            raise ValueError(f"record column {name} is not finite: it overflows the float range")
    return ReplicateRecords(columns, ctx.family.labels)


def _holds(residual, *terms) -> np.ndarray:
    """Per replicate, whether |residual| <= IDENTITY_TOL * sum |term|, with the terms
    that cancel in the residual: the one tolerance rule of the exact identities.
    Absolute values, because an explicit member's trace can be negative."""
    return np.abs(residual) <= IDENTITY_TOL * sum(map(np.abs, terms))


def _estimate(values) -> dict:
    """The mean of a record column and its standard error, None from a single
    replicate. Where a finite column's sum or sum of squares overflows, both
    come from the column scaled by 2^-e, with 2^e above its largest |value|:
    the scaling is exact and both are at most that value, so they are finite."""
    def moments(x):
        return np.mean(x), (np.std(x, ddof=1) / np.sqrt(len(x)) if len(x) > 1 else 0.0)

    with np.errstate(over="ignore"):
        mean, stderr = moments(values)
        if not np.isfinite([mean, stderr]).all() and np.isfinite(values).all():
            e = math.frexp(np.abs(values).max())[1]
            mean, stderr = np.ldexp(moments(np.ldexp(values, -e)), e)
    return {"mean": float(mean), "stderr": float(stderr) if len(values) > 1 else None}


def _summarize(ctx: _Context, records: ReplicateRecords) -> MonteCarloSummary:
    cols = records.columns
    n_reps = len(records)
    estimates = {name: _estimate(cols[column]) for name, column in ESTIMATE_COLUMNS.items()}
    counts = np.bincount(cols["selected"], minlength=len(ctx.family))
    shell_histogram = None
    if "shell" in cols:
        shells, shell_counts = np.unique(cols["shell"], return_counts=True)
        shell_histogram = dict(zip(map(str, shells.tolist()), shell_counts.tolist()))

    # Each identity: its residual in edf units, then the terms that cancel in it.
    s2, j, n, slack = ctx.sigma_sq, cols["selected"], ctx.n, cols["basic_inequality_slack"]
    tr, edf, quad, lin = ctx.trs[j], cols["edf_total"], cols["edf_quadratic"], cols["edf_linear"]
    sure_j, cross = cols["sure_min"] / s2, cols["signal_cross"] / s2
    gap = cols["noise_sq_gap"] / s2
    z_sq = n - gap  # ||z||^2 / sigma^2
    holds = {
        "edf_decomposition": _holds(edf - quad - lin, edf + tr, quad + tr, lin, 2.0 * tr),
        "basic_inequality": _holds(np.minimum(slack, 0.0), sure_j, sure_j + slack, z_sq,
                                   ctx.risks[j] / s2, ctx.risks[ctx.oracle_idx] / s2),
        "exopt_linkage": _holds(cols["exopt_stat"] / s2 - gap + cross - 2.0 * edf,
                                cols["loss_selected"] / s2, 2.0 * n, sure_j, 2.0 * (edf + tr),
                                2.0 * tr, z_sq, cross),
    }
    return MonteCarloSummary(
        n_reps=n_reps,
        estimates=estimates,
        shell_histogram=shell_histogram,
        selection_histogram=dict(zip(ctx.family.labels, counts.tolist())),
        identity_pass_rates={name: int(np.count_nonzero(ok)) / n_reps
                             for name, ok in holds.items()},
        r_star=ctx.r_star,
        h_op=ctx.family.h_op,
        family_size=len(ctx.family),
    )


def run_experiment(family: SmootherFamily, model: GaussianSequenceModel,
                   n_reps: int, master_seed: int, n_threads: int | None = 1,
                   keep_records: bool = False):
    """Run n_reps seeded replicates and reduce them in index order.

    Replicate i always draws derive_stream(master_seed, i)'s noise, block
    boundaries depend only on n_reps and the family's shape, and BLAS runs one
    thread for every run, so results are byte-identical at any n_threads and
    any n, whatever the scheduling. At most min(n_threads, blocks, CPUs this
    process may run on) worker threads run; n_threads=None means every such
    CPU. Returns (summary, records); records is None unless keep_records is set.
    """
    n_reps = validate.integer(n_reps, "n_reps", 1)
    n_threads = _cpu_count() if n_threads is None else validate.integer(n_threads, "n_threads", 1)
    ctx = _Context(family, model)
    records = _run(ctx, n_reps, master_seed, n_threads)
    return _summarize(ctx, records), (records if keep_records else None)


def sure_unbiasedness_check(smoother: Smoother, model: GaussianSequenceModel,
                            n_reps: int, master_seed: int):
    """Monte Carlo check that E[SURE(s)] = R(s) + n sigma^2 for a fixed smoother.

    The mean and its standard error are the sure_min_mean estimate of a
    one-member family's run.
    Returns (mean_sure, target, z_score).
    """
    validate.integer(n_reps, "n_reps", 2)  # a z-score needs a standard error
    summary, _ = run_experiment(SmootherFamily.of([smoother]), model, n_reps, master_seed)
    est = summary.estimates["sure_min_mean"]
    mean, stderr = est["mean"], est["stderr"]
    target = criteria.risk(smoother, model) + model.n * model.sigma_sq
    if stderr == 0.0:  # degenerate case, e.g. H = I has constant SURE
        z_score = 0.0 if mean == target else math.inf
    else:
        z_score = (mean - target) / stderr
    return mean, target, z_score


def csv_field(text: str) -> str:
    """`text` as one RFC 4180 field: quoted, with inner quotes doubled, when it
    holds a comma, a quote, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def records_to_csv(records: ReplicateRecords, fh) -> None:
    """Write records to the text file fh as CSV, CSV_CHUNK_ROWS rows at a time.

    Floats keep full round-trip precision (repr), "selected" is written as the
    member label (a csv_field) and "shell" is empty when the column is absent.
    """
    cols, labels = records.columns, [csv_field(label) for label in records.labels]
    fh.write(",".join(RECORD_CSV_COLUMNS) + "\n")
    for lo in range(0, len(records), CSV_CHUNK_ROWS):
        part = {name: col[lo:lo + CSV_CHUNK_ROWS].tolist() for name, col in cols.items()}
        cells = {
            "replicate_index": map(str, part["replicate_index"]),
            "selected": [labels[j] for j in part["selected"]],
            "shell": map(str, part["shell"]) if "shell" in part else itertools.repeat(""),
        }
        columns = [cells[name] if name in cells else map(repr, part[name])
                   for name in RECORD_CSV_COLUMNS]
        fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
