"""Seeded replicated experiments over smoother families.

Replicates run in fixed blocks of consecutive indices: one matrix product
applies every member to a block's draws, SURE selects, and the statistics
whose exact identities (edf decomposition, basic inequality, excess-optimism
linkage) are checked on every draw come out as columns. Block boundaries
depend only on n_reps and the family's shape, so results do not depend on
the worker count.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import criteria
from .sequence_model import GaussianSequenceModel, standard_normal_rows
from .smoothers import Smoother, SmootherFamily

__all__ = [
    "ReplicateRecords",
    "MonteCarloSummary",
    "ShellDecayReport",
    "run_experiment",
    "sure_unbiasedness_check",
    "shell_decay_report",
    "records_to_csv",
    "RECORD_CSV_COLUMNS",
]

IDENTITY_TOL = 1e-8
# A block (1 to 1024 replicates) keeps its products H_s y within BLOCK_BYTES;
# larger blocks raised peak memory without speeding up the matrix product.
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
# each) at a time, so the CSV's memory does not grow with n_reps.
CSV_CHUNK_ROWS = 4096


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


class _Context:
    """Per-(family, model) arrays shared by every block of replicates."""

    def __init__(self, family: SmootherFamily, model: GaussianSequenceModel):
        if family.n != model.n:
            raise ValueError(
                f"family dimension {family.n} does not match model dimension {model.n}")
        self.family = family
        self.n = model.n
        self.sigma = model.sigma
        self.sigma_sq = model.sigma_sq
        self.theta0 = model.theta0
        h_stack = np.stack([m.h for m in family.members])
        self.h_flat = h_stack.reshape(-1, self.n)  # member s is rows s*n .. s*n + n - 1
        self.trs = np.array([m.df for m in family.members])
        self.frob_sqs = np.array([m.frob_sq for m in family.members])
        self.h_theta = h_stack @ self.theta0
        self.bias = self.theta0 - self.h_theta
        self.risks = np.array([criteria.risk(m, model) for m in family.members])
        self.oracle_idx = int(np.argmin(self.risks))
        self.r_star = float(self.risks[self.oracle_idx]) / self.sigma_sq
        # degenerate r_star disables the shell machinery
        self.shells = (criteria.shell_indices(self.risks, self.sigma_sq, self.r_star)
                       if self.r_star > 0 else None)
        self.block_len = min(max(BLOCK_BYTES // (8 * len(family) * self.n), 1), 1024)

    def block(self, z: np.ndarray, first_index: int) -> dict:
        """Record columns of replicates first_index, ... with noise rows z (B x n)."""
        s2, n, theta0 = self.sigma_sq, self.n, self.theta0
        rows = np.arange(len(z))
        y = theta0 + z
        hy = (y @ self.h_flat.T).reshape(len(z), -1, n)  # hy[b, s] = H_s y_b
        sure = np.empty(hy.shape[:2])
        for s in range(hy.shape[1]):  # one (B, |S|, n) residual array was 1.4x slower
            resid = y - hy[:, s]
            sure[:, s] = _rowdot(resid, resid)
        sure += 2.0 * s2 * self.trs
        j = np.argmin(sure, axis=1)  # first index on ties
        j0 = self.oracle_idx
        hy_j = hy[rows, j]

        def centered(s, hz):  # criteria.centered_variables of member(s) s, per row
            quad = 2.0 * _rowdot(z, hz) - _rowdot(hz, hz)  # z^T (2H - H^T H) z
            w = quad / s2 + self.frob_sqs[s] - 2.0 * self.trs[s]
            return w, -_rowdot(self.bias[s], z - hz) / s2

        hz_j = hy_j - self.h_theta[j]
        w_j, zlin_j = centered(j, hz_j)
        w_0, zlin_0 = centered(j0, hy[:, j0] - self.h_theta[j0])
        diff = hy_j - theta0
        loss = _rowdot(diff, diff)
        sure_min = sure[rows, j]
        lhs = (self.risks[j] - self.risks[j0]) / s2
        cols = {
            "replicate_index": first_index + rows,
            "selected": j,
            "sure_min": sure_min,
            "loss_selected": loss,
            "edf_total": _rowdot(hy_j, z) / s2 - self.trs[j],
            "edf_quadratic": _rowdot(z, hz_j) / s2 - self.trs[j],
            "edf_linear": _rowdot(self.h_theta[j], z) / s2,
            "exopt_stat": loss + n * s2 - sure_min,
            "noise_sq_gap": n * s2 - _rowdot(z, z),
            "signal_cross": 2.0 * _rowdot(theta0, z),
            "basic_inequality_slack": (w_j - w_0) + 2.0 * (zlin_j - zlin_0) - lhs,
        }
        if self.shells is not None:
            cols["shell"] = self.shells[j]
        return cols


def _run(ctx: _Context, n_reps: int, master_seed: int, n_threads: int) -> ReplicateRecords:
    """Replicates 0 .. n_reps-1 in blocks of ctx.block_len, reduced in index order."""
    starts = range(0, n_reps, ctx.block_len)

    def run_block(lo):
        hi = min(lo + ctx.block_len, n_reps)
        return ctx.block(ctx.sigma * standard_normal_rows(master_seed, lo, hi, ctx.n), lo)

    workers = min(int(n_threads), len(starts), os.cpu_count() or 1)
    if workers <= 1:
        blocks = [run_block(lo) for lo in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(run_block, starts))
    return ReplicateRecords({name: np.concatenate([b[name] for b in blocks])
                             for name in blocks[0]}, ctx.family.labels)


def _summarize(ctx: _Context, records: ReplicateRecords) -> MonteCarloSummary:
    cols = records.columns
    n_reps = len(records)
    estimates = {}
    for name, column in ESTIMATE_COLUMNS.items():
        values = cols[column]
        estimates[name] = {
            "mean": float(np.mean(values)),
            # None: no standard error from a single replicate
            "stderr": float(np.std(values, ddof=1) / np.sqrt(n_reps)) if n_reps > 1 else None,
        }
    counts = np.bincount(cols["selected"], minlength=len(ctx.family))
    shell_histogram = None
    if "shell" in cols:
        shells, shell_counts = np.unique(cols["shell"], return_counts=True)
        shell_histogram = dict(zip(map(str, shells.tolist()), shell_counts.tolist()))

    edf, exopt = cols["edf_total"], cols["exopt_stat"]
    decomp_ok = (np.abs(edf - (cols["edf_quadratic"] + cols["edf_linear"]))
                 <= IDENTITY_TOL * (1.0 + np.abs(edf)))
    basic_ok = cols["basic_inequality_slack"] >= -IDENTITY_TOL
    linkage = (exopt - 2.0 * ctx.sigma_sq * edf
               - (cols["noise_sq_gap"] - cols["signal_cross"]))
    exopt_ok = np.abs(linkage) <= IDENTITY_TOL * (1.0 + np.abs(exopt))
    return MonteCarloSummary(
        n_reps=n_reps,
        estimates=estimates,
        shell_histogram=shell_histogram,
        selection_histogram=dict(zip(ctx.family.labels, counts.tolist())),
        identity_pass_rates={
            "edf_decomposition": int(np.count_nonzero(decomp_ok)) / n_reps,
            "basic_inequality": int(np.count_nonzero(basic_ok)) / n_reps,
            "exopt_linkage": int(np.count_nonzero(exopt_ok)) / n_reps,
        },
        r_star=ctx.r_star,
        h_op=ctx.family.h_op,
        family_size=len(ctx.family),
    )


def run_experiment(family: SmootherFamily, model: GaussianSequenceModel,
                   n_reps: int, master_seed: int, n_threads: int = 1,
                   keep_records: bool = False):
    """Run n_reps seeded replicates and reduce them in index order.

    Replicate i always draws derive_stream(master_seed, i)'s noise, and block
    boundaries depend only on n_reps and the family's shape, so results are
    independent of n_threads and of scheduling. At most
    min(n_threads, blocks, CPUs) worker threads run. Returns (summary,
    records); records is None unless keep_records is set.
    """
    n_reps = int(n_reps)
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
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
    if int(n_reps) < 2:
        raise ValueError("n_reps must be >= 2 for a z-score")
    summary, _ = run_experiment(SmootherFamily.of([smoother]), model, n_reps, master_seed)
    est = summary.estimates["sure_min_mean"]
    mean, stderr = est["mean"], est["stderr"]
    target = criteria.risk(smoother, model) + model.n * model.sigma_sq
    if stderr == 0.0:  # degenerate case, e.g. H = I has constant SURE
        z_score = 0.0 if mean == target else math.inf
    else:
        z_score = (mean - target) / stderr
    return mean, target, z_score


@dataclass(frozen=True)
class ShellDecayReport:
    """Empirical shell frequencies next to the lemma-shaped decay profile."""

    rows: list  # dicts: shell, frequency, members, lemma_shape
    violations: list  # shells where frequency increased after first occupied
    r_star: float
    h_op: float

    @property
    def nonincreasing(self) -> bool:
        return not self.violations


def shell_decay_report(summary: MonteCarloSummary, family: SmootherFamily,
                       model: GaussianSequenceModel, c_test: float = 1.0) -> ShellDecayReport:
    """Tabulate P(selected in shell l) against |S_l| exp(-c 2^l r* / h^2), h = max(1, h_op).

    Frequencies come from the summary's shell histogram of a run of `family`
    under `model`. The exponential is a shape comparison with a caller-supplied
    constant, not a certified bound.
    """
    if summary.shell_histogram is None:
        raise criteria.DegenerateFamilyError(
            "shell decay report requires r_star > 0; family contains a zero-risk member")
    rs = summary.r_star
    risks = np.array([criteria.risk(m, model) for m in family.members])
    members = np.bincount(criteria.shell_indices(risks, model.sigma_sq, rs)).tolist()
    rows = [{
        "shell": l,
        "frequency": summary.shell_histogram.get(str(l), 0) / summary.n_reps,
        "members": size,
        "lemma_shape": size * float(np.exp(-c_test * 2.0**l * rs / family.h_op_effective**2)),
    } for l, size in enumerate(members)]
    freqs = [row["frequency"] for row in rows]
    first = next((i for i, f in enumerate(freqs) if f > 0), len(freqs))
    violations = [rows[i]["shell"] for i in range(first + 1, len(rows))
                  if freqs[i] > freqs[i - 1]]
    return ShellDecayReport(rows=rows, violations=violations, r_star=rs, h_op=family.h_op)


def records_to_csv(records: ReplicateRecords, fh) -> None:
    """Write records to the text file fh as CSV, CSV_CHUNK_ROWS rows at a time.

    Floats keep full round-trip precision (repr), "selected" is written as the
    member label and "shell" is empty when the column is absent.
    """
    cols, labels = records.columns, records.labels
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
