"""Seeded replicated experiments over smoother families.

Replicates run in fixed blocks of consecutive indices: one matrix product
applies every member to a block's draws, SURE selects, and the statistics
whose exact identities (edf decomposition, basic inequality, excess-optimism
linkage) are checked on every draw come out as columns. Block boundaries
depend only on n_reps and the family's shape, so results do not depend on
the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import criteria
from .sequence_model import GaussianSequenceModel, standard_normal_rows
from .smoothers import Smoother, SmootherFamily

__all__ = [
    "ReplicateRecord",
    "ReplicateRecords",
    "MonteCarloSummary",
    "ShellDecayReport",
    "replicate",
    "run_experiment",
    "sure_unbiasedness_check",
    "shell_decay_report",
    "records_to_csv",
    "RECORD_CSV_COLUMNS",
]

IDENTITY_TOL = 1e-8
RECORDS_MEMORY_GUARD = 10**6
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
class ReplicateRecord:
    """Per-draw statistics of one SURE selection.

    noise_sq_gap is n sigma^2 - ||z||^2 and signal_cross is 2 theta0^T z; the
    exact per-replicate linkage is
    exopt_stat = 2 sigma^2 edf_total + noise_sq_gap - signal_cross.
    """

    replicate_index: int
    selected: str
    sure_min: float
    loss_selected: float
    edf_total: float
    edf_quadratic: float
    edf_linear: float
    exopt_stat: float
    noise_sq_gap: float
    signal_cross: float
    shell: int | None
    basic_inequality_slack: float


@dataclass(frozen=True)
class MonteCarloSummary:
    """Deterministic reduction of an experiment's replicate records."""

    n_reps: int
    estimates: dict  # name -> {"mean": float, "stderr": float | None}
    shell_histogram: dict | None  # None when r_star is degenerate
    selection_histogram: dict
    decomposition_pass_rate: float
    basic_inequality_pass_rate: float
    exopt_identity_pass_rate: float
    r_star: float
    h_op: float
    family_size: int

    @property
    def all_identities_pass(self) -> bool:
        return (self.decomposition_pass_rate == 1.0
                and self.basic_inequality_pass_rate == 1.0
                and self.exopt_identity_pass_rate == 1.0)

    def to_json_dict(self) -> dict:
        return {
            "n_reps": self.n_reps,
            "estimates": self.estimates,
            "shell_histogram": (None if self.shell_histogram is None else
                                {str(k): v for k, v in self.shell_histogram.items()}),
            "selection_histogram": dict(self.selection_histogram),
            "identity_pass_rates": {
                "edf_decomposition": self.decomposition_pass_rate,
                "basic_inequality": self.basic_inequality_pass_rate,
                "exopt_linkage": self.exopt_identity_pass_rate,
            },
            "r_star": self.r_star,
            "h_op": self.h_op,
            "family_size": self.family_size,
        }


RECORD_CSV_COLUMNS = tuple(f.name for f in fields(ReplicateRecord))
_INT_COLUMNS = ("replicate_index", "selected", "shell")  # "selected" holds member indices
_FLOAT_COLUMNS = tuple(c for c in RECORD_CSV_COLUMNS if c not in _INT_COLUMNS)


class ReplicateRecords:
    """Replicate statistics stored as columns; row i is a ReplicateRecord.

    `columns` maps each ReplicateRecord field to an array, except that
    "selected" holds member indices into `labels` and "shell" is absent when
    the shell machinery is disabled (degenerate r_star).
    """

    def __init__(self, columns: dict, labels):
        self.columns = columns
        self.labels = labels

    def __len__(self) -> int:
        return len(self.columns["replicate_index"])

    def __getitem__(self, i: int) -> ReplicateRecord:
        i = range(len(self))[i]  # negative indices and bounds, as for a list
        cols = self.columns
        return ReplicateRecord(
            replicate_index=int(cols["replicate_index"][i]),
            selected=self.labels[cols["selected"][i]],
            shell=int(cols["shell"][i]) if "shell" in cols else None,
            **{name: float(cols[name][i]) for name in _FLOAT_COLUMNS})

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        return isinstance(other, ReplicateRecords) and list(self) == list(other)


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


def _run(ctx: _Context, n_reps: int, master_seed: int, n_threads: int = 1) -> ReplicateRecords:
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


def replicate(family: SmootherFamily, model: GaussianSequenceModel,
              stream: np.random.Generator, replicate_index: int = 0) -> ReplicateRecord:
    """Run a single replicate (sample, select by SURE, record) as a one-row block."""
    ctx = _Context(family, model)
    z = model.sigma * stream.standard_normal(model.n)
    return ReplicateRecords(ctx.block(z[None, :], replicate_index), ctx.family.labels)[0]


def _mean_stderr(values: np.ndarray):
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, None  # stderr unavailable for a single replicate
    stderr = float(np.std(values, ddof=1) / np.sqrt(values.size))
    return mean, stderr


def _summarize(ctx: _Context, records: ReplicateRecords) -> MonteCarloSummary:
    cols = records.columns
    n_reps = len(records)
    estimates = {}
    for name, column in ESTIMATE_COLUMNS.items():
        mean, stderr = _mean_stderr(cols[column])
        estimates[name] = {"mean": mean, "stderr": stderr}
    counts = np.bincount(cols["selected"], minlength=len(ctx.family))
    shell_histogram = None
    if "shell" in cols:
        shells, shell_counts = np.unique(cols["shell"], return_counts=True)
        shell_histogram = dict(zip(shells.tolist(), shell_counts.tolist()))

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
        decomposition_pass_rate=int(np.count_nonzero(decomp_ok)) / n_reps,
        basic_inequality_pass_rate=int(np.count_nonzero(basic_ok)) / n_reps,
        exopt_identity_pass_rate=int(np.count_nonzero(exopt_ok)) / n_reps,
        r_star=ctx.r_star,
        h_op=ctx.family.h_op,
        family_size=len(ctx.family),
    )


def run_experiment(family: SmootherFamily, model: GaussianSequenceModel,
                   n_reps: int, master_seed: int, n_threads: int = 1,
                   keep_records: bool = False, force_records: bool = False):
    """Run n_reps seeded replicates and reduce them in index order.

    Replicate i always draws derive_stream(master_seed, i)'s noise, and block
    boundaries depend only on n_reps and the family's shape, so results are
    independent of n_threads and of scheduling. At most
    min(n_threads, blocks, CPUs) worker threads run. Returns (summary,
    records); records is None unless keep_records is set (guarded above 10^6
    replicates unless force_records overrides).
    """
    n_reps = int(n_reps)
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    if keep_records and n_reps > RECORDS_MEMORY_GUARD and not force_records:
        raise ValueError(
            f"refusing to retain {n_reps} records (> {RECORDS_MEMORY_GUARD}); "
            "pass force_records=True to override")
    ctx = _Context(family, model)
    records = _run(ctx, n_reps, master_seed, n_threads)
    return _summarize(ctx, records), (records if keep_records else None)


def sure_unbiasedness_check(smoother: Smoother, model: GaussianSequenceModel,
                            n_reps: int, master_seed: int):
    """Monte Carlo check that E[SURE(s)] = R(s) + n sigma^2 for a fixed smoother.

    SURE values are the sure_min column of a one-member family's run.
    Returns (mean_sure, target, z_score).
    """
    n_reps = int(n_reps)
    if n_reps < 2:
        raise ValueError("n_reps must be >= 2 for a z-score")
    ctx = _Context(SmootherFamily.of([smoother]), model)
    target = float(ctx.risks[0]) + model.n * model.sigma_sq
    mean, stderr = _mean_stderr(_run(ctx, n_reps, master_seed).columns["sure_min"])
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


def shell_decay_report(records, family: SmootherFamily,
                       model: GaussianSequenceModel, c_test: float = 1.0) -> ShellDecayReport:
    """Tabulate P(selected in shell l) against |S_l| exp(-c 2^l r* / h^2), h = max(1, h_op).

    The exponential is a shape comparison with a caller-supplied constant, not
    a certified bound.
    """
    risks = np.array([criteria.risk(m, model) for m in family.members])
    rs = float(risks.min()) / model.sigma_sq
    if rs <= 0:
        raise criteria.DegenerateFamilyError(
            "shell decay report requires r_star > 0; family contains a zero-risk member")
    shells = criteria.shell_indices(risks, model.sigma_sq, rs)
    counts = np.bincount(records.columns["shell"], minlength=shells.max() + 1)
    members = np.bincount(shells, minlength=counts.size)
    rows = [{
        "shell": l,
        "frequency": count / len(records),
        "members": size,
        "lemma_shape": size * float(np.exp(-c_test * 2.0**l * rs / family.h_op_effective**2)),
    } for l, (count, size) in enumerate(zip(counts.tolist(), members.tolist()))]
    freqs = [row["frequency"] for row in rows]
    first = next((i for i, f in enumerate(freqs) if f > 0), len(freqs))
    violations = [rows[i]["shell"] for i in range(first + 1, len(rows))
                  if freqs[i] > freqs[i - 1]]
    return ShellDecayReport(rows=rows, violations=violations, r_star=rs, h_op=family.h_op)


def records_to_csv(records: ReplicateRecords) -> str:
    """Serialize records column by column with full round-trip float precision (repr)."""
    cols = records.columns
    cells = {
        "replicate_index": map(str, cols["replicate_index"].tolist()),
        "selected": [records.labels[j] for j in cols["selected"].tolist()],
        "shell": (map(str, cols["shell"].tolist()) if "shell" in cols
                  else [""] * len(records)),
    }
    columns = [cells[name] if name in cells else map(repr, cols[name].tolist())
               for name in RECORD_CSV_COLUMNS]
    lines = [",".join(RECORD_CSV_COLUMNS), *map(",".join, zip(*columns))]
    return "\n".join(lines) + "\n"
