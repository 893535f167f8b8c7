#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `sure-lab simulate`.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in perfbench/workloads.py. The seed fixes the
generated configs; the program sees only those files. With --trace 0 the run
reports the end-to-end metrics, each the median of its samples:

  setup_s      config read to built family, timed around the same work
               `sure-lab family-info --config` does (in-process, repeated)
  reps_per_s   replicates per second of `montecarlo.run_experiment` on the
               built family at the workload's thread count
  wall_s       one `sure-lab simulate` call, summary and records written,
               timed inside a fresh process after imports and a warm-up
  cpu_s        user + system CPU time of that call, all threads
  peak_rss_mb  peak resident memory of the process that made that call

With --trace 1 a separate run wraps the library's layer functions with
timers and counters (perfbench/tracer.py) and reports the per-layer metrics
of one simulate call, the thread scaling of the engine and the traced and
untraced wall time of the same in-process call.

Every operation goes through a correctness gate; the last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Quartiles, sample counts and the environment are printed above it and
written to .perfbench_out/.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin the BLAS pools before numpy loads, here and in every child process, so
# worker threads x BLAS threads never exceeds the core count.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "reps_per_s": "1/s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "smoothers.build_s": "s",
    "smoothers.opnorm_s": "s",
    "smoothers.opnorm_calls": "count",
    "smoothers.knn_build_s": "s",
    "smoothers.krr_build_s": "s",
    "smoothers.build_failed": "count",
    "cli.config_bytes": "bytes",
    "cli.config_load_s": "s",
    "cli.report_s": "s",
    "cli.summary_bytes": "bytes",
    "criteria.risk_calls": "count",
    "criteria.risk_s": "s",
    "sequence_model.stream_calls": "count",
    "sequence_model.stream_s": "s",
    "montecarlo.run_s": "s",
    "montecarlo.engine_s": "s",
    "montecarlo.engine_us_per_rep": "us",
    "montecarlo.selection_gflops_computed": "GFLOP",
    "montecarlo.thread_scaling": "x",
    "montecarlo.csv_s": "s",
    "montecarlo.csv_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
}

# Share of a run's seconds each end-to-end phase gets, and the fewest samples
# it takes. A scheduler runs one sample at a time of the phase furthest
# behind its share, so the phases interleave and a burst of load on the
# machine moves every metric a little instead of one metric entirely. Many
# short samples and their median shrug off such bursts; the simulate phase
# gets the largest share because wall_s, cpu_s and peak_rss_mb come from it.
# Set-up samples only need a steady median over many runs, not within one.
PHASE_SHARES = {"setup": 0.1, "engine": 0.2, "simulate": 0.7}
MIN_SAMPLES = {"setup": 2, "engine": 3, "simulate": 3}
MIN_TRACED_CALLS = 2
ENGINE_WARMUP_RUNS = 2
CHILD_TIMEOUT_S = 120


def _median_quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


class Ops:
    """Operations attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, failure):
        self.attempted += 1
        if failure:
            self.failures.append(f"{what}: {failure}")
        return not failure


def summary_failure(summary, n_reps):
    """Why a simulate summary fails the gate, or None when it passes."""
    if summary["n_reps"] != n_reps:
        return f"summary.n_reps {summary['n_reps']} != {n_reps}"
    selected = sum(summary["selection_histogram"].values())
    if selected != n_reps:
        return f"selection_histogram sums to {selected}, not {n_reps}"
    low = {k: v for k, v in summary["identity_pass_rates"].items() if v < 1.0}
    if low:
        return f"identity pass rates below 1.0: {low}"
    return None


def environment(nproc):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": dict(BLAS_ENV),
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


class Bench:
    """One workload at one seed: its config files, gate and measurements."""

    def __init__(self, workload, seed, work, nproc):
        from sure_lab import smoothers
        from sure_lab.sequence_model import GaussianSequenceModel, make_theta0

        self.workload = workload
        self.seed = seed
        self.work = work
        self.nproc = nproc
        self.threads = nproc
        self.ops = Ops()
        self.doc = workloads.experiment_doc(workload, seed)
        self.config = work / "config.json"
        self.config.write_bytes(workloads.dumps(self.doc))
        self.warmup_config = work / "warmup.json"
        self.warmup_config.write_bytes(workloads.dumps(workloads.WARMUP_DOC))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self._warm_up()
        # The engine phase needs the built family; build it once through the
        # public API, outside every timed region.
        model = self.doc["model"]
        theta0 = dict(model["theta0"])
        self.model = GaussianSequenceModel(
            make_theta0(theta0.pop("kind"), model["n"], **theta0), model["sigma"])
        self.family = smoothers.family_from_doc({
            "schema_version": 1, "n": model["n"],
            "smoothers": self.doc["family"]["smoothers"]})
        # The first engine runs in a process are slower (1.6x measured at n=2
        # with records) while the allocator grows the heap for the records.
        for _ in range(ENGINE_WARMUP_RUNS):
            self.reps_once(self.threads)

    # -- operations -------------------------------------------------------

    def _warm_up(self):
        from sure_lab import cli

        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["family-info", "--config", str(self.warmup_config)]),
                     cli.main(["simulate", "--config", str(self.warmup_config),
                               "--out", str(self.work / "warmup-summary.json")])]
        if codes != [0, 0]:
            raise RuntimeError(f"warm-up failed with exit codes {codes}")

    def setup_once(self):
        """Seconds of one `family-info --config` call, or None if it failed."""
        from sure_lab import cli

        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["family-info", "--config", str(self.config)])
        elapsed = time.perf_counter() - start
        rows = buf.getvalue().count("\n")
        expected = self.workload.members + 2  # header, members, h_op line
        failure = (f"exit code {code}" if code != 0 else
                   f"{rows} output lines, expected {expected}" if rows != expected else None)
        return elapsed if self.ops.record("family-info", failure) else None

    def reps_once(self, threads):
        """Replicates per second of one run_experiment call, or None."""
        from sure_lab import montecarlo

        n_reps = self.workload.n_reps
        start = time.perf_counter()
        summary, records = montecarlo.run_experiment(
            self.family, self.model, n_reps, self.doc["master_seed"],
            n_threads=threads, keep_records=self.workload.records)
        elapsed = time.perf_counter() - start
        failure = summary_failure(summary.to_json_dict(), n_reps)
        if not failure and self.workload.records and len(records) != n_reps:
            failure = f"{len(records)} records, expected {n_reps}"
        return n_reps / elapsed if self.ops.record("run_experiment", failure) else None

    def simulate_args(self, threads, tag):
        args = ["--config", str(self.config), "--threads", str(threads),
                "--out", str(self.work / f"summary-{tag}.json")]
        if self.workload.records:
            args += ["--records", str(self.work / f"records-{tag}.csv")]
        return args

    def simulate_failure(self, code, tag):
        if code != 0:
            return f"exit code {code}"
        with open(self.work / f"summary-{tag}.json") as fh:
            failure = summary_failure(json.load(fh)["summary"], self.workload.n_reps)
        if not failure and self.workload.records:
            with open(self.work / f"records-{tag}.csv", "rb") as fh:
                lines = sum(1 for _ in fh)
            if lines != self.workload.n_reps + 1:
                failure = f"records CSV has {lines} lines, expected {self.workload.n_reps + 1}"
        return failure

    def simulate_child(self, threads, tag):
        """Cost of one simulate call in a fresh process, or None if it failed."""
        cmd = [sys.executable, str(HERE / "child.py"), str(self.warmup_config),
               str(self.work / "warmup-child.json"), "--", *self.simulate_args(threads, tag)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.ops.record("simulate", f"timed out after {CHILD_TIMEOUT_S} s")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.ops.record("simulate", f"child exited {proc.returncode}: {tail[0]}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = self.ops.record("simulate", self.simulate_failure(result["exit"], tag))
        return result if ok else None

    def simulate_inprocess(self, threads, tag):
        """Wall seconds of one in-process simulate call, or None."""
        from sure_lab import cli

        start = time.perf_counter()
        code = cli.main(["simulate", *self.simulate_args(threads, tag)])
        elapsed = time.perf_counter() - start
        return elapsed if self.ops.record("simulate", self.simulate_failure(code, tag)) else None

    def check_thread_identity(self, tag, simulate):
        """Simulate at the other thread count; the summary must match `tag`'s."""
        other = 1 if self.threads > 1 else 2
        if simulate(other, "other-threads") is None:
            return
        same = ((self.work / f"summary-{tag}.json").read_bytes()
                == (self.work / "summary-other-threads.json").read_bytes())
        self.ops.record("thread identity", None if same else
                        f"summary at --threads {other} differs from --threads {self.threads}")

    # -- runs -------------------------------------------------------------

    def end_to_end(self, seconds):
        samples = {name: [] for name in END_TO_END}
        spent = dict.fromkeys(PHASE_SHARES, 0.0)
        count = dict.fromkeys(PHASE_SHARES, 0)
        first_call = None
        while (sum(spent.values()) < seconds
               or any(count[p] < MIN_SAMPLES[p] for p in PHASE_SHARES)):
            phase = min(PHASE_SHARES, key=lambda p: (count[p] >= MIN_SAMPLES[p],
                                                     spent[p] / PHASE_SHARES[p]))
            start = time.perf_counter()
            if phase == "setup":
                value = self.setup_once()
                if value is not None:
                    samples["setup_s"].append(value)
            elif phase == "engine":
                rate = self.reps_once(self.threads)
                if rate is not None:
                    samples["reps_per_s"].append(rate)
            else:
                tag = f"r{count[phase]}"
                result = self.simulate_child(self.threads, tag)
                if result is not None:
                    first_call = first_call or tag
                    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                        samples[name].append(result[name])
            spent[phase] += time.perf_counter() - start
            count[phase] += 1
        if first_call is not None:
            self.check_thread_identity(first_call, self.simulate_child)
        return samples

    def layers(self, seconds):
        from sure_lab import smoothers

        wl = self.workload
        samples = {name: [] for name in PER_LAYER}
        budget_end = time.perf_counter() + seconds

        # Engine thread scaling, untraced: alternate 1 thread and nproc.
        rates = {1: [], self.nproc: []}
        for _ in range(2):
            for threads in rates:
                rate = self.reps_once(threads)
                if rate is not None:
                    rates[threads].append(rate)
        if rates[1] and rates[self.nproc]:
            samples["montecarlo.thread_scaling"].append(
                statistics.median(rates[self.nproc]) / statistics.median(rates[1]))

        # Alternate untraced and traced in-process simulate calls while
        # another pair fits in the run.
        tr = tracer.Tracer()
        n, size, reps = wl.n, wl.members, wl.n_reps
        calls, pair_s, first_untraced = 0, 0.0, None
        while calls < MIN_TRACED_CALLS or time.perf_counter() + pair_s <= budget_end:
            pair_start = time.perf_counter()
            untraced = self.simulate_inprocess(self.threads, f"u{calls}")
            if untraced is not None:
                samples["trace.untraced_wall_s"].append(untraced)
                first_untraced = first_untraced or f"u{calls}"
            tag = f"t{calls}"
            with tr:
                wall = self.simulate_inprocess(self.threads, tag)
            pair_s = time.perf_counter() - pair_start
            calls += 1
            if wall is None:
                continue
            _, run_s, _ = tr.get("montecarlo.run_experiment")
            stream_calls, stream_s, _ = tr.get("sequence_model.derive_stream")
            # derive_stream time is summed over the worker threads; subtract
            # each worker's share from the wall time of the run.
            engine_s = run_s - stream_s / self.threads
            records = self.work / f"records-{tag}.csv"
            values = {
                "smoothers.build_s": tr.get("smoothers.build_smoother")[1],
                "smoothers.opnorm_s": tr.get("smoothers.operator_norm")[1],
                "smoothers.opnorm_calls": tr.get("smoothers.operator_norm")[0],
                "smoothers.knn_build_s": tr.get("smoothers.knn_from_points")[1],
                "smoothers.krr_build_s": tr.get("smoothers.krr_from_gram")[1],
                "smoothers.build_failed": tr.failures("smoothers"),
                "cli.config_bytes": self.config.stat().st_size,
                "cli.config_load_s": tr.get("cli._load_json")[1],
                "cli.report_s": tr.get("cli._write_report")[1],
                "cli.summary_bytes": (self.work / f"summary-{tag}.json").stat().st_size,
                "criteria.risk_calls": tr.get("criteria.risk")[0],
                "criteria.risk_s": tr.get("criteria.risk")[1],
                "sequence_model.stream_calls": stream_calls,
                "sequence_model.stream_s": stream_s,
                "montecarlo.run_s": run_s,
                "montecarlo.engine_s": engine_s,
                "montecarlo.engine_us_per_rep": 1e6 * engine_s / reps,
                # |S| matvecs plus four n x n products per replicate (two W_s
                # quadratic forms, each a matvec and a dot).
                "montecarlo.selection_gflops_computed": (2 * size * n * n + 4 * n * n) * reps / 1e9,
                "montecarlo.csv_s": tr.get("montecarlo.records_to_csv")[1],
                "montecarlo.csv_bytes": records.stat().st_size if records.exists() else 0,
                "trace.wall_s": wall,
            }
            for name, value in values.items():
                samples[name].append(value)

        # Known defects: operator_norm gives up on this Gram at a small lambda
        # and on some k-NN layouts. Probe them, so a fix shows as a count.
        probe = {
            "krr": lambda: smoothers.krr_from_gram(
                "probe", workloads.krr_gram(self.seed, n), workloads.KRR_PROBE_LAMBDA),
            "knn": lambda: smoothers.knn_from_points(
                "probe", workloads.knn_probe_points(), workloads.KNN_PROBE_K),
        }.get(wl.kind)
        if probe is not None:
            with tr:
                try:
                    probe()
                except (ArithmeticError, ValueError):
                    pass
            samples["smoothers.build_failed"] = [
                v + tr.failures("smoothers") for v in samples["smoothers.build_failed"]]
        if first_untraced is not None:
            self.check_thread_identity(first_untraced, self.simulate_inprocess)
        if leftover := tracer.leftover_wrappers():
            raise RuntimeError(f"tracer left wrappers behind: {leftover}")
        return samples


def run(workload_name, seed, seconds, trace):
    """Run one workload; returns the result document (see module docstring)."""
    workload = workloads.WORKLOADS[workload_name]
    nproc = len(os.sched_getaffinity(0))
    env = environment(nproc)
    work = OUT / f"work-{workload_name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(workload, seed, work, nproc)
        samples = bench.layers(seconds) if trace else bench.end_to_end(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    stats = {}
    for name, unit in units.items():
        values = samples[name]
        if values:
            median, q1, q3 = _median_quartiles(values)
            stats[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values), "unit": unit}
        else:
            stats[name] = {"median": None, "q1": None, "q3": None, "n": 0, "unit": unit}
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "threads": nproc,
        "environment": env,
        "stats": stats,
        "attempted": bench.ops.attempted,
        "failures": bench.ops.failures,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sure_lab" / "__init__.py").is_file():
        print(f"error: no sure_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    doc = run(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(doc, indent=2) + "\n")

    print("environment " + json.dumps(doc["environment"]))
    for name, st in doc["stats"].items():
        if st["n"]:
            print(f"{name:<40} median {st['median']:<12.6g} q1 {st['q1']:<12.6g} "
                  f"q3 {st['q3']:<12.6g} n={st['n']:<5} {st['unit']}")
        else:
            print(f"{name:<40} no samples {st['unit']}")
    failed = len(doc["failures"])
    print(f"operations: {doc['attempted']} attempted, {failed} failed; record in {record}")
    for failure in doc["failures"][:20]:
        print(f"failed: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": doc["attempted"],
        "failed": failed,
        "metrics": {name: {"value": st["median"], "unit": st["unit"]}
                    for name, st in doc["stats"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
