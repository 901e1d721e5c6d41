"""spencerlab CLI benchmark.

    python3 perfbench/run.py --workload jet|microlocal|spectral|all \
        --seed N --seconds S --trace 0|1

Runs each job of the workload as a fresh ``python -m spencerlab.cli``
process against ``src/`` of this checkout, one after the other (closed
loop, concurrency 1), checks every report against the schema and an
independent oracle, and prints the metrics by name and unit.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  A results file with the environment, per-pass timings and
a digest of every report goes to ``perfbench/results/``.

Exit code 2, with no result line, when the checkout has no ``src/spencerlab``
or ``spencerlab`` would be imported from anywhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import layers
import oracles
import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
SCHEMA = ROOT / "docs" / "report-schema.json"

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
JOB_TIMEOUT_S = 150
# Removed from the job environment so jobs run with the user's defaults.
# PYTHONDONTWRITEBYTECODE goes too: the benchmark owns the bytecode cache
# (PYTHONPYCACHEPREFIX), so compiling lands in setup_s and not in batch_s.
DROPPED_ENV = ("SPENCER_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")

END_TO_END = (
    ("batch_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)


class Refused(Exception):
    """The checkout cannot be benchmarked; exit 2 without a result."""


@dataclass
class Run:
    """One finished job process."""
    job: workloads.Job
    wall_s: float
    cpu_s: float
    rss_kb: int
    code: int
    stdout: bytes
    stderr: bytes
    trace: dict | None = None


def job_env(pycache):
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def check_checkout(env):
    """Refuse unless ``spencerlab`` resolves to this checkout's ``src``."""
    if not SCHEMA.is_file():
        raise Refused(f"missing {SCHEMA.relative_to(ROOT)}")
    want = ROOT / "src" / "spencerlab" / "__init__.py"
    probe = subprocess.run(
        [sys.executable, "-c", "import spencerlab, sys; sys.stdout.write(spencerlab.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        raise Refused(f"spencerlab does not import from {want.parent}: {probe.stderr.strip()[-300:]}")
    if Path(probe.stdout).resolve() != want.resolve():
        raise Refused(f"spencerlab resolves to {probe.stdout}, not {want}")


def drift_probe_ms():
    """A fixed pure-Python workload; its time tracks how fast this host runs now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 6000):
        total += Fraction(i % 7 + 1, i)
    return (time.perf_counter() - start) * 1e3


def environment():
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "loadavg": list(os.getloadavg()),
    }


def exact_digest(report):
    """sha256 of a report with every float dropped: its exact fields."""
    def strip(v):
        if isinstance(v, dict):
            return {k: strip(x) for k, x in v.items() if not isinstance(x, float)}
        if isinstance(v, list):
            return [strip(x) for x in v if not isinstance(x, float)]
        return v
    text = json.dumps(strip(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Bench:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.jobs = workloads.jobs(workload, seed)
        self.workdir = workdir  # this run's own files: inputs, job output, traces
        self.inputs = workdir / "inputs"
        self.pycache = WORK / "pycache"
        self.env = job_env(self.pycache)
        self.reference = {}  # job name -> first report bytes
        self.verdicts = {}  # (job name, report sha256) -> problems
        self.attempted = 0
        self.failures = []  # (job name, problems)
        import jsonschema
        self.validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))

    def write_inputs(self):
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        for job in self.jobs:
            for name, text in job.files.items():
                (self.inputs / name).write_text(text, encoding="utf-8")

    def spawn(self, job, argv):
        """Run one job process to completion; wall, CPU and peak RSS from wait4."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.inputs, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Run(job, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                   proc.returncode, out_path.read_bytes(), err_path.read_bytes())

    def run_pass(self, traced=False):
        runs = []
        for k, job in enumerate(self.jobs):
            if traced:
                trace_path = self.workdir / f"trace-{k}.json"
                trace_path.unlink(missing_ok=True)
                argv = [sys.executable, str(BENCH / "launcher.py"), str(trace_path), *job.argv]
            else:
                argv = [sys.executable, "-m", "spencerlab.cli", *job.argv]
            run = self.spawn(job, argv)
            if traced and trace_path.is_file():
                run.trace = json.loads(trace_path.read_text())
            runs.append(run)
        for run in runs:
            self.check(run)
        return runs

    def check(self, run):
        """Exit code, schema, oracle and byte-identity with the first report."""
        self.attempted += 1
        problems = []
        if run.code != 0:
            problems.append(f"exit code {run.code}: {run.stderr.decode(errors='replace')[-300:]}")
        else:
            ref = self.reference.setdefault(run.job.name, run.stdout)
            if run.stdout != ref:
                problems.append("report differs from the job's first report")
            key = (run.job.name, hashlib.sha256(run.stdout).hexdigest())
            if key not in self.verdicts:
                self.verdicts[key] = self.judge(run)
            problems += self.verdicts[key]
        if problems:
            self.failures.append((run.job.name, problems))
            sys.stderr.write(f"FAIL {self.workload}/{run.job.name}: {'; '.join(problems)}\n")

    def judge(self, run):
        try:
            report = json.loads(run.stdout)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        problems = [f"schema: {e.message}" for e in self.validator.iter_errors(report)][:3]
        return problems + oracles.check(run.job.oracle, run.job.params, report)

    def job_table(self):
        table = []
        for job in self.jobs:
            ref = self.reference.get(job.name)
            entry = {"name": job.name, "argv": job.argv, "oracle": job.oracle,
                     "params": job.params, "problems": sorted({p for n, ps in self.failures
                                                               if n == job.name for p in ps})}
            if ref is not None:
                try:
                    entry["exact_sha256"] = exact_digest(json.loads(ref))
                except ValueError:
                    pass
                entry["report_sha256"] = hashlib.sha256(ref).hexdigest()
                entry["report_bytes"] = len(ref)
            table.append(entry)
        return table

    # -- end to end ----------------------------------------------------------------------

    def measure(self, seconds):
        setup = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.pycache, ignore_errors=True)
            setup.append(sum(r.wall_s for r in self.run_pass()))
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.run_pass())
        series = {
            "batch_s": [sum(r.wall_s for r in p) for p in passes],
            "cpu_s": [sum(r.cpu_s for r in p) for p in passes],
            "peak_rss_mb": [max(r.rss_kb for r in p) / 1024 for p in passes],
            "setup_s": setup,
        }
        per_job = {job.name: stats.summary(p[k].wall_s for p in passes)
                   for k, job in enumerate(self.jobs)}
        return series, per_job

    # -- traced --------------------------------------------------------------------------

    def trace(self, seconds):
        self.run_pass()  # warm the bytecode cache; first reports become the reference
        traced, plain = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            order = (True, False) if len(traced) % 2 == 0 else (False, True)
            for is_traced in order:
                (traced if is_traced else plain).append(self.run_pass(traced=is_traced))
        imports = [self.importtime() for _ in range(IMPORTTIME_REPEATS)]
        imports_ms = {m: stats.summary(i[m] for i in imports)["median"] for m in imports[0]}
        fired, missing = {}, set()
        for p in traced:
            for run in p:
                if run.trace is None:
                    if run.code == 0:
                        self.failures.append((run.job.name, ["traced run wrote no trace"]))
                    continue
                missing.update(run.trace["missing"])
                for key, n in run.trace["fired"].items():
                    fired[key] = fired.get(key, 0) + n
        good = [p for p in traced if all(r.trace is not None for r in p)]
        totals = [layers.pass_totals([r.trace for r in p], [r.wall_s * 1e3 for r in p])
                  for p in good]
        overhead = (stats.summary(sum(r.wall_s for r in p) for p in traced)["median"]
                    / stats.summary(sum(r.wall_s for r in p) for p in plain)["median"])
        metrics = layers.layer_metrics(totals, imports_ms, self.err_bound_max(), overhead) if totals else {}
        selfcheck = {"missing": sorted(missing),
                     "silent": layers.silent_targets(fired, self.workload),
                     "fired": fired}
        return metrics, selfcheck, len(traced)

    def importtime(self):
        probe = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spencerlab.cli"],
                               env=self.env, cwd=self.inputs, capture_output=True, text=True,
                               timeout=JOB_TIMEOUT_S)
        return layers.parse_importtime(probe.stderr)

    def err_bound_max(self):
        """Largest declared error_bound across the workload's reports."""
        found = []

        def walk(v):
            if isinstance(v, dict):
                for k, x in v.items():
                    if k == "error_bound" and isinstance(x, (int, float)):
                        found.append(float(x))
                    else:
                        walk(x)
            elif isinstance(v, list):
                for x in v:
                    walk(x)
        for ref in self.reference.values():
            try:
                walk(json.loads(ref))
            except ValueError:
                pass
        return max(found, default=0.0)


def run_workload(workload, seed, seconds, trace):
    workdir = WORK / f"run-{os.getpid()}"
    try:
        return measure_workload(Bench(workload, seed, workdir), seed, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_workload(bench, seed, seconds, trace):
    workload = bench.workload
    bench.write_inputs()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "drift_probe_ms": {"before": drift_probe_ms()}}
    if trace:
        metrics, selfcheck, npasses = bench.trace(seconds)
        record["trace_selfcheck"] = selfcheck
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        lines = [f"{workload} {name} {value:.6g} {units[name]} (median of {npasses} traced passes)"
                 for name, value in metrics.items()]
        for key in ("missing", "silent"):
            if selfcheck[key]:
                lines.append(f"{workload} trace self-check: {key} wrappers: {', '.join(selfcheck[key])}")
    else:
        series, per_job = bench.measure(seconds)
        record["series"] = series
        record["per_job_wall_s"] = per_job
        metrics, lines = {}, []
        for name, unit in END_TO_END:
            s = stats.summary(series[name])
            metrics[name] = s["median"]
            lines.append(f"{workload} {name} {s['median']:.6g} {unit} "
                         f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
    record["drift_probe_ms"]["after"] = drift_probe_ms()
    failed = len(bench.failures)
    lines.append(f"{workload} fail_ratio {failed / bench.attempted:.6g} share "
                 f"({failed} of {bench.attempted} jobs)")
    record.update(attempted=bench.attempted, failed=failed, metrics=metrics,
                  jobs=bench.job_table())
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    env, drift = record["environment"], record["drift_probe_ms"]
    print(f"{workload} env python {env['python']} nproc {env['nproc']} git {env['git_sha']} "
          f"loadavg {env['loadavg'][0]:.2f} drift_probe_ms {drift['before']:.1f} -> {drift['after']:.1f}")
    for line in lines:
        print(line)
    print(f"{workload} results {out.relative_to(ROOT)}", flush=True)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        WORK.mkdir(parents=True, exist_ok=True)
        check_checkout(job_env(WORK / "pycache"))
    except Refused as exc:
        sys.stderr.write(f"perfbench: refusing to run: {exc}\n")
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    metrics = {}
    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in layers.PER_LAYER}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for name, value in rec["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and all(r["metrics"] for r in records)
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
