#!/usr/bin/env python3
"""bayesinv benchmark: one workload, closed loop, one job at a time.

    python3 perfbench/run.py --workload linear_dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and from nowhere else.  The workload's job cycle is repeated
for about ``--seconds`` of job wall time, always ending on a whole cycle so
every run times the same job mix.  Each job's output is
checked against its oracle outside the timed interval.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
untraced for half the time, then wraps the library's public functions (see
``spans.py``) and runs a fixed number of traced cycles, and prints the
per-layer metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy loads: on two cores, extra
# OpenBLAS threads spin on the small matrices and make the runs noisier
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("linear_dense", "gp_spline", "calibration", "cli_demos")
# reserved for the held-out confirmation of a claimed gain: do not use it
# while a change is being written or tuned
HOLDOUT_SEED = 4099
SETUP_RUNS = 3
# traced cycles per workload: a fixed count, so span totals compare across commits
TRACE_CYCLES = {"linear_dense": 2, "gp_spline": 4, "calibration": 2, "cli_demos": 10}
# stop mid-cycle past this many seconds even if the cycle is unfinished
HARD_LIMIT_FACTOR = 3.0
# Median time of host_probe() on the reference host (a 2-vCPU x86-64 VM).
# Never change it: it fixes the scale of every adjusted timing.
PROBE_REFERENCE_S = 0.0045


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_sources() -> None:
    if not (SRC / "bayesinv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bayesinv sources under {SRC}; run from a full checkout")


def import_library():
    """Put this checkout's src/ first on the path and import bayesinv from it."""
    require_sources()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import bayesinv

    if Path(bayesinv.__file__).resolve().parent != SRC / "bayesinv":
        raise SystemExit(f"perfbench: imported bayesinv from {bayesinv.__file__}, not {SRC}")
    import jobs

    return jobs


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate the cycle's inputs and run the warm-up set once.

    Warm-up failures are not fatal here: the same code paths fail again in
    the measured cycles, where they are counted.
    """
    jobs = import_library()
    cycle = jobs.build_jobs(workload, seed, workdir)
    run_phase(jobs.build_jobs(workload, seed, workdir, warm=True), 0.0, cycles=1)
    return cycle


@dataclass
class Phase:
    times: list = field(default_factory=list)  # wall time of each job that passed
    by_kind: dict = field(default_factory=dict)  # job class -> its passed wall times
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0  # summed wall time of every job attempted
    cycles: int = 0
    failures: list = field(default_factory=list)
    probes: list = field(default_factory=list)  # host_probe() seconds, one per job

    @property
    def raw_jobs_per_s(self) -> float:
        return len(self.times) / self.wall if self.wall > 0 else 0.0

    @property
    def scale(self) -> float:
        """Factor taking a wall time measured here to the reference host speed."""
        return PROBE_REFERENCE_S / statistics.median(self.probes)

    @property
    def jobs_per_s(self) -> float:
        return self.raw_jobs_per_s / self.scale


def run_phase(cycle, seconds: float, tracer=None, cycles: int | None = None, io=None) -> Phase:
    """Run whole cycles, ``cycles`` of them or as many as come nearest ``seconds`` of job time.

    Ending on a cycle boundary keeps the job mix identical in every run; the
    measured time is ``seconds`` give or take half a cycle.
    """
    ph = Phase()
    hard_limit = HARD_LIMIT_FACTOR * seconds + 30.0
    while True:
        for job in cycle:
            if job.prepare:
                job.prepare()
            ph.attempted += 1
            if tracer is not None:
                tracer.job = ph.attempted
            start = time.perf_counter()
            try:
                with tracer.capture_warnings() if tracer is not None else nullcontext():
                    out = job.run()
                ok = True
            except Exception as exc:  # a raising job is a failed job, not a crash
                ok, reason = False, f"raised {exc!r}\n{traceback.format_exc()}"
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.job = None
            ph.wall += elapsed
            if ok:
                if io is not None and job.outdir is not None:
                    io(job.outdir)
                try:
                    job.check(out)
                except Exception as exc:
                    ok, reason = False, f"oracle: {exc}"
            if ok:
                ph.times.append(elapsed)
                ph.by_kind.setdefault(job.kind, []).append(elapsed)
            else:
                ph.failed += 1
                ph.failures.append(f"{job.kind}: {reason}")
            ph.probes.append(host_probe())
            if ph.wall > hard_limit:
                return ph
        ph.cycles += 1
        if cycles is not None:
            if ph.cycles >= cycles:
                return ph
        elif ph.wall + 0.5 * ph.wall / ph.cycles >= seconds:
            return ph


def host_probe() -> float:
    """Seconds for a fixed computation, half pure Python and half BLAS.

    It runs between jobs, outside their timing, and uses no bayesinv code,
    so no library change can move it.  On shared hosts the speed of every
    job class drifts together by tens of percent from one run to the next;
    this probe drifts with them, and the timing metrics are scaled by
    ``PROBE_REFERENCE_S / median(probe)`` to take that drift out.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((160, 160))
    start = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += math.sqrt(i) * (i % 7)
    b = a
    for _ in range(8):
        b = np.tanh(a @ b)
    return time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten jobs beyond it.

    Returns (value, percentile level, sample count); with fewer than eleven
    samples the maximum stands in, at level 100.
    """
    xs = sorted(times)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def setup_runs(args) -> list[float]:
    """Wall time of fresh processes doing interpreter start, import, inputs, warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
    return times


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": args.seed == HOLDOUT_SEED,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            return 0
        require_sources()
        setups = setup_runs(args)
        cycle = setup(args.workload, args.seed, workdir)
        return measure(args, cycle, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cycle, setups: list[float]) -> int:
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    record = {"env": env, "setup_runs_s": setups}
    if args.trace:
        from spans import LAYER_UNITS, Tracer, layer_metrics

        plain = run_phase(cycle, args.seconds / 2.0)
        tracer = Tracer()
        io = {"bytes": 0, "files": 0}

        def count_io(outdir: Path) -> None:
            for p in outdir.iterdir():
                io["files"] += 1
                io["bytes"] += p.stat().st_size

        tracer.install()
        cpu0 = time.process_time()
        traced = run_phase(cycle, args.seconds, tracer, TRACE_CYCLES[args.workload], count_io)
        cpu = time.process_time() - cpu0
        tracer.uninstall()
        values = layer_metrics(tracer.spans)
        values["inverse_regression.integration_warnings"] = tracer.integration_warnings
        values["cli.bytes_written"] = io["bytes"]
        values["cli.files_written"] = io["files"]
        values["process.cpu_s"] = cpu
        # unadjusted: the two phases are adjacent in time, and the probe's own
        # noise would swamp a cost of a few percent
        values["trace.overhead_frac"] = (
            plain.raw_jobs_per_s / traced.raw_jobs_per_s - 1.0 if traced.times else 0.0)
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in LAYER_UNITS.items()}
        phases = [plain, traced]
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        print(f"traced {traced.cycles} cycles, {traced.attempted} jobs, {len(tracer.spans)} spans; "
              f"unadjusted jobs/s untraced {plain.raw_jobs_per_s:.4f}, traced {traced.raw_jobs_per_s:.4f}")
    else:
        ph = run_phase(cycle, args.seconds)
        value, level, count = tail(ph.times) if ph.times else (0.0, 0.0, 0)
        p50 = statistics.median(ph.times) if ph.times else 0.0
        setup_s = statistics.median(setups)
        metrics = {
            "jobs_per_s": {"value": ph.jobs_per_s, "unit": "1/s"},
            "job_p50_s": {"value": p50 * ph.scale, "unit": "s"},
            "job_tail_s": {"value": value * ph.scale, "unit": "s"},
            "setup_s": {"value": setup_s * ph.scale, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        phases = [ph]
        print(f"{ph.cycles} cycles of {len(cycle)} jobs, {ph.attempted} attempted, "
              f"{ph.wall:.3f} s of job time")
        print(f"job_tail_s at p{level:.2f} of {count} jobs (10 beyond it)")
        print(f"failed_frac {ph.failed / ph.attempted:.6f} ({ph.failed} of {ph.attempted})")
        print(f"host probe median {statistics.median(ph.probes) * 1e3:.3f} ms (reference "
              f"{PROBE_REFERENCE_S * 1e3:.3f} ms), scale {ph.scale:.4f}; unadjusted: "
              f"jobs_per_s {ph.raw_jobs_per_s:.4f}, job_p50_s {p50:.6f}, "
              f"job_tail_s {value:.6f}, setup_s {setup_s:.4f}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for line in [f for p in phases for f in p.failures][:5]:
        print(f"FAILED {line}", file=sys.stderr)
    kinds = {k: statistics.median(v) for k, v in phases[0].by_kind.items()}
    print("median raw s per job class: " + ", ".join(f"{k} {v:.4f}" for k, v in sorted(kinds.items())))
    record.update(metrics=metrics, attempted=attempted, failed=failed, job_class_median_s=kinds,
                  host_probe_s=phases[0].probes)
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
