"""Benchmark of the uscqed package: timed, checked workloads and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rwa-scan --seed 1 --seconds 40 --trace 0

The package is imported from the checkout's ``src`` directory, never from an
installed copy.  With ``--trace 0`` the command times set-up in fresh
processes, then runs jobs on the seed's points for at most ``--seconds``
(at least one job), checking each result; it prints end-to-end metrics,
with the job time rescaled to a nominal machine speed by a numpy probe
timed while the jobs run.
With ``--trace 1`` it runs the seed's first point in pairs, plain and then
traced, and prints per-layer counts and self times together with the
tracing overhead; the spans go to ``.perfbench/`` in the checkout.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with the drawn inputs, per-job times and accuracy figures.  The exit
code is 1 when any job failed its check, 2 on bad arguments, and 1 without a
result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import signal
import subprocess
import sys
import time

# One BLAS thread, set before numpy loads (the set-up probes inherit it).
# The package's matrices are small, and on a machine of few shared cores
# BLAS helper threads wait on each other and on other tenants: that wait,
# not the program, would set the spread of the times.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Fresh processes timed for set-up; the median is reported.
SETUP_SAMPLES = 5
# Machine-speed probe (SpeedProbe): one piece is, per (shape, rounds), that
# many complex SVDs and contractions of the shape, sizes the package works
# on; a piece runs every PROBE_INTERVAL_S while a job runs.  PROBE_NOMINAL_S
# is the piece's mean time on the 2-core container the benchmark was
# calibrated on; it only sets the scale of job_s.
PROBE_WORK = (((4, 8), 30), ((16, 24), 30), ((30, 60), 1), ((60, 60), 1))
PROBE_INTERVAL_S = 0.25
PROBE_NOMINAL_S = 0.0075
# Points drawn per seed, more than any run can use.
MAX_POINTS = 10_000

LAYER_CALLS = (
    "tensors.svd_split", "tensors.split_matrix", "evolution.evolve",
    "evolution.imaginary_time_ground_state", "model.trotter_gates",
    "model.hamiltonian_mpo", "mps.correlator_matrix",
    "mps.site_expectations", "mps.local_matrix_elements", "mps.canonicalize",
    "mps.apply_mpo", "mps.compress", "sweep.bound_data",
)
# Counts that repeat exactly for the same point.
EXACT_COUNTS = (
    "evolution.evolve.steps", "evolution.gate_applications",
    "evolution.imaginary_time_ground_state.steps",
    "evolution.imaginary_time_ground_state.windows",
    "evolution.imaginary_time_ground_state.dtau_halvings",
)
# Per-layer metrics of a traced run, as (name, unit); all per traced job.
PER_LAYER = (
    [(f"{layer}.calls", "count") for layer in LAYER_CALLS]
    + [(name, "count") for name in EXACT_COUNTS]
    + [(f"{layer}.s", "s") for layer in spans.LAYER_NAMES]
    + [("tensors.svd_split.p50_us", "us"), ("tensors.svd_split.p99_us", "us"),
       ("tensors.svd.gflop", "Gflop"), ("tensors.svd.mbytes", "MB"),
       ("evolution.gates_per_s", "1/s"), ("scattering.clean_frac", "ratio"),
       ("process.cpu_s", "s"), ("trace.job_s", "s"),
       ("trace.untraced_job_s", "s"), ("trace.overhead", "ratio")]
)
END_TO_END = (("setup_s", "s"), ("job_s", "s"), ("peak_rss_mb", "MB"))


def import_package():
    """Import uscqed from this checkout's sources; exit if they are absent."""
    if not os.path.isfile(os.path.join(SRC, "uscqed", "__init__.py")):
        raise SystemExit(f"run.py: no uscqed sources under {SRC}")
    sys.path.insert(0, SRC)
    import uscqed.config
    import uscqed.evolution
    import uscqed.oracles
    import uscqed.scattering
    import uscqed.sweep
    if not os.path.abspath(uscqed.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"run.py: uscqed imported from {uscqed.__file__}")
    return uscqed


def parse_args(argv):
    # imported here, after main() starts the set-up clock: numpy comes with it
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up

def setup_probe(args, t0: float) -> float:
    """Seconds since ``t0`` to import uscqed, parse the config and build
    the static inputs."""
    usc = import_package()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    wl.setup(usc, wl.points(args.seed, 1)[0])
    return time.perf_counter() - t0


def setup_samples(args) -> list:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# timed jobs

def run_job(usc, wl, static, point, tracer=None, probe=None) -> dict:
    """Time one job, under ``tracer`` or ``probe`` if given, then check it.

    A job that raises, or whose result the check cannot read, is a failed
    point.  The check runs outside the timer, the tracer and the probe.
    The probe's pieces are taken out of the job's wall and CPU times.
    """
    t0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with tracer or contextlib.nullcontext(), \
                probe or contextlib.nullcontext():
            out = wl.job(usc, static, point)
    except Exception as exc:  # a failed point, reported with its cause
        return {"s": time.perf_counter() - t0,
                "cpu_s": time.process_time() - cpu0, "accuracy": {},
                "failed": [f"{type(exc).__name__}: {exc}"]}
    probed = sum(probe.pieces) if probe else 0.0
    seconds = time.perf_counter() - t0 - probed
    cpu = time.process_time() - cpu0 - probed
    try:
        accuracy, failed = wl.check(usc, point, out)
    except Exception as exc:  # a failed point, reported with its cause
        accuracy, failed = {}, [f"check {type(exc).__name__}: {exc}"]
    return {"s": seconds, "cpu_s": cpu, "accuracy": accuracy,
            "failed": failed}


class SpeedProbe:
    """Samples the machine's speed while a job runs.

    Inside the ``with`` block a SIGALRM handler times one piece of
    PROBE_WORK every PROBE_INTERVAL_S, in the job's own thread, so the
    pieces meet the machine in the same state as the job around them.  The
    work is plain numpy and calls no uscqed code, so a change to the
    package does not move the pieces.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.work = [(rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape), rounds)
                     for shape, rounds in PROBE_WORK]
        self.pieces = []

    def piece(self, *_):
        import numpy as np
        t0 = time.perf_counter()
        for a, rounds in self.work:
            for _ in range(rounds):
                u, s, v = np.linalg.svd(a, full_matrices=False)
                b = np.tensordot(u * s, v, axes=(1, 0)).reshape(-1)
                np.einsum("i,i->", b, b.conj())
        self.pieces.append(time.perf_counter() - t0)

    def __enter__(self):
        self.pieces = []
        signal.signal(signal.SIGALRM, self.piece)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.pieces:               # a job shorter than the interval
            self.piece()

    def scale(self) -> float:
        """Nominal over measured piece time: the job's speed correction."""
        return PROBE_NOMINAL_S / statistics.fmean(self.pieces)


def timed_jobs(usc, wl, static, points, seconds) -> list:
    """Jobs in point order while the next one is expected to end in time,
    each timed under a SpeedProbe."""
    probe = SpeedProbe()
    jobs = []
    start = time.perf_counter()
    for point in points:
        if jobs:
            expected = statistics.median(j["wall_s"] for j in jobs)
            if time.perf_counter() - start + expected > seconds:
                break
        t0 = time.perf_counter()
        job = run_job(usc, wl, static, point, probe=probe)
        job["wall_s"] = time.perf_counter() - t0
        job["probe_s"] = statistics.fmean(probe.pieces)
        job["scaled_s"] = job["s"] * probe.scale()
        job["point"] = point
        jobs.append(job)
    return jobs


def tail_percentile(samples):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            ranked = sorted(samples)
            return {"p": p, "s": ranked[min(n - 1, -(-p * n // 100) - 1)]}
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def accuracy_summary(jobs) -> dict:
    keys = sorted({k for j in jobs for k in j["accuracy"]})
    return {k: {"median": statistics.median(j["accuracy"][k] for j in jobs
                                            if k in j["accuracy"]),
                "max": max(j["accuracy"][k] for j in jobs
                           if k in j["accuracy"])}
            for k in keys}


def plain_run(usc, wl, static, points, args):
    """Set-up samples, then timed jobs.

    A shared host's speed can drift by half over minutes, and a run's jobs
    all meet the same phase.  The probe slows down with the jobs (with one
    BLAS thread), so job_s is the median of the job times, each rescaled
    to the nominal probe speed.  The unscaled times are in the report.
    """
    setup = setup_samples(args)
    jobs = timed_jobs(usc, wl, static, points, args.seconds)
    times = [j["scaled_s"] for j in jobs]
    failed = sum(bool(j["failed"]) for j in jobs)
    metrics = {"setup_s": statistics.median(setup),
               "job_s": statistics.median(times),
               "peak_rss_mb": peak_rss_mb()}
    report = {
        "workload": wl.name, "seed": args.seed, "trace": 0,
        "units": {"setup_s": "s", "job_s": "s", "job_tail": "s",
                  "job_unscaled_s": "s", "probe_s": "s",
                  "fail_frac": "ratio", "peak_rss_mb": "MB", **wl.units},
        **metrics,
        "job_tail": tail_percentile(times), "job_samples": len(times),
        "job_unscaled_s": statistics.median(j["s"] for j in jobs),
        "probe_s": statistics.median(j["probe_s"] for j in jobs),
        "setup_samples_s": setup,
        "fail_frac": failed / len(jobs),
        "accuracy": accuracy_summary(jobs),
        "jobs": jobs,
    }
    return metrics, report, len(jobs), failed


# ---------------------------------------------------------------------------
# traced jobs

def traced_run(usc, wl, static, points, args):
    """Pairs of plain and traced jobs on the seed's first point."""
    point = points[0]
    tracer = spans.Tracer()
    pairs = []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain = run_job(usc, wl, static, point)
        before = tracer.counts.copy()
        tracer.run_id = len(pairs)
        traced = run_job(usc, wl, static, point, tracer)
        counts = tracer.counts.copy()
        counts.subtract(before)
        pairs.append({"plain": plain, "traced": traced,
                      "counts": {k: v for k, v in counts.items() if v}})
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - pair_start) > args.seconds:
            break

    n = len(pairs)
    counts = pairs[0]["counts"]
    times = tracer.layer_times()
    metrics = {}
    for layer in LAYER_CALLS:
        metrics[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0)
    for name in EXACT_COUNTS:
        metrics[name] = counts.get(name, 0)
    for layer in spans.LAYER_NAMES:
        metrics[f"{layer}.s"] = times.get(layer, {}).get("self", 0.0) / n
    svd = sorted(times.get("tensors.svd_split", {}).get("durations", [0.0]))
    metrics["tensors.svd_split.p50_us"] = 1e6 * svd[len(svd) // 2]
    metrics["tensors.svd_split.p99_us"] = 1e6 * svd[
        min(len(svd) - 1, (99 * len(svd)) // 100)]
    metrics["tensors.svd.gflop"] = counts.get("tensors.svd.flop", 0) / 1e9
    metrics["tensors.svd.mbytes"] = counts.get("tensors.svd.bytes", 0) / 1e6
    evolve_s = times.get("evolution.evolve", {}).get("total", 0.0) / n
    metrics["evolution.gates_per_s"] = (
        counts.get("evolution.gate_applications", 0) / evolve_s
        if evolve_s else 0.0)
    evolved = counts.get("scattering.evolved_time", 0.0)
    metrics["scattering.clean_frac"] = (
        counts.get("scattering.clean_time", 0.0) / evolved if evolved else 0.0)
    metrics["process.cpu_s"] = statistics.median(p["traced"]["cpu_s"]
                                                  for p in pairs)
    traced_s = statistics.median(p["traced"]["s"] for p in pairs)
    plain_s = statistics.median(p["plain"]["s"] for p in pairs)
    metrics["trace.job_s"] = traced_s
    metrics["trace.untraced_job_s"] = plain_s
    metrics["trace.overhead"] = traced_s / plain_s - 1.0

    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR,
                             f"trace-{wl.name}-seed{args.seed}.json.gz")
    tracer.write(span_path)
    jobs = [job for p in pairs for job in (p["plain"], p["traced"])]
    failed = sum(bool(j["failed"]) for j in jobs)
    report = {
        "workload": wl.name, "seed": args.seed, "trace": 1, "point": point,
        "pairs": n, "spans": len(tracer.names),
        "span_file": os.path.relpath(span_path, ROOT),
        "counts_repeat": all(p["counts"] == counts for p in pairs),
        "svd_shapes": dict(tracer.svd_shapes.most_common(24)),
        "svd_shape_kinds": len(tracer.svd_shapes),
        "accuracy": accuracy_summary(jobs),
        "jobs": jobs,
    }
    return metrics, report, len(jobs), failed


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args, t0))
        return 0
    usc = import_package()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    points = wl.points(args.seed, MAX_POINTS)
    static = wl.setup(usc, points[0])
    if args.trace:
        metrics, report, attempted, failed = traced_run(
            usc, wl, static, points, args)
        units = dict(PER_LAYER)
    else:
        metrics, report, attempted, failed = plain_run(
            usc, wl, static, points, args)
        units = dict(END_TO_END)
    print(json.dumps(report, default=float))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
