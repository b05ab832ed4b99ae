"""obspers benchmark: one workload, one process, one caller in a closed loop.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 33 --trace 0

Run from the root of a source checkout; obspers is imported from ./src and
nothing else.  Set-up (imports, seeded input generation and one warm-up job)
is timed several times and reported as its median.  The timed phase then
takes the input pool in order, one job after another, until --seconds have
passed; each job re-verifies its certificates and its answer digest is
compared with the digest stored for that seed and pool index, when there is
one (perfbench/digests.json), and with earlier runs of the same input.

Times are reported in seconds at a reference speed: a fixed kernel that
does not use obspers (perfbench/yardstick.py) runs between jobs and between
set-up repeats, and each interval is scaled by the kernel times nearest to
it, because the shared host's speed drifts by tens of percent within a run.
The unscaled wall times are in the detail record.

With --trace 0 the last line holds the end-to-end metrics.  With --trace 1 a
fixed list of jobs runs untraced and then traced; the last line holds the
per-layer metrics, and the spans are written to .bench_out/.
--workload all runs every workload, one process after another.

The other stdout lines are a readable summary and a JSON detail record that
also carries fail_ratio, the tail percentile and the job count, the digests
and the run environment.  The exit code is nonzero when any check failed.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
import numpy  # noqa: E402  (after the thread settings, inside import_s)
import yardstick  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CONFIG = os.path.join(HERE, "config.json")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPEATS = 3
SETUP_SAMPLES = 10  # yardstick samples between set-up repeats
JOB_SAMPLES = 2  # yardstick samples between jobs
POOL = 64  # inputs per seed; a run takes them in order and wraps around


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads, "all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: config.json default_seed)")
    ap.add_argument("--seconds", type=float, default=33.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_obspers():
    """Import obspers from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "obspers", "__init__.py")):
        sys.exit(f"error: no obspers source under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import obspers
    if os.path.dirname(os.path.abspath(obspers.__file__)) != os.path.join(SRC, "obspers"):
        sys.exit(f"error: obspers was imported from {obspers.__file__}, not {SRC}")
    import workloads
    return workloads


def tail(times):
    """(value, percentile): the highest whole percentile with at least ten
    jobs beyond it (nearest rank); the maximum when there are ten or fewer."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    q = (100 * (n - 10)) // n
    rank = max(1, -(-q * n // 100))
    return xs[rank - 1], q


class Run:
    """Jobs of one workload: timings, failures and answer digests."""

    def __init__(self, wl, name, ctx, stored):
        self.wl, self.name, self.ctx, self.stored = wl, name, ctx, stored
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def job(self, index, inp):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            d = self.wl.run_job(self.name, inp, self.ctx)
        except Exception as exc:  # any failure of a job is counted, never dropped
            d = None
            problem = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if d is not None:
            want = self.seen.setdefault(index, d)
            problem = None
            if index < len(self.stored) and self.stored[index] != d:
                problem = f"digest {d} != stored {self.stored[index]}"
            elif want != d:
                problem = f"digest {d} != earlier run {want}"
        if problem:
            self.failed += 1
            self.failures.append(f"job {index}: {problem}")
        return elapsed


def setup(wl, name, cfg, seed, workdir, import_s):
    """Generate the pool and run one warm-up job, several times; returns the
    pool, the job context, the wall seconds of the imports and of each
    repeat, and the same seconds scaled."""
    spec = cfg["workloads"][name]
    ctx = wl.context(name, spec["params"], workdir)
    # nothing can be sampled before the imports, only after them
    walls, gaps = [import_s], [[], yardstick.sample(SETUP_SAMPLES)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool, warm = wl.generate(name, spec["params"], seed, POOL)
        wl.run_job(name, warm, ctx)
        walls.append(time.perf_counter() - t0)
        gaps.append(yardstick.sample(SETUP_SAMPLES))
    return pool, ctx, walls, yardstick.scale(walls, gaps, reach=1)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def run_workload(args, cfg):
    name, seed = args.workload, args.seed
    wl = import_obspers()
    import_s = time.perf_counter() - T_START
    stored = load_json(DIGESTS).get(name, {}).get(str(seed), []) \
        if os.path.exists(DIGESTS) else []
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        pool, ctx, setup_walls, setup_scaled = setup(wl, name, cfg, seed, workdir, import_s)
        if args.trace:
            metrics, run, detail = traced(wl, name, cfg, pool, ctx, stored, seed)
        else:
            metrics, run, detail = timed(wl, name, pool, ctx, stored, args.seconds)
            metrics["setup_s"] = (setup_scaled[0] + statistics.median(setup_scaled[1:]), "s")
            detail["setup_wall_s"] = import_s + statistics.median(setup_walls[1:])
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["peak_rss_mb"] = (rss, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update({
        "workload": name, "seed": seed, "traced": bool(args.trace),
        "import_s": import_s, "setup_repeats_s": setup_walls[1:],
        "fail_ratio": run.failed / run.attempted,
        "failures": run.failures[:10],
        "digest_reference": "stored" if stored else "none stored for this seed",
        "env": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "python": platform.python_version(), "numpy": numpy.__version__,
                "threads": 1, "machine": platform.machine()},
    })
    return metrics, run, detail


def timed(wl, name, pool, ctx, stored, seconds):
    """Jobs in a closed loop for `seconds`, with yardstick samples between
    them; each job's time is scaled by the samples nearest to it."""
    run = Run(wl, name, ctx, stored)
    walls, gaps = [], [yardstick.sample(JOB_SAMPLES)]
    t0 = time.perf_counter()
    deadline = t0 + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        walls.append(run.job(i % len(pool), pool[i % len(pool)]))
        gaps.append(yardstick.sample(JOB_SAMPLES))
        i += 1
    times = yardstick.scale(walls, gaps)
    done = run.attempted - run.failed
    tail_s, pct = tail(times)
    metrics = {"job_p50_s": (statistics.median(times), "s"),
               "job_tail_s": (tail_s, "s"),
               "jobs_per_s": (done / sum(times), "1/s")}
    detail = {"jobs": run.attempted, "completed": done,
              "timed_wall_s": time.perf_counter() - t0, "job_wall_s": sum(walls),
              "job_p50_wall_s": statistics.median(walls), "job_tail_wall_s": tail(walls)[0],
              "job_tail_percentile": pct, "job_tail_samples": len(times),
              "job_digests": [run.seen.get(k) for k in range(min(len(pool), i))]}
    return metrics, run, detail


def traced(wl, name, cfg, pool, ctx, stored, seed):
    """The fixed trace job list untraced, then traced; digests must agree."""
    from tracing import Tracer
    jobs = pool[:cfg["workloads"][name]["trace_jobs"]]
    run = Run(wl, name, ctx, stored)
    t0 = time.perf_counter()
    for i, inp in enumerate(jobs):
        run.job(i, inp)
    plain = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i, inp in enumerate(jobs):
            tracer.job_id = i
            run.job(i, inp)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (wall - plain, "s")
    os.makedirs(OUT, exist_ok=True)
    numpy.savez(os.path.join(OUT, f"spans-{name}-{seed}.npz"), **tracer.spans())
    detail = {"jobs": len(jobs), "untraced_wall_s": plain, "traced_wall_s": wall,
              "spans": len(tracer.start),
              "job_digests": [run.seen.get(k) for k in range(len(jobs))]}
    return metrics, run, detail


def run_all(args, cfg):
    """Every workload in its own process, one after another."""
    merged, attempted, failed, ok = {}, 0, 0, True
    for name in cfg["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            return 1
        ok = ok and last["correct"] and proc.returncode == 0
        attempted += last["attempted"]
        failed += last["failed"]
        for key, val in last["metrics"].items():
            merged[f"{name}.{key}"] = val
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if ok else 1


def main(argv=None):
    cfg = load_json(CONFIG)
    args = parse_args(argv, cfg["workloads"])
    if args.seed is None:
        args.seed = cfg["default_seed"]
    if args.workload == "all":
        return run_all(args, cfg)
    metrics, run, detail = run_workload(args, cfg)
    ok = run.failed == 0
    if not args.trace:
        shown = dict(metrics, fail_ratio=(detail["fail_ratio"], "ratio"))
        print(f"{args.workload} seed={args.seed} jobs={detail['jobs']} "
              f"tail=p{detail['job_tail_percentile']} correct={ok}: " +
              "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in shown.items()))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": ok, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
