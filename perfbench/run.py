"""Benchmark runner for twocat: one workload per process, pinned to one CPU.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 20 --trace 0

Every timing is taken against a pinned reference: ``reference/twocat_ref``
is a copy of twocat frozen when the benchmark was defined.  The machine's
speed drifts by up to twice within seconds.  So each job runs on the
program and on the reference at the same time, in two threads of one
process pinned to one CPU: the interpreter hands the CPU from one to the
other every few milliseconds, and the drift slows both alike.  Each side is
timed by its own thread's CPU time.  A job's latency is reported as the
program's time over the reference's (the median over passes), times the
reference's recorded time for that job in ``reference_times.json``: the
job's latency at the speed the machine had when the reference was recorded.

``--trace 0`` sets the program's workload up and runs one checked pass on
it alone (peak memory is read then, before the reference is loaded).  It
then sets the program and the reference up side by side (``setup_s`` is the
median set-up ratio, scaled the same way), and runs paired passes until
``--seconds`` have gone by and at least one pass is done.
``--trace 1`` sets up once (traced), runs one traced pass between two
untraced ones, prints the per-layer metrics and writes the spans to
``perfbench/out/``.  It does not use the reference.

Every program job's output is checked on every pass; a job fails on an
escaped exception, a wrong exit code or a failed invariant.  The first pass
also hashes each output, and on the default seed a digest that differs from
``digests.json`` fails the job.  (Hashing every pass would cost the limits
workload as much time again as its jobs.)  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--write-digests`` records the digests of one pass on the
default seed; ``--record-reference`` records the reference's own times.
"""

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
REFERENCE_TIMES = HERE / "reference_times.json"
DEFAULT_SEED = 0
#: Paired set-ups (program and reference side by side) per untraced run.
SETUP_ROUNDS = 3
#: Paired passes over the job list per untraced run, at least.
MIN_PASSES = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write-digests", action="store_true",
                      help="record one pass's digests on the default seed")
    mode.add_argument("--record-reference", action="store_true",
                      help="record the reference's set-up and job times")
    return parser.parse_args(argv)


def import_package(path, name):
    """Import package ``name`` from directory ``path``; never from elsewhere."""
    if not (path / name / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no {name} sources under {path}")
    sys.path.insert(0, str(path))
    package = importlib.import_module(name)
    if Path(package.__file__).resolve().parent != path / name:
        raise SystemExit(f"perfbench: imported {name} from {package.__file__}")
    for module in ("cli", "serialize", "gallery"):
        importlib.import_module(f"{name}.{module}")
    return package


class Run:
    """Job latencies, digests and failures of the program over one run."""

    def __init__(self, expected, hashed=True):
        self.expected = expected
        self.hashed = hashed
        self.digests = {}
        self.attempted = 0
        self.passes = 0
        self.failures = []
        #: job id -> [(program seconds, reference seconds)], one per paired pass
        self.pairs = {}

    def run_job(self, job, tracer=None, clock=time.perf_counter):
        """Run and check one program job; its latency, or None if it failed."""
        self.attempted += 1
        started = clock()
        try:
            if tracer is None:
                output = job.run()
            else:
                with tracer.span(job.span, job.id):
                    output = job.run()
        except Exception as exc:  # an escaped exception fails the job
            self.fail(job, f"{type(exc).__name__}: {exc}")
            return None
        elapsed = clock() - started
        first = self.passes == 1
        try:
            problems = job.check(output)
            if self.hashed and first:
                from inputs import digest

                self.digests[job.id] = digest(job.record(output))
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        del output
        if (first and self.expected is not None
                and self.digests.get(job.id) != self.expected.get(job.id)):
            problems.append("output digest differs from digests.json")
        if problems:
            self.fail(job, "; ".join(problems))
            return None
        return elapsed

    def run_pass(self, workload, tracer=None):
        """Run every program job once; returns the pass's summed job latency."""
        gc.collect()
        self.passes += 1
        return sum(self.run_job(job, tracer) or 0.0 for job in workload.jobs)

    def run_paired_pass(self, workload, reference):
        """Run each job on the program and on the reference side by side."""
        gc.collect()
        self.passes += 1
        for job, ref_job in zip(workload.jobs, reference.jobs):
            prog_s, ref_s = side_by_side(lambda: self.run_job(job, clock=time.thread_time),
                                         ref_job.run)
            if prog_s is not None:
                self.pairs.setdefault(job.id, []).append((prog_s, ref_s))

    def fail(self, job, message):
        self.failures.append(f"{job.id}: {message}")
        print(f"perfbench: job failed: {job.id}: {message}", file=sys.stderr)


def side_by_side(timed_program, reference):
    """Run the reference in a helper thread while ``timed_program`` runs here.

    Returns what ``timed_program`` returns and the helper thread's CPU time.
    The reference failing is an error of the benchmark, not of the program.
    """
    ref_s = []

    def helper():
        started = time.thread_time()
        reference()
        ref_s.append(time.thread_time() - started)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        ours = timed_program()
    finally:
        thread.join()
    if not ref_s:
        raise SystemExit("perfbench: the reference failed; see the traceback above")
    return ours, ref_s[0]


def pin_to_one_cpu():
    """Keep this process (and threads it starts later) on one CPU.

    Two threads that hand the interpreter to each other on one CPU see the
    same machine speed; on two CPUs each sees its own CPU's speed.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def scaled(pairs, nominal):
    """``nominal`` times the median ratio of program to reference time."""
    return statistics.median(p / r for p, r in pairs) * nominal


def harrell_davis(values, p):
    """The Harrell-Davis estimate of quantile ``p``: a weighted mean of all
    order statistics, the i-th weighted by the mass that the distribution
    Beta((n+1)p, (n+1)(1-p)) puts on [i/n, (i+1)/n].

    The job lists mix jobs of very different sizes (29 on cli, from 2 ms to
    6 s), so the plain median jumps between neighbouring jobs when one
    job's time moves by a few percent.  This estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint-rule steps per order statistic

    def density(t):
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(run, setup_pairs, recorded, peak_rss_kib):
    jobs = recorded["jobs"]
    per_job = [scaled(pairs, jobs[job_id]) for job_id, pairs in run.pairs.items()]
    if not per_job:
        raise SystemExit("perfbench: every job failed")
    values = {
        "setup_s": (scaled(setup_pairs, recorded["setup_s"]), "s"),
        "wall_s": (sum(per_job), "s"),
        "job_p50_ms": (harrell_davis(per_job, 0.5) * 1000, "ms"),
        "job_p90_ms": (harrell_davis(per_job, 0.9) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_kib / 1024, "MB"),
        "pass_frac": ((run.attempted - len(run.failures)) / run.attempted, "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def timed_setup(build, package, seed, workdir, clock=time.perf_counter):
    workdir.mkdir(parents=True, exist_ok=True)
    started = clock()
    workload = build(package, seed, str(workdir))
    return workload, clock() - started


def paired_setups(build, program, reference, seed, workdir):
    """Set the program and the reference up side by side, ``SETUP_ROUNDS`` times.

    Returns the last workload of each side and the (program, reference)
    set-up times of every round.
    """
    times = []
    ours = theirs = None
    (workdir / "reference").mkdir(parents=True, exist_ok=True)
    for _ in range(SETUP_ROUNDS):
        ours = theirs = None  # drop the last set-ups before the next ones
        gc.collect()
        built = []
        (ours, prog_s), ref_s = side_by_side(
            lambda: timed_setup(build, program, seed, workdir / "program",
                                time.thread_time),
            lambda: built.append(build(reference, seed, str(workdir / "reference"))))
        theirs = built[0]
        times.append((prog_s, ref_s))
    if [j.id for j in ours.jobs] != [j.id for j in theirs.jobs]:
        raise SystemExit("perfbench: the program and the reference list other jobs")
    return ours, theirs, times


def freeze_setup():
    """Keep the set-up's objects out of the cyclic collector from now on.

    Otherwise a full collection scans both sides' inputs, and costs the
    side that happens to trigger it; with the inputs frozen, the spread of a
    job's time ratio from pass to pass roughly halved.
    """
    gc.collect()
    gc.freeze()


def paired_passes(run, ours, theirs, seconds):
    started = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - started < seconds:
        run.run_paired_pass(ours, theirs)
        passes += 1


def record_reference(build, program, reference, seed, workdir, seconds, name):
    """The reference's median set-up and per-job times, into the record file."""
    recorded = json.loads(REFERENCE_TIMES.read_text()) if REFERENCE_TIMES.is_file() else {}
    ours, theirs, setups = paired_setups(build, program, reference, seed, workdir)
    freeze_setup()
    run = Run(None, hashed=False)
    paired_passes(run, ours, theirs, seconds)
    recorded[name] = {
        "setup_s": statistics.median(r for _p, r in setups),
        "jobs": {job_id: statistics.median(r for _p, r in pairs)
                 for job_id, pairs in run.pairs.items()},
    }
    REFERENCE_TIMES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return run, ours


def main(argv=None):
    args = parse_args(argv)
    pin_to_one_cpu()
    program = import_package(ROOT / "src", "twocat")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if (args.write_digests or args.record_reference) and args.seed != DEFAULT_SEED:
        raise SystemExit(f"perfbench: records are made on seed {DEFAULT_SEED} only")
    build = WORKLOADS[args.workload]
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = None
    if args.seed == DEFAULT_SEED and not args.write_digests:
        expected = recorded.get(args.workload)
        if expected is None:
            raise SystemExit(f"perfbench: no digests recorded for {args.workload!r}")
    reference_times = None
    if not (args.trace or args.write_digests or args.record_reference):
        reference_times = json.loads(REFERENCE_TIMES.read_text()).get(args.workload)
        if reference_times is None:
            raise SystemExit(f"perfbench: no reference times for {args.workload!r}")

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        detail = {"workload": args.workload, "seed": args.seed}
        if args.write_digests:
            workload, _ = timed_setup(build, program, args.seed, workdir)
            run = Run(None)
            run.run_pass(workload)
            recorded[args.workload] = run.digests
            DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
            metrics = {}
        elif args.trace:
            from tracing import Tracer

            tracer = Tracer()
            with tracer.installed(), tracer.span("setup", "setup"):
                workload, _ = timed_setup(build, program, args.seed, workdir)
            run = Run(expected, hashed=expected is not None)
            before = run.run_pass(workload)
            with tracer.installed():
                traced = run.run_pass(workload, tracer)
            after = run.run_pass(workload)
            metrics = tracer.metrics(traced, (before + after) / 2)
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            spans = out / f"trace-{args.workload}-seed{args.seed}.json"
            spans.write_text(json.dumps(tracer.span_records()) + "\n")
            detail["spans"] = str(spans.relative_to(ROOT))
        else:
            reference = import_package(HERE / "reference", "twocat_ref")
            if args.record_reference:
                run, workload = record_reference(build, program, reference, args.seed,
                                                 workdir, args.seconds, args.workload)
                metrics = {}
            else:
                # The checked, hashed pass runs on the program alone, so that
                # the peak memory read after it is the program's own.
                workload, _ = timed_setup(build, program, args.seed, workdir / "program")
                run = Run(expected, hashed=expected is not None)
                run.run_pass(workload)
                peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                workload = None  # drop this set-up before the paired ones
                workload, theirs, setups = paired_setups(
                    build, program, reference, args.seed, workdir)
                freeze_setup()
                paired_passes(run, workload, theirs, args.seconds)
                metrics = end_to_end(run, setups, reference_times, peak_rss_kib)
                detail.update(setup_s=setups)
        detail.update(passes=run.passes,
                      jobs=len(workload.jobs), inputs=workload.inputs,
                      failures=run.failures[:20])
        print(json.dumps(detail))
        result = {
            "correct": not run.failures,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": metrics,
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
