"""Benchmark of chd, end to end and per layer.

    python3 benchmark/run.py --workload certify-ladder --seed 1 --seconds 15 --trace 0

Each workload is a closed loop: one job at a time from this one process,
with at most one CLI subprocess alive.  A fixed pure-Python reference
kernel runs just before and just after every job; a job's time divided by
the mean of those two kernel times is its cost in units of the host's
current speed ("ref").  The timed phase repeats whole passes over the job
list until ``--seconds`` have gone by.

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics; with ``--trace 1`` the passes alternate untraced and
traced, the per-layer metrics come from the traced ones, and the spans are
written to ``.bench_out/`` when the run ends.  Every output is checked
against the independent computations in ``checks.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5
PROCESS_REPEATS = 3
PROBE_RUNS = 9
REF_ITERATIONS = 15_000


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python integer loop that never calls
    chd: the median of three runs, so that one preempted run does not skew
    the jobs it brackets."""
    times = []
    for _ in range(3):
        start = perf_counter()
        x = 0
        for i in range(REF_ITERATIONS):
            x = (x * 31 + i) % 1_000_003
        times.append(perf_counter() - start)
        if x != 506_542:
            raise RuntimeError(f"reference kernel computed {x}")
    return statistics.median(times)


def pass_ref(records: dict) -> float:
    """Sum over jobs of the mean over passes of time / reference time.

    A run makes 2 to 10 passes; over so few, the mean repeats from run to
    run better than the median (interquartile spread over eight runs of
    certify-ladder 3.8% against 5.1%, of exhaustive-search 4.7% against
    7.8%)."""
    return sum(statistics.fmean(dt / ref for dt, ref in recs) for recs in records.values())


def _process_s(argv: list[str], env: dict) -> float:
    start = perf_counter()
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
    return perf_counter() - start


def _median_process_ms(argv: list[str], env: dict) -> float:
    return 1000 * statistics.median(_process_s(argv, env) for _ in range(PROCESS_REPEATS))


class Runner:
    """Runs jobs, counts attempts and failures, and checks outputs."""

    def __init__(self, rec) -> None:
        self.rec = rec
        self.attempted = self.failed = 0
        self.correct = True
        self._reported: set[tuple[str, str]] = set()

    def _note(self, job, kind: str, text: str) -> None:
        if (job.name, kind) not in self._reported:
            self._reported.add((job.name, kind))
            print(f"[{kind}] {job.name}: {text}", file=sys.stderr)

    def run(self, job) -> tuple[float, bool]:
        """Run and check one job; return its wall time in seconds and
        whether it completed (raised nothing)."""
        self.rec.job_begin(job.name)
        start = perf_counter()
        error = None
        try:
            out = job.run(self.rec)
        except Exception as exc:  # any exception is a failed operation, counted and reported
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        self.rec.job_end()
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self._note(job, "failed", error)
            return elapsed, False
        try:
            job.check(out)
        except Exception as exc:  # a CheckError, or output without the expected fields
            self.correct = False
            self._note(job, "wrong", f"{type(exc).__name__}: {exc}")
        return elapsed, True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chd" / "__init__.py").is_file():
        print(f"error: no chd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chd

    if Path(chd.__file__).resolve().parent != (SRC / "chd").resolve():
        print(f"error: chd was imported from {chd.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from spans import Recorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(args, workdir, Recorder(), WORKLOADS[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path, rec, factory) -> int:
    from workloads import cli_env, cli_peak_kb

    # set-up: importing chd in a fresh interpreter, then generating the
    # inputs (traced in a traced run).  An untraced run repeats it at even
    # intervals over the timed phase, so that its median, like the jobs,
    # sees the host as it was over the whole run.
    env = cli_env()

    def set_up():
        start = perf_counter()
        _process_s([sys.executable, "-c", "import chd.cli"], env)
        wl = factory(args.seed, rec, workdir)
        return perf_counter() - start, wl

    rec.begin("setup", bool(args.trace))
    setup_time, wl = set_up()
    setups = [setup_time]
    runner = Runner(rec)
    if wl.check_setup:
        from checks import CheckError

        try:
            wl.check_setup()
        except CheckError as exc:
            runner.correct = False
            print(f"[wrong] set-up: {exc}", file=sys.stderr)

    # timed phase: whole passes, as many as fit in --seconds (at least one,
    # and two in a traced run, which alternates untraced and traced passes).
    # In an untraced run the repeated set-ups, and the CLI probes of an
    # in-process workload, are spread evenly over the phase, so that they
    # see the same host as the jobs; their time is not counted against
    # --seconds.
    records = {False: defaultdict(list), True: defaultdict(list)}
    refs, probe_ms = [], []
    completed = 0  # untraced jobs that raised nothing
    extra = 0.0  # seconds spent on repeated set-ups and probes
    probes = PROBE_RUNS if wl.probe is not None and not args.trace else 0
    samples = 1 if args.trace else SETUP_SAMPLES
    passes = 0
    start = perf_counter()

    def busy() -> float:
        return perf_counter() - start - extra

    def due(done: int, total: int) -> bool:
        return done < total and busy() >= done * args.seconds / total

    def run_extras(finish: bool) -> None:
        nonlocal extra
        while finish and len(setups) < samples or due(len(setups), samples):
            setups.append(set_up()[0])
            extra += setups[-1]
        while finish and len(probe_ms) < probes or due(len(probe_ms), probes):
            probe_ms.append(1000 * runner.run(wl.probe)[0])
            extra += probe_ms[-1] / 1000

    while True:
        traced = bool(args.trace) and passes % 2 == 1
        rec.begin(passes, traced)
        for i, job in enumerate(wl.jobs):
            run_extras(False)
            before = reference_kernel()
            elapsed, ok = runner.run(job)
            after = reference_kernel()
            refs += [before, after]
            records[traced][i].append((elapsed, (before + after) / 2))
            completed += ok and not traced
        passes += 1
        if passes > args.trace and busy() * (passes + 1) / passes > args.seconds:
            break
    run_extras(True)

    untraced = records[False]
    job_times = [dt for recs in untraced.values() for dt, _ in recs]
    if wl.cli:
        cli_ms = [1000 * dt for dt in job_times]
        peak_kb = cli_peak_kb(workdir)
    else:
        cli_ms = probe_ms
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.trace:
        special = {
            "cli.python_start.ms": _median_process_ms([sys.executable, "-c", "pass"], env),
            "cli.import.ms": _median_process_ms([sys.executable, "-c", "import chd.cli"], env),
            "bench.ref_kernel.ms": 1000 * statistics.median(refs),
            "bench.pass_ref_traced": pass_ref(records[True]),
            "bench.trace_overhead_pct": 100 * (pass_ref(records[True]) / pass_ref(untraced) - 1),
        }
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {
            m["name"]: {"value": special.get(m["name"], rec.per_layer(m["name"])), "unit": m["unit"]}
            for m in per_layer
        }
        rec.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "jobs_per_s": {"value": completed / sum(job_times), "unit": "1/s"},
            "pass_ref": {"value": pass_ref(untraced), "unit": "ref"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
            "cli_ms_p50": {"value": statistics.median(cli_ms), "unit": "ms"},
        }
    print(f"{args.workload}: {passes} passes, {runner.attempted} operations, "
          f"{runner.failed} failed", file=sys.stderr)
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
