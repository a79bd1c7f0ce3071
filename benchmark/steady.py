"""Steadiness check: run one workload k times and summarise each metric.

    python3 benchmark/steady.py --workload revival-search --runs 10 --first-seed 1
    python3 benchmark/steady.py --compare A.json B.json

The first form runs the command in BENCHMARK.json k times, one after the
other, with seeds first-seed .. first-seed + k - 1, saves every result to
``.bench_out/steady-<workload>-<first-seed>.json`` and prints,
for each metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median beside the metric's bound.  The second
form compares two saved sets: for every end-to-end metric, how much worse
the second median is than the first, as a share of the first, against the
bound, and whether the share of failed operations is the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_set(spec: dict, workload: str, runs: int, first_seed: int) -> list[dict]:
    results = []
    for seed in range(first_seed, first_seed + runs):
        argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
    return results


def summarise(results: list[dict], bounds: dict) -> list[str]:
    lines = [f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}"]
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread <= bound / 3 else "WIDE" if spread > bound else "wide")
        lines.append(f"{name:34s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} "
                     f"{'' if bound is None else bound:>6} {flag}")
    shares = {r["failed"] / r["attempted"] for r in results}
    lines.append(f"failed share: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}")
    return lines


def compare(a: list[dict], b: list[dict], spec: dict) -> list[str]:
    lines = []
    for m in spec["end_to_end"]:
        name = m["name"]
        if name not in a[0]["metrics"]:
            continue
        ma = statistics.median(r["metrics"][name]["value"] for r in a)
        mb = statistics.median(r["metrics"][name]["value"] for r in b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        lines.append(f"{name:16s} first {ma:12.4f} second {mb:12.4f} worse by {worse:+.4f} "
                     f"(bound {m['bound']}) {'ok' if worse <= m['bound'] else 'REGRESSED'}")
    sa = {r["failed"] / r["attempted"] for r in a}
    sb = {r["failed"] / r["attempted"] for r in b}
    lines.append(f"failed share: {sorted(sa)} vs {sorted(sb)} {'same' if sa == sb else 'DIFFERENT'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar="FILE")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        a, b = (json.loads(Path(p).read_text())["results"] for p in args.compare)
        print("\n".join(compare(a, b, spec)))
        return 0
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    results = run_set(spec, args.workload, args.runs, args.first_seed)
    out = ROOT / ".bench_out" / f"steady-{args.workload}-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "results": results}, indent=1))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("\n".join([f"{args.workload}: {len(results)} runs, saved to {out}"] + summarise(results, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
