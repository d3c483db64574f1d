#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady each metric is.

    python3 ciaobench/steadiness.py --runs 10 [--workloads a,b] [--first-seed 1]
                                    [--trace-runs 2] [--out results.json]
    python3 ciaobench/steadiness.py --compare first.json second.json

For every workload in BENCHMARK.json (or those named), the benchmark runs
--runs times with tracing off, each with another seed. For each end-to-end
metric the report gives the median, the first and third quartiles
(statistics.quantiles, n=4), and the spread (q3 - q1) / median against the
metric's bound. With --trace-runs, traced runs follow and the report gives
the per-layer medians and the tracing overhead: the traced cycle's e2e time
against the untraced one. --compare checks that a second set's medians are
not worse than a first set's by more than each bound. Run from the root of
a checkout; raw results are written to --out (default under .bench_build/).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: the correctness gate failed")
    result["wall_s"] = wall
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def report(spec, results):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':<16} {'metric':<14} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for wl, runs in results.items():
        untraced = [r for r in runs if not r["trace"]]
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in untraced]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= m["bound"] / 3:
                verdict = "steady (< bound/3)"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
            print(f"{wl:<16} {name:<14} {len(vals):>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>7.1%} {m['bound']:>6.0%}  {verdict}")
        if untraced:
            att = sum(r["attempted"] for r in untraced)
            fail = sum(r["failed"] for r in untraced)
            walls = [r["wall_s"] for r in untraced]
            print(f"{wl:<16} failed {fail}/{att} operations; wall per run "
                  f"{min(walls):.1f}-{max(walls):.1f} s")
        traced = [r for r in runs if r["trace"]]
        if traced:
            layer = {}
            for r in traced:
                for k, v in r["metrics"].items():
                    layer.setdefault(k, []).append(v["value"])
            for k, vs in layer.items():
                print(f"{wl:<16} {k:<30} median {statistics.median(vs):.6g} ({len(vs)} traced runs)")
            if untraced:
                base = statistics.median(r["metrics"]["e2e_s"]["value"] for r in untraced)
                over = statistics.median(layer["trace.e2e_s"]) / base - 1
                print(f"{wl:<16} tracing overhead on e2e_s: {over:+.1%}")


def compare(spec, first, second):
    ok = True
    for m in spec["end_to_end"]:
        for wl in first:
            a = [r["metrics"][m["name"]]["value"] for r in first[wl] if not r["trace"]]
            b = [r["metrics"][m["name"]]["value"] for r in second.get(wl, []) if not r["trace"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            good = worse <= m["bound"]
            ok &= good
            print(f"{wl:<16} {m['name']:<14} first {ma:>12.6g} second {mb:>12.6g} "
                  f"worse by {worse:+7.1%} bound {m['bound']:.0%}  {'ok' if good else 'REGRESSED'}")
    for wl in first:
        shares = [sum(r["failed"] for r in s.get(wl, [])) / max(1, sum(r["attempted"] for r in s.get(wl, [])))
                  for s in (first, second)]
        same = shares[0] == shares[1]
        ok &= same
        print(f"{wl:<16} failed share first {shares[0]:.6f} second {shares[1]:.6f}  {'ok' if same else 'DIFFERS'}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace-runs", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    a = p.parse_args()
    spec = load_spec()

    if a.compare:
        sets = []
        for f in a.compare:
            with open(f) as fh:
                sets.append(json.load(fh))
        sys.exit(0 if compare(spec, *sets) else 1)

    names = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    results = {}
    for wl in names:
        runs = []
        for i in range(a.runs):
            seed = a.first_seed + i
            r = run_once(spec, wl, seed, 0)
            r.update(seed=seed, trace=False)
            runs.append(r)
            print(f"# {wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
        for i in range(a.trace_runs):
            seed = a.first_seed + i
            r = run_once(spec, wl, seed, 1)
            r.update(seed=seed, trace=True)
            runs.append(r)
            print(f"# {wl} seed {seed} traced: e2e {r['metrics']['trace.e2e_s']['value']:.4f} s", flush=True)
        results[wl] = runs

    out = a.out or os.path.join(ROOT, ".bench_build", "ciaobench", f"steadiness-{int(time.time())}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(results, fh, indent=1)
    print(f"# raw results: {os.path.relpath(out, ROOT)}")
    report(spec, results)


if __name__ == "__main__":
    main()
