#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare them against the bounds.

Collect one set from this tree (one run per seed and workload; the
stdout of each run is kept as <dir>/<workload>-seed<n>.out):

    python3 perfbench/compare.py collect runs/a --seeds 1-10
    python3 perfbench/compare.py collect runs/a --seeds 1-5 --workloads wc-wiki

Collect two paired sets, one from each of two trees (say a checkout of
the parent commit and this one). The runs are interleaved seed by seed,
and the tree that runs first alternates from one seed to the next, so
both sets see the same spells of host speed:

    python3 perfbench/compare.py collect runs/parent runs/child \\
        --trees ../parent . --seeds 1-10

Report one set, or compare two:

    python3 perfbench/compare.py report runs/a
    python3 perfbench/compare.py report runs/parent runs/child

For every workload and end-to-end metric the report prints the median
and quartiles of the per-run values (statistics.quantiles, n=4) and the
spread (q3 - q1) / median. Each spread must stay within the metric's
bound in BENCHMARK.json, setup_s included, and should stay within a
third of it.

For two sets it judges the second against the first. When both sets
hold the same seeds of a workload, it takes the per-seed ratio
second / first and judges the median of those ratios: a ratio of two
runs taken back to back cancels host drift slower than a pair of runs,
which a comparison of two set medians taken minutes apart does not.
The ratio's quartiles, and the number of pairs in which the second
set's run was the better, are printed beside it. The shift of the two
set medians is printed too, for information. When the seeds differ,
the set-median shift is judged instead. A shift within the bound is
reported as unresolved, not as ok, when either set's spread exceeds
the bound, unless every run of the second set is better than every run
of the first. The share of failed jobs must be identical in both sets.
Exit status 1 when any verdict fails or is unresolved.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec(tree=ROOT):
    return json.loads((Path(tree) / "BENCHMARK.json").read_text())


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(tree, out, name, seed):
    s = spec(tree)
    cmd = [*s["command"], "--workload", name, "--seed", str(seed),
           "--seconds", str(s["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    # Each tree builds under its own .bench_build.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    wall = time.monotonic() - t0
    (out / f"{name}-seed{seed}.out").write_text(proc.stdout)
    print(f"{out.name}: {name} seed {seed}: exit {proc.returncode}, "
          f"{wall:.1f} s wall", flush=True)
    if proc.returncode != 0:
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        print(proc.stderr[-2000:], file=sys.stderr)
        print(last[0], file=sys.stderr)


def collect(args):
    trees = [Path(t).resolve() for t in args.trees] or [ROOT] * len(args.dirs)
    if len(args.dirs) not in (1, 2) or len(trees) != len(args.dirs):
        sys.exit("collect takes one or two directories and as many --trees")
    outs = [Path(d) for d in args.dirs]
    for out in outs:
        out.mkdir(parents=True, exist_ok=True)
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec()["workloads"]]
    for k, seed in enumerate(seeds(args.seeds)):
        order = list(range(len(outs)))
        if k % 2:
            order.reverse()
        for name in names:
            for i in order:
                run_one(trees[i], outs[i], name, seed)
    return 0


def load(directory):
    """{workload: {seed: result}} from the last stdout line of each run."""
    runs = {}
    for path in sorted(Path(directory).glob("*-seed*.out")):
        name, _, seed = path.stem.rpartition("-seed")
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        runs.setdefault(name, {})[int(seed)] = result
    return runs


def quart(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def value(result, metric):
    return result["metrics"].get(metric, {}).get("value")


def worse_by(change, metric):
    """The relative change (new / old - 1) in the metric's worse direction."""
    return change if metric["better"] == "lower" else -change


def report(args):
    s = spec()
    sets = [load(d) for d in args.dirs]
    labels = "AB"
    ok = True
    for w in s["workloads"]:
        name = w["name"]
        if not all(name in runs for runs in sets):
            continue
        print(f"\n{name}")
        for i, runs in enumerate(sets):
            res = list(runs[name].values())
            att = sum(r["attempted"] for r in res)
            fail = sum(r["failed"] for r in res)
            bad = sum(not r["correct"] for r in res)
            print(f"  set {labels[i]}: {len(res)} runs, {att} jobs, "
                  f"{fail} failed, {bad} runs with wrong output")
            ok &= bad == 0
        shares = [[r["failed"] / r["attempted"] for r in runs[name].values()]
                  for runs in sets]
        if len(sets) == 2 and (sum(shares[0]) / len(shares[0]) !=
                               sum(shares[1]) / len(shares[1])):
            print("  FAIL: failed-job share differs between the sets")
            ok = False
        paired = len(sets) == 2 and sets[0][name].keys() == sets[1][name].keys()
        print(f"  {'metric':<14}{'set':>5}{'median':>14}{'q1':>14}"
              f"{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
        for m in s["end_to_end"]:
            vals, meds, wide = [], [], False
            for i, runs in enumerate(sets):
                vals.append([v for r in runs[name].values()
                             if (v := value(r, m["name"])) is not None])
                if not vals[i]:
                    continue
                q1, med, q3 = quart(vals[i])
                meds.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                if spread > m["bound"]:
                    verdict, ok, wide = "FAIL: spread over bound", False, True
                elif spread > m["bound"] / 3:
                    verdict = "within bound, over a third of it"
                else:
                    verdict = "ok"
                print(f"  {m['name']:<14}{labels[i]:>5}{med:>14.6g}"
                      f"{q1:>14.6g}{q3:>14.6g}{spread:>9.2%}"
                      f"{m['bound']:>7.2f}  {verdict}")
            if len(meds) != 2:
                continue
            shift = (meds[1] - meds[0]) / meds[0]
            quarts = ""
            if paired:
                ratios = [value(sets[1][name][k], m["name"]) /
                          value(sets[0][name][k], m["name"])
                          for k in sorted(sets[0][name])]
                q1, med, q3 = quart(ratios)
                change = med - 1
                quarts = f"{q1 - 1:>+14.2%}{q3 - 1:>+14.2%}"
                wins = sum(worse_by(r - 1, m) < 0 for r in ratios)
                how = f"paired by seed, B better in {wins}/{len(ratios)}"
            else:
                change, how = shift, "set medians"
            # Every run of B better than every run of A.
            all_better = (max(vals[1]) < min(vals[0])
                          if m["better"] == "lower"
                          else min(vals[1]) > max(vals[0]))
            if worse_by(change, m) > m["bound"]:
                verdict, ok = "FAIL: B worse", False
            elif wide and not all_better:
                verdict = "UNRESOLVED: spread over bound"
            else:
                verdict = "ok"
            print(f"  {'':<14}{'B/A':>5}{change:>+14.2%}{quarts:<28}"
                  f"{'':>9}{m['bound']:>7.2f}  {verdict} ({how})")
            if paired:
                print(f"  {'':<14}{'B/A':>5}{shift:>+14.2%}{'':>37}"
                      f"{'':>7}  set medians, not judged")
    print("\nall verdicts ok" if ok else "\nSOME VERDICTS FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dirs", nargs="+")
    c.add_argument("--trees", nargs="+", default=[])
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="")
    r = sub.add_parser("report")
    r.add_argument("dirs", nargs="+")
    args = p.parse_args()
    return collect(args) if args.cmd == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
