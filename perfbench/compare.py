#!/usr/bin/env python3
"""Repeat benchmark runs and judge them by BENCHMARK.json's bounds.

Spread of one tree over several seeds (the steadiness check):

    python3 perfbench/compare.py spread --workload acyclic5 --seeds 1-10

A/B of two checkouts (for a gain claim; see README.md):

    python3 perfbench/compare.py ab --base ../parent --head . \\
        --workload acyclic5 --seeds 101-110

Each run is `python3 perfbench/run.py` inside the checkout. In ab mode the
two sides alternate which runs first, and each pair of runs shares a seed.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import quartile_spread  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree, workload, seed, seconds, trace=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("run failed in %s (seed %d)" % (tree, seed))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(args, spec):
    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(run_once(args.tree, args.workload, seed, args.seconds))
        print("seed %d: %s" % (seed, json.dumps(runs[-1])), flush=True)
    ok = True
    for metric in spec["end_to_end"]:
        values = [r[metric["name"]] for r in runs]
        s = quartile_spread(values)
        steady = metric["name"] == "setup_s" or s <= metric["bound"]
        ok &= steady
        print("%-16s median %-12.6g spread %.3f  bound %.2f  %s"
              % (metric["name"], statistics.median(values), s,
                 metric["bound"], "ok" if steady else "TOO WIDE"))
    return 0 if ok else 1


def ab(args, spec):
    base, head = [], []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = [("base", args.base), ("head", args.head)]
        if i % 2:
            order.reverse()
        for side, tree in order:
            result = run_once(tree, args.workload, seed, args.seconds)
            (base if side == "base" else head).append(result)
        print("seed %d done" % seed, flush=True)
    regressed = False
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        b = [r[name] for r in base]
        h = [r[name] for r in head]
        wins = sum(1 for x, y in zip(b, h) if (y < x if lower else y > x))
        losses = sum(1 for x, y in zip(b, h) if (y > x if lower else y < x))
        mb, mh = statistics.median(b), statistics.median(h)
        q1, _, q3 = statistics.quantiles(b, n=4)
        change = (mh - mb) / mb
        worse = change if lower else -change
        if worse > bound:
            verdict = "REGRESSION"
            regressed = True
        elif wins >= 0.9 * len(b) and abs(mh - mb) > q3 - q1:
            verdict = "gain"
        elif quartile_spread(b) > bound:
            verdict = "unresolved"
        else:
            verdict = "no change"
        print("%-16s base %-12.6g head %-12.6g %+7.1f%%  wins %d/%d"
              " losses %d  %s" % (name, mb, mh, 100 * change, wins, len(b),
                                  losses, verdict))
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    one = sub.add_parser("spread")
    one.add_argument("--tree", default=".")
    two = sub.add_parser("ab")
    two.add_argument("--base", required=True)
    two.add_argument("--head", required=True)
    for p in (one, two):
        p.add_argument("--workload", required=True)
        p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
        p.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec_tree = args.tree if args.mode == "spread" else args.head
    spec = json.loads((Path(spec_tree) / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return spread(args, spec) if args.mode == "spread" else ab(args, spec)


if __name__ == "__main__":
    sys.exit(main())
