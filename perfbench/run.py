#!/usr/bin/env python3
"""The repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload acyclic5 --seed 2026 --seconds 20 --trace 0

Run from the root of a checkout. The first run builds bagcq and the driver
from source (Release) under .bench_build/. The driver decides the seeded
corpus and checks every reply; this script turns its raw measurements into the
metrics BENCHMARK.json names, prints each with its unit, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones. A correctness failure
exits 1 and publishes no numbers.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
SERVER = BUILD_DIR / "tools" / "bagcq_server"
# The driver must exit 180 s after this script starts; the first run of a
# checkout also builds, which run_driver's deadline does not count.
RUN_DEADLINE_S = 170

DECISION_STAGES = ("cq.reduce", "core.analyze", "cq.hom", "core.eq8",
                   "entropy.nn_lp", "entropy.gamma_lp", "core.witness_build",
                   "cq.witness_count")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------- statistics

def percentile(values, p):
    """Linear-interpolated percentile of `values` (0 <= p <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values, p, min_beyond=10):
    """The p-th percentile, or None unless at least `min_beyond` samples lie
    strictly above it (fewer make the tail a guess)."""
    value = percentile(values, p)
    beyond = sum(1 for v in values if v > value)
    return value if beyond >= min_beyond else None


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# ------------------------------------------------------------- build

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError("run from the root of a bagcq checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD_DIR / "Makefile").exists():
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    for cmd in (configure,
                ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
                 "perfbench_driver", "bagcq_server"]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))


# ------------------------------------------------------------- fingerprint

def source_digest():
    """sha256 over the sources the benchmark builds, so runs of one tree can
    be matched even where git is absent."""
    digest = hashlib.sha256()
    roots = [ROOT / "src", ROOT / "tools", ROOT / "CMakeLists.txt", BENCH_DIR]
    files = []
    for root in roots:
        files += [root] if root.is_file() else sorted(root.rglob("*"))
    for path in files:
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


# ------------------------------------------------------------- driver

def run_driver(args):
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    run_dir = BUILD_DIR / "run"
    run_dir.mkdir(exist_ok=True)
    socket = run_dir / f"s{os.getpid()}.sock"
    # Unix socket paths are short; the checkout root may not be.
    cmd += ["--server", str(SERVER), "--socket", os.path.relpath(socket)]
    if args.trace:
        cmd += ["--trace", "--spans", str(run_dir / f"{args.workload}.spans.csv")]
    # Its own session, so a timeout also stops the server it launched.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("driver exceeded %d s" % RUN_DEADLINE_S)
    finally:
        socket.unlink(missing_ok=True)
    if proc.returncode != 0:
        raise RuntimeError("driver exited %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


# ------------------------------------------------------------- metrics

def end_to_end(raw, prefix="scaled_"):
    """The end-to-end metrics from the driver's series at nominal host speed
    (prefix "scaled_"), or as measured (prefix ""). Served latencies are
    taken per 1 s window and the median window is reported, so one stalled
    second of a shared host does not set the run's p99."""
    latencies = raw[prefix + "latency_ms"]
    groups = {}
    for value, window in zip(latencies, raw["window"]):
        groups.setdefault(window, []).append(value)
    groups = list(groups.values()) or [latencies]
    p99s = [tail_percentile(g, 99) for g in groups]
    if None in p99s:
        raise RuntimeError("too few samples for p99: %d"
                           % min(len(g) for g in groups))
    return {
        "pairs_per_s": statistics.median(raw[prefix + "rates"]),
        "decide_p50_ms": statistics.median(percentile(g, 50) for g in groups),
        "decide_p99_ms": statistics.median(p99s),
        "setup_s": statistics.median(raw[prefix + "setup_s"]),
        "peak_rss_mib": raw["peak_rss_mib"],
    }


def per_layer(raw):
    engine, service, trace = raw["engine"], raw["service"], raw["trace"]
    stages = trace["stages_ms"]
    decision_ms = sum(stages[s] for s in DECISION_STAGES)
    glue_ms = stages["api.handle"] - decision_ms
    untraced_ms = sum(raw["latency_ms"])
    traced_ms = (stages["wire.decode"] + decision_ms + glue_ms +
                 stages["wire.encode"])
    metrics = {
        "wire.decode_ms": stages["wire.decode"],
        "wire.encode_ms": stages["wire.encode"],
        "wire.key_ms": stages["wire.key"],
        "service.front_ms": raw["latency_total_ms"] - engine["total_ms"],
        "service.memo_hit_ratio":
            engine["decision_memo_hits"] / max(1, engine["decisions"]),
        "service.steals": service["steals"],
        "service.queue_depth_hwm": service["queue_depth_hwm"],
        "service.bytes_in": service["bytes_in"],
        "service.bytes_out": service["bytes_out"],
        "api.glue_ms": glue_ms,
        "trace.coverage": traced_ms / untraced_ms,
        "trace.overhead_ms": trace["traced_wall_ms"] - (
            stages["wire.decode"] + stages["api.handle"] +
            stages["wire.encode"]),
        "entropy.skeleton_build_ms": raw["skeleton_build_ms"],
        "entropy.prover_constructions": engine["prover_constructions"],
        "lp.solves": engine["lp_solves"],
        "lp.pivots": engine["lp_pivots"],
        "lp.word_pivots": engine["lp_word_pivots"],
        "lp.wide_pivots": engine["lp_wide_pivots"],
        "lp.bigint_promotions": engine["lp_bigint_promotions"],
        "lp.warm_accepts": engine["lp_warm_accepts"],
        "cq.homs": trace["homs"],
        "core.branches": trace["branches"],
        "core.witnesses": trace["witnesses"],
        "core.witness_too_large": trace["witness_too_large"],
        "cq.witness_db_tuples": trace["witness_db_tuples"],
        "host.probe_ms": raw["probe_ms"],
        "error_rate": raw["failed"] / raw["attempted"],
        "unknown_frac": raw["unknown"] / max(1, raw["reported_ok"]),
    }
    for stage in DECISION_STAGES:
        metrics[stage + "_ms"] = stages[stage]
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        build()
        raw = run_driver(args)
    except (RuntimeError, OSError, ValueError) as error:
        log("perfbench:", error)
        return 1

    fingerprint = {
        "workload": args.workload, "seed": args.seed,
        "corpus_digest": raw["corpus"]["digest"], "git_sha": git_sha(),
        "source_digest": source_digest(), **raw["build"],
    }
    print("fingerprint:", json.dumps(fingerprint, sort_keys=True))
    if raw["problem_count"]:
        log("perfbench: %d correctness failure(s):" % raw["problem_count"])
        for problem in raw["problems"]:
            log("  " + problem)
        print(json.dumps({"correct": False, "attempted": raw["attempted"],
                          "failed": raw["failed"], "metrics": {}}))
        return 1

    try:
        values = per_layer(raw) if args.trace else end_to_end(raw)
    except RuntimeError as error:
        log("perfbench:", error)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print("decide samples: %d latencies, %d requests timed, %d failed;"
          " host probe %.4f ms (nominal 0.4)"
          % (len(raw["latency_ms"]), raw["attempted"], raw["failed"],
             raw["probe_ms"]))
    measured = {} if args.trace else end_to_end(raw, prefix="")
    for name, metric in metrics.items():
        line = "%-30s %14.6g %s" % (name, metric["value"], metric["unit"])
        if name in measured:
            line += "   (as measured: %.6g)" % measured[name]
        print(line)
    result = {"correct": True, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    results = BUILD_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"fingerprint": fingerprint, **result},
                             indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
