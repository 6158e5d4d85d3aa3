#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench workload binary from source and
runs one workload in its own process with a fixed thread budget.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics of an untraced run. --trace 1 runs
the workload untraced and then traced, and prints the per-layer metrics;
the traced run also writes its spans as a Chrome trace under .bench_build/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
op passed its correctness gate. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_build" / "runs"

# Every timed workload runs one simmpi rank with one OpenMP thread per job
# (the service runs 2 such workers). The thread budget is fixed in the
# child's environment before the process starts: threads the library
# creates (simmpi ranks, service workers) take the process-wide OpenMP
# default, so setting it in main() would be too late.
#
# The reference host is a shared 4-vCPU virtual machine. While other
# tenants load it, every vCPU a job keeps busy is stolen from at random,
# and a job whose threads wait on each other stalls with the slowest one.
# There, two-rank crack-hex8 went from an 18 ms p50 to 55-290 ms; one
# rank with two threads kept its p50 but its p90 reached 1.6-1.8x the
# p50; one thread kept it at 1.1-1.2x. Ranks and threads are measured by
# the scaling pass of spmv-hex20 in the traced invocation instead.
WORKLOADS = {
    "spmv-hex20": {"reference": True},
    "crack-hex8": {"reference": False},
    "service-tet4": {"reference": False},
}
SCALING_RANKS = 2
SCALING_THREADS = 2
SETUP_REPEATS = 7  # setup_s is the median of this many set-ups
EXCHANGE_LAYERS = ("core.lnsm_s", "core.gngm_s", "simmpi.messages_per_op",
                   "simmpi.bytes_per_op")
SCRUBBED_PREFIXES = ("HYMV_", "OMP_", "GOMP_", "KMP_")
MIN_TAIL = 10  # samples that must lie beyond a reported p90
PROCESS_TIMEOUT_S = 150

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("mesh.build_s", "s"),
    ("driver.rank_context_s", "s"),
    ("driver.build_backend_s", "s"),
    ("core.emat_compute_s", "s"),
    ("core.maps_s", "s"),
    ("core.local_copy_s", "s"),
    ("core.store_mb", "MiB"),
    ("core.apply_calls", "count"),
    ("core.apply_s", "s"),
    ("core.emv_s", "s"),
    ("core.apply_flops", "flop"),
    ("core.apply_bytes_computed", "B"),
    ("core.apply_gbps_computed", "GB/s"),
    ("core.apply_triad_frac", "fraction"),
    ("core.updated_elements", "count"),
    ("core.update_elements_s", "s"),
    ("core.lnsm_s", "s"),
    ("core.gngm_s", "s"),
    ("simmpi.messages_per_op", "count"),
    ("simmpi.bytes_per_op", "B"),
    ("pla.cg_s", "s"),
    ("pla.cg_iterations", "count"),
    ("pla.cg_self_s", "s"),
    ("pla.allreduces_per_op", "count"),
    ("pla.precond_setup_s", "s"),
    ("pla.precond_apply_s", "s"),
    ("pla.precond_calls", "count"),
    ("svc.queue_ms_p50", "ms"),
    ("svc.solve_ms_p50", "ms"),
    ("svc.solve_ms_p90", "ms"),
    ("svc.panel_lanes_mean", "count"),
    ("svc.batches", "count"),
    ("svc.cache_hit_ratio", "fraction"),
    ("svc.cg_iterations", "count"),
    ("svc.retries", "count"),
    ("svc.rejected", "count"),
    ("op.unattributed_frac", "fraction"),
    ("obs.trace_overhead_frac", "fraction"),
    ("core.apply_parallel_eff", "fraction"),
]


class BenchError(Exception):
    """A failure that leaves no result to print."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def p50(samples):
    return statistics.median(samples)


def p90(samples):
    """(p90, samples beyond it); p90 is None when fewer than MIN_TAIL
    samples lie beyond it, so the tail is not supported by the sample."""
    if len(samples) < 2:
        return None, 0
    value = statistics.quantiles(samples, n=10, method="inclusive")[8]
    beyond = sum(1 for s in samples if s > value)
    return (value if beyond >= MIN_TAIL else None), beyond


def p90_or_fail(samples, what):
    value, beyond = p90(samples)
    if value is None:
        raise BenchError(
            f"{what}: only {beyond} of {len(samples)} samples lie beyond p90 "
            f"(need {MIN_TAIL}); run longer")
    return value


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------


def load_spans(path):
    with open(path) as f:
        doc = json.load(f)
    spans = []
    for ev in doc["traceEvents"]:
        args = ev["args"]
        spans.append({
            "name": ev["name"], "lane": ev["tid"],
            "start": ev["ts"], "end": ev["ts"] + ev["dur"],
            "id": args["id"], "parent": args["parent"],
            "op": args["op"], "repeat": args["repeat"],
        })
    return spans


def union_length(intervals):
    total = 0.0
    reach = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans):
    """Span id -> its duration minus the part its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], []))
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def span_metrics(spans):
    """Per-layer numbers of a traced run, in seconds. Op-phase numbers are
    per op and per lane (a lane is one simmpi rank, or the service
    generator); set-up numbers are the median over set-up repeats of the
    mean over lanes."""
    selfs = self_times(spans)
    op_spans = [s for s in spans if s["name"] == "op" and s["op"] >= 0]
    ops = len({s["op"] for s in op_spans})
    lanes = len({s["lane"] for s in op_spans})
    norm = max(ops * lanes, 1)
    in_ops = [s for s in spans if s["op"] >= 0]

    def per_op(name, self_time=False):
        total = sum(selfs[s["id"]] if self_time else s["end"] - s["start"]
                    for s in in_ops if s["name"] == name)
        return total / norm / 1e6

    def calls(name):
        return sum(1 for s in in_ops if s["name"] == name) / norm

    def setup(name):
        per_repeat = {}
        for s in spans:
            if s["name"] == name and s["op"] < 0 and s["repeat"] >= 0:
                lanes_of = per_repeat.setdefault(s["repeat"], {})
                lanes_of[s["lane"]] = (lanes_of.get(s["lane"], 0.0) +
                                       s["end"] - s["start"])
        if not per_repeat:
            return 0.0
        return statistics.median(
            sum(v.values()) / len(v) for v in per_repeat.values()) / 1e6

    op_total = sum(s["end"] - s["start"] for s in op_spans)
    return {
        "ops": ops,
        "mesh.build_s": setup("mesh.build"),
        "driver.rank_context_s": setup("driver.rank_context"),
        "driver.build_backend_s": setup("driver.build_backend"),
        "core.apply_calls": calls("core.apply"),
        "core.apply_s": per_op("core.apply"),
        "core.update_elements_s": per_op("core.update_elements"),
        "pla.cg_s": per_op("pla.cg"),
        "pla.cg_self_s": per_op("pla.cg", self_time=True),
        "pla.precond_setup_s": per_op("pla.precond_setup"),
        "pla.precond_apply_s": per_op("pla.precond_apply"),
        "pla.precond_calls": calls("pla.precond_apply"),
        "op.unattributed_frac": (
            sum(selfs[s["id"]] for s in op_spans) / op_total
            if op_total > 0 else 0.0),
    }


# ---------------------------------------------------------------------------
# Running the workload binary
# ---------------------------------------------------------------------------


def scrubbed_env(base, threads):
    """The inherited environment without any HYMV_* or OpenMP setting (the
    library reads HYMV_STORE_LAYOUT, HYMV_ISA, HYMV_CG_PIPELINED, ... at
    construction), plus the workload's own thread budget."""
    env = {k: v for k, v in base.items()
           if not k.startswith(SCRUBBED_PREFIXES)}
    env["OMP_NUM_THREADS"] = str(threads)
    return env


def build():
    """Configure and build the workload binary; both are quick no-ops when
    nothing changed. Compiler output goes to stderr."""
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return BUILD_DIR / "perfbench"


def run_binary(binary, flags, threads):
    cmd = [str(binary)] + [str(f) for f in flags]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=scrubbed_env(os.environ, threads),
                              timeout=PROCESS_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out: {' '.join(cmd)}") from e
    if done.returncode != 0:
        raise BenchError(f"exit code {done.returncode}: {' '.join(cmd)}")
    return done.stdout


def run_workload(binary, workload, seed, seconds, traced=False, ranks=1,
                 threads=1, repeats=1):
    spec = WORKLOADS[workload]
    tag = f"{workload}-s{seed}-r{ranks}t{threads}{'-traced' if traced else ''}"
    out = RUNS_DIR / f"{tag}.json"
    flags = ["--workload", workload, "--seed", seed, "--seconds", seconds,
             "--ranks", ranks, "--repeats", repeats, "--out", out]
    if spec["reference"]:
        # Shared by the passes of one invocation; main() removes it.
        reference = RUNS_DIR / f"{workload}-s{seed}-r{ranks}.ref"
        if not reference.exists():
            run_binary(binary, ["--make-reference", reference, "--seed", seed,
                                "--ranks", ranks], threads)
        flags += ["--reference", reference]
    if traced:
        flags += ["--trace-file", RUNS_DIR / f"{workload}.trace.json"]
    try:
        run_binary(binary, flags, threads)
        with open(out) as f:
            return json.load(f)
    finally:
        out.unlink(missing_ok=True)


def canary(binary):
    return json.loads(run_binary(binary, ["--canary"], 1).strip())


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(setup, timed):
    """End-to-end metrics. Set-up is timed in its own process, so the
    memory its repeats leave behind stays out of the timed run's peak."""
    ops = timed["op_ms"]
    return {
        "setup_s": statistics.median(setup["setup_s"]),
        "op_p50_ms": p50(ops),
        "op_p90_ms": p90_or_fail(ops, "op_p90_ms"),
        "ops_per_s": len(ops) / timed["timed_wall_s"],
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def per_layer(untraced, traced, scaling=None):
    """Per-layer metrics from a traced run, with the untraced run of the
    same invocation for the tracing overhead. For spmv-hex20, `scaling` is
    the SCALING_RANKS × SCALING_THREADS run behind the exchange row and the
    parallel efficiency. Layers a workload does not exercise report 0."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    layers = traced["layers"]
    for name in m:
        if name in layers:
            m[name] = layers[name]
    spans = span_metrics(load_spans(traced["trace_file"]))
    for name in m:
        if name in spans:
            m[name] = spans[name]
    if scaling is not None:
        for name in EXCHANGE_LAYERS:
            m[name] = scaling["layers"][name]
        m["core.apply_parallel_eff"] = p50(untraced["op_ms"]) / (
            SCALING_RANKS * SCALING_THREADS * p50(scaling["op_ms"]))

    calls = m["core.apply_calls"]
    m["core.apply_flops"] = calls * layers.get("apply_flops_per_call", 0.0)
    m["core.apply_bytes_computed"] = (
        calls * layers.get("apply_bytes_per_call", 0.0))
    if m["core.apply_s"] > 0:
        m["core.apply_gbps_computed"] = (
            m["core.apply_bytes_computed"] / m["core.apply_s"] / 1e9)
    triad = layers.get("triad_bytes_per_s", 0.0)
    if triad > 0:
        m["core.apply_triad_frac"] = m["core.apply_gbps_computed"] * 1e9 / triad

    if traced["svc_solve_ms"]:
        m["svc.queue_ms_p50"] = p50(traced["svc_queue_ms"])
        m["svc.solve_ms_p50"] = p50(traced["svc_solve_ms"])
        m["svc.solve_ms_p90"] = p90_or_fail(traced["svc_solve_ms"],
                                            "svc.solve_ms_p90")

    m["obs.trace_overhead_frac"] = (
        p50(traced["op_ms"]) / p50(untraced["op_ms"]) - 1.0)
    return m


def source_identity():
    """Git commit when the checkout is a repository (read from .git, never
    above the checkout) and a digest of the measured sources either way."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = ROOT / ".git" / ref
            if loose.exists():
                commit = loose.read_text().strip()
            else:
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        commit = line.split()[0]
        else:
            commit = text
    except OSError:
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE / "src"):
        files += [p for p in top.rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def result_line(correct, attempted, failed, values, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        binary = build()
        RUNS_DIR.mkdir(parents=True, exist_ok=True)
        canary_start = canary(binary)
        # A traced invocation sets up as often untraced as traced, so the
        # tracing overhead compares like with like.
        repeats = SETUP_REPEATS if args.trace else 1
        untraced = run_workload(binary, args.workload, args.seed, args.seconds,
                                repeats=repeats)
        results = [untraced]
        if args.trace:
            traced = run_workload(binary, args.workload, args.seed,
                                  args.seconds, traced=True,
                                  repeats=SETUP_REPEATS)
            results.append(traced)
            scaling = None
            if args.workload == "spmv-hex20":
                scaling = run_workload(
                    binary, args.workload, args.seed,
                    max(2.0, args.seconds / 4), ranks=SCALING_RANKS,
                    threads=SCALING_THREADS)
                results.append(scaling)
            values = per_layer(untraced, traced, scaling)
            units = PER_LAYER
        else:
            setup = run_workload(binary, args.workload, args.seed, 0,
                                 repeats=SETUP_REPEATS)
            values = end_to_end(setup, untraced)
            units = END_TO_END
        canary_end = canary(binary)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        for reference in RUNS_DIR.glob("*.ref"):
            reference.unlink()

    commit, digest = source_identity()
    config = dict(untraced["config"], git_commit=commit, source_digest=digest,
                  nproc=os.cpu_count(),
                  thread_budget="OMP_NUM_THREADS=1")
    ops = untraced["op_ms"]
    print("config: " + json.dumps(config, sort_keys=True))
    print("canary (diagnostic, single thread): start "
          f"compute_ms={canary_start['compute_ms']:.2f} "
          f"triad_gbps={canary_start['triad_gbps']:.2f}; end "
          f"compute_ms={canary_end['compute_ms']:.2f} "
          f"triad_gbps={canary_end['triad_gbps']:.2f}")
    print(f"samples: ops={len(ops)} beyond_op_p90={p90(ops)[1]} "
          f"setup_repeats={SETUP_REPEATS}")
    if args.trace:
        print(f"trace: {results[1]['trace_file']}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(result_line(failed == 0, attempted, failed, values, units))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
