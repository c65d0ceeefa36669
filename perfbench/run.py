#!/usr/bin/env python3
"""Repo benchmark: builds polybench from source and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --workload all --seed <n>       # every workload
  python3 perfbench/run.py --check-determinism [--seed <n>]  # sims, twice each

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones (see
perfbench/README.md). Earlier lines give every metric with its unit and
sample count, and the run environment (nproc, load average before and
after, machine-wide busy and steal shares of CPU time during the run,
build type, WAL sync policy); the environment line is also appended to
.bench_build/perfbench-runs.jsonl.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the benchmark could not be built or run.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ["tcp_wal_2pc", "sim_lossy_poly", "sim_paxos_hot"]
SIM_WORKLOADS = ["sim_lossy_poly", "sim_paxos_hot"]
# Seed kept out of tuning: check claims on it before trusting them.
HELD_OUT_SEED = 90210
# Metrics that must repeat bit for bit across runs of one seed on the
# simulated workloads (end-to-end from --trace 0, per-layer from --trace 1).
DETERMINISTIC = {
    0: ["commit_tput", "commit_p50_ms", "commit_p99_ms", "commit_frac",
        "certain_out_frac"],
    1: ["net.msgs_per_commit", "sim.events_per_commit"],
}
RUN_TIMEOUT_S = 170
# Compilers write temporaries to TMPDIR; keep them inside the checkout.
TMP = os.path.join(BUILD_ROOT, "tmp")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def run_quiet(cmd, what):
    os.makedirs(TMP, exist_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          env=dict(os.environ, TMPDIR=TMP))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError(f"{what} failed (exit {proc.returncode})")
    return proc.stdout


def build():
    """Configures and builds polybench and its helper tests, then runs them."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no polyvalue sources at src/: run from a checkout root")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target", "polybench",
               "perfbench_helpers_test"], "build")
    run_quiet([os.path.join(BUILD, "perfbench_helpers_test")], "helper tests")


def cpu_ticks():
    """Whole-machine CPU ticks from /proc/stat: (busy, steal, total)."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    steal = fields[7] if len(fields) > 7 else 0
    total = sum(fields[:8])
    return total - idle - steal, steal, total


def run_polybench(workload, seed, seconds, trace):
    """Runs one workload in a child process; returns its report and env."""
    work_dir = os.path.join(BUILD_ROOT, "work", f"{workload}-{os.getpid()}")
    spans_dir = os.path.join(BUILD_ROOT, "spans")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "polybench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work_dir]
    if trace:
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{workload}-seed{seed}.tsv")]
    load_before = os.getloadavg()
    ticks_before = cpu_ticks()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    load_after = os.getloadavg()
    ticks_after = cpu_ticks()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"polybench exited {proc.returncode} on {workload}")
    report = json.loads(lines[-1])
    env = {"workload": workload, "seed": seed, "trace": trace,
           "nproc": os.cpu_count(),
           "loadavg_before": list(load_before),
           "loadavg_after": list(load_after)}
    if ticks_before and ticks_after:
        # Machine-wide shares over the run: busy includes this run itself;
        # steal is time the hypervisor gave the vCPUs to someone else.
        busy, steal, total = (b - a for a, b in zip(ticks_before, ticks_after))
        if total > 0:
            env["cpu_busy_share"] = round(busy / total, 4)
            env["cpu_steal_share"] = round(steal / total, 4)
    env.update(report.get("env", {}))
    return report, env


def print_report(report, env):
    print(f"# {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} correct={report['correct']} "
          f"attempted={report['attempted']} failed={report['failed']}")
    for error in report["errors"]:
        print(f"# correctness check failed: {error}")
    for i, rep in enumerate(report.get("reps", [])):
        print(f"# repetition {i}: {rep}")
    print(f"{'metric':34} {'value':>16} {'unit':>8} {'samples':>9}")
    for name, m in report["metrics"].items():
        print(f"{name:34} {m['value']:16.6g} {m['unit']:>8} {m['samples']:9d}")
    print("env " + json.dumps(env, sort_keys=True))
    try:
        with open(os.path.join(BUILD_ROOT, "perfbench-runs.jsonl"), "a") as f:
            f.write(json.dumps({"env": env, "correct": report["correct"],
                                "reps": report.get("reps", []),
                                "metrics": report["metrics"]}) + "\n")
    except OSError:
        pass


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def bench(workloads, seed, seconds, trace):
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        report, env = run_polybench(workload, seed, seconds, trace)
        print_report(report, env)
        correct = correct and report["correct"]
        attempted += report["attempted"]
        failed += report["failed"]
        prefix = "" if len(workloads) == 1 else workload + "."
        for name, m in report["metrics"].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(result_line(correct, attempted, failed, metrics), flush=True)
    return 0 if correct else 1


def check_determinism(seed, seconds):
    """Runs each sim workload twice per mode with one seed; compares."""
    ok = True
    for workload in SIM_WORKLOADS:
        for trace, names in DETERMINISTIC.items():
            runs = [run_polybench(workload, seed, seconds, trace)[0]
                    for _ in range(2)]
            for name in names:
                a, b = (r["metrics"][name]["value"] for r in runs)
                same = a == b and all(r["correct"] for r in runs)
                ok = ok and same
                print(f"{workload:16} seed={seed} {name:24} "
                      f"{a!r:>22} {b!r:>22} {'same' if same else 'DIFFERENT'}")
    print(json.dumps({"deterministic": ok, "seed": seed}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int,
                        help="default 1; --check-determinism defaults to "
                             "the held-out seed")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.check_determinism):
        parser.error("give --workload or --check-determinism")
    try:
        build()
        if args.check_determinism:
            seed = HELD_OUT_SEED if args.seed is None else args.seed
            return check_determinism(seed, args.seconds)
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        seed = 1 if args.seed is None else args.seed
        return bench(workloads, seed, args.seconds, args.trace)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
