#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload and seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke] [--fault <name>]

Run from the repository root.  The driver (perfbench/*.cc plus the deluge
library from src/) is built in Release into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); a no-op rebuild costs about a second.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer metrics with --trace 1.  Lines above it (prefixed
"#") show the run stamp, the workload-specific names of the end-to-end
figures, sample counts and notes.  The full record, stamp included, is
also written to <build dir>/results/.  Exit status: 0 when every audit
passed, 1 otherwise (or when the build fails, in which case no result
line is printed).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("crowd_fanout", "mirror_remote", "twin_store")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the driver; False on failure."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                break
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
        return False
    return True


def source_stamp():
    """The git commit when there is one, and always a digest of the sources."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return commit, digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (the benchmark's own tests)")
    ap.add_argument("--fault", default="",
                    help="plant an audit fault: drop_delivery, drop_event, "
                         "lost_write or corrupt_readback")
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        return 1
    work = os.path.join(bdir, "run")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(bdir, "deluge_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           # Relative: keeps the Unix socket paths under the length limit.
           "--work-dir", os.path.relpath(work, ROOT)]
    if args.smoke:
        cmd.append("--smoke")
    if args.fault:
        cmd += ["--fault", args.fault]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver timed out\n")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: driver exited %d without a result\n"
                         % proc.returncode)
        return 1

    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in record["metrics"].items()}
    if got != want:
        sys.stderr.write("perfbench: metrics %s do not match BENCHMARK.json "
                         "%s\n" % (sorted(got.items()), sorted(want.items())))
        return 1

    commit, digest = source_stamp()
    stamp = dict(record["stamp"], seed=args.seed, seconds=args.seconds,
                 workload=args.workload, trace=args.trace, smoke=args.smoke,
                 fault=args.fault or None, git_commit=commit,
                 source_digest=digest)
    record["stamp"] = stamp
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("# stamp " + json.dumps(stamp, sort_keys=True))
    for note in record["notes"]:
        print("# " + note)
    for key, m in record["detail"].items():
        print("# %-36s %14.6g %s" % (key, m["value"], m["unit"]))
    for key, m in record["metrics"].items():
        print("# %-36s %14.6g %s  [metric]" % (key, m["value"], m["unit"]))
    final = {k: record[k] for k in ("correct", "attempted", "failed",
                                    "metrics")}
    print(json.dumps(final, separators=(",", ":")))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
