#!/usr/bin/env python3
"""Builds and runs the end-to-end campaign benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload default_matrix --seed 1 \
        --seconds 46 --trace 0

Each run configures and builds perfbench/ (the library sources under src/
plus campaign_bench) in $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; only the first run
compiles anything. Build output goes to
standard error; the benchmark's report goes to standard output, and its last
line is one JSON object. The exit code is the benchmark's: non-zero on any
failed job, refuted key, fidelity mismatch or build failure.
"""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("default_matrix", "scaled_matrix", "point_function")
RUN_LIMIT_S = 170  # the whole run, build excluded, must end within this
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(root: pathlib.Path) -> pathlib.Path:
    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", "4"],
        check=True, stdout=sys.stderr)
    return build_dir


def digest_note(lines: list[str]) -> str | None:
    """Compares the run's determinism digest with the recorded one."""
    for line in lines:
        m = re.match(r"digest (\S+) campaign_seed=(\S+) csv_fnv1a=(\S+)", line)
        if not m:
            continue
        workload, seed, digest = m.groups()
        recorded = json.loads((HERE / "digests.json").read_text())
        expected = recorded.get(seed, {}).get(workload)
        if expected is None:
            return f"digest {digest}: none recorded for campaign seed {seed}"
        if expected == digest:
            return f"digest {digest}: matches the recorded trajectory"
        return (f"digest {digest}: DIFFERS from recorded {expected} "
                "(campaign trajectories changed)")
    return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="orders the traced pass's jobs")
    p.add_argument("--seconds", type=float, required=True,
                   help="time budget for repeating the campaign")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--campaign-seed", default="0x6a0b5eed",
                   help="campaign seed of the job matrix")
    args = p.parse_args()

    root = HERE.parent
    try:
        build_dir = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = build_dir.parent / "perfbench-work"
    cmd = [str(build_dir / "campaign_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--campaign-seed", args.campaign_seed, "--work-dir", str(work_dir)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        print("perfbench: no result line", file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    note = digest_note(lines)
    if note:
        print(note)
    print(f"run took {time.monotonic() - start:.1f} s")
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
