#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see WORKLOADS.md).

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout. The first run configures and
builds perfbench/ (and the Spitz libraries it compiles from src/) in
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later runs rebuild only what changed. Build output goes to standard error.
The benchmark's data directories and traces live under the same build
directory and are removed or overwritten by the next run.

The last line of standard output is the benchmark's JSON result. The exit
code is non-zero, with no result printed, when the build or the set-up
fails, and non-zero with "correct": false when a correctness check fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("kv-read", "kv-write", "cluster-txn")
RUN_TIMEOUT_S = 175  # a run must end within 180 s


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def source_id() -> str:
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(out: Path) -> bool:
    cache = out / "CMakeCache.txt"
    if cache.exists():
        # A cache configured from another source directory cannot be reused.
        home = [line for line in cache.read_text(errors="replace").splitlines()
                if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or Path(home[0].split("=", 1)[1]) != BENCH_DIR:
            cache.unlink()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "spitz_perf", "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode != 0:
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out = build_dir()
    if not (BENCH_DIR / "CMakeLists.txt").exists() or not build(out):
        print("run.py: build failed", file=sys.stderr)
        return 1
    binary = out / "spitz_perf"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", str(out / "data"), "--commit", source_id()]
    if args.trace:
        cmd += ["--trace-out",
                str(out / "traces" / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    # A terminated run.py takes the benchmark down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    child = subprocess.Popen(cmd)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
