#!/usr/bin/env python3
"""End-to-end PairUpLight training benchmark.

Builds the benchmark program from the checkout's sources (cmake, into
$CARGO_TARGET_DIR/trainbench, default .bench_build/trainbench) and runs it.

  python3 trainbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload. The last line of standard output is the JSON result:
      {"correct", "attempted", "failed", "metrics"}; --trace 0 gives the
      end-to-end metrics, --trace 1 the per-layer ledger.
  python3 trainbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
      Every workload, then one table of every metric with its unit.
  python3 trainbench/run.py --self-test
      The benchmark's own tests (test_bench.py).

Workloads, metrics and the seeds are described in trainbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# grid6_train_4t runs here and in --all but is not a BENCHMARK.json workload:
# its 4-thread timings are too unsteady on a shared machine (README.md).
WORKLOADS = ["grid6_train", "grid6_train_4t", "monaco_train", "grid6_eval"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    pass


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "trainbench"


def _run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError("command failed: " + " ".join(cmd))


def build():
    """Configures (once) and builds the benchmark; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    bdir = build_dir()
    cache = bdir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(bdir)  # configured for another checkout
    if not cache.is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        _run_quiet(["cmake", "-S", str(HERE), "-B", str(bdir),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    _run_quiet(["cmake", "--build", str(bdir), "-j", jobs])
    return bdir


def commit_id():
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown"


def source_digest():
    """Hash of the library and benchmark sources (the checkout may not be a git tree)."""
    digest = hashlib.sha256()
    for top in ("src", "trainbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_program(bdir, workload, seed, seconds, trace, extra=(), capture_stderr=False):
    """Runs one workload; returns the CompletedProcess (stdout captured)."""
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(bdir / "train_bench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tmpdir", str(tmp),
           "--commit", commit_id(), "--source-digest", source_digest(), *extra]
    return subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE if capture_stderr else None,
                          text=True, timeout=RUN_TIMEOUT_S)


def parse_result(stdout):
    """The JSON result on the last line, or None when it is missing or malformed."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


def parse_stamp(stdout):
    for line in stdout.splitlines():
        if line.startswith("stamp "):
            return json.loads(line[len("stamp "):])
    return {}


def run_all(bdir, seed, seconds, trace):
    rows = []
    for workload in WORKLOADS:
        proc = run_program(bdir, workload, seed, seconds, trace)
        sys.stdout.write(proc.stdout)
        result = parse_result(proc.stdout) if proc.returncode == 0 else None
        rows.append((workload, parse_stamp(proc.stdout), result))
    print()
    print(f"seed {seed}  seconds {seconds}  trace {trace}")
    ok = True
    for workload, stamp, result in rows:
        if result is None:
            print(f"{workload:16s} FAILED (no result)")
            ok = False
            continue
        ok = ok and result["correct"]
        print(f"{workload}:")
        for name, metric in result["metrics"].items():
            note = ""
            if name == "iter_s":
                note = f"  (n={stamp.get('timed_iterations', '?')} timed iterations)"
            print(f"  {name:26s} {metric['value']:14.6g} {metric['unit']}{note}")
        frac = result["failed"] / result["attempted"]
        print(f"  {'failed_frac':26s} {frac:14.6g} ratio"
              f"  ({result['failed']} of {result['attempted']} iterations)")
    return 0 if ok else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        if args.self_test:
            import test_bench
            return test_bench.main()
        bdir = build()
        if args.all:
            return run_all(bdir, args.seed, args.seconds, args.trace)
        proc = run_program(bdir, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as err:
        print(f"trainbench: {err}", file=sys.stderr)
        return 2
    if proc.returncode != 0 or parse_result(proc.stdout) is None:
        sys.stderr.write(proc.stdout)
        print(f"trainbench: {args.workload} exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
