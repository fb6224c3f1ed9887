#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny] [--corrupt-one]

Run from the repository root. The benchmark and the repository's libraries
are built (CMake, Release) into the directory named by CARGO_TARGET_DIR,
default `.bench_build`; build output goes to a log file there. The last
line of standard output is the result JSON object. Any build or run
failure exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = ROOT / "perfbench"
TIMEOUT_S = 170


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    path = target if target.is_absolute() else ROOT / target
    return path / "perfbench"


def build(out: Path) -> Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: run from the repository root (no CMakeLists.txt, src)")
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
        ):
            built = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if built.returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(f"perfbench: build failed ({' '.join(map(str, cmd))})")
    return out / "perfbench"


def main() -> int:
    args = sys.argv[1:]
    wanted = argparse.ArgumentParser(add_help=False)
    for flag in ("--workload", "--seed", "--trace"):
        wanted.add_argument(flag, default="")
    known, _ = wanted.parse_known_args(args)
    out = build_dir()
    binary = build(out)
    if known.trace == "1" and "--trace-out" not in args:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        args += ["--trace-out", str(traces / f"{known.workload}-{known.seed}.json")]
    try:
        run = subprocess.run(
            [binary, *args], stdout=subprocess.PIPE, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {TIMEOUT_S}s")
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
