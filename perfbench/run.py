#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload wc-wiki --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench (RelWithDebInfo) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls rebuild incrementally. Build output goes to stderr,
so the benchmark's own stdout, whose last line is the JSON result, is
passed through unchanged. The span trace and table of each run land in
<build dir>/out.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build(build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (root / "perfbench").resolve()
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--self-test" not in args:
        args += ["--out", str(build_dir / "out")]
    sys.stdout.flush()
    return subprocess.run([str(binary), *args]).returncode


if __name__ == "__main__":
    sys.exit(main())
