#!/usr/bin/env python3
"""Build and run the repository benchmark.

usage (from the repository root):

    python3 perfbench/run.py --workload <gemm_serial|dag_pool|mlp_serve> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the tcu library and the benchmark
(Release) under $CARGO_TARGET_DIR, or .bench_build when it is unset; later
runs only bring that build up to date. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. With --trace 1 the
Chrome trace and self-time table are written to <build dir>/traces.
The exit code is the benchmark's, or 2 when the build fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.join(build_root, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", "4"])
    try:
        for step in steps:
            subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-dir", traces]
    try:
        return subprocess.run([os.path.join(build, "perfbench")] + args,
                              timeout=RUN_TIMEOUT_S).returncode
    except (subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
