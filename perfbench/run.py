#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload stress|wildcard|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the repo's own
sources) into .bench_build/perfbench; later calls rebuild only what changed.
Build output goes to stderr. perfbench_driver then prints the workload's
fingerprint line and, as the last stdout line, one JSON result object. See
perfbench/README.md for the workloads and metrics.

Exit codes: 0 = result printed; 2 = the build failed (no result printed);
1 = perfbench_driver crashed or hung (a failed result is printed).
"""
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
BUILD_JOBS = "3"
BUILD_TIMEOUT_S = 700
# The driver also runs untimed work around its --seconds of measurement:
# reference and oracle runs, a warm-up pass, the `wst serve` parity check and
# the pass that is still running when the time is up.
RUN_MARGIN_S = 100
DEFAULT_SECONDS = 10  # perfbench_driver's default


def build():
    """Configure once, then build incrementally. Returns True on success."""
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "wst", "-j", BUILD_JOBS])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: build step failed: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return os.path.isfile(DRIVER)


def run_timeout(args):
    """--seconds plus RUN_MARGIN_S. A value the driver rejects gets the
    default; the driver then exits at once with a usage error."""
    seconds = DEFAULT_SECONDS
    if "--seconds" in args[:-1]:
        try:
            seconds = float(args[args.index("--seconds") + 1])
        except ValueError:
            pass
    if not 0 < seconds < float("inf"):
        seconds = DEFAULT_SECONDS
    return seconds + RUN_MARGIN_S


def run_driver(args):
    """Run perfbench_driver in its own process group; on a hang or crash,
    kill the group (it may have a `wst serve` child) and report a failure."""
    timeout = run_timeout(args)
    proc = subprocess.Popen([DRIVER] + args, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: driver exceeded {timeout:.0f} s", file=sys.stderr)
        code = None
    if code == 0:
        return 0
    if code == 64:  # usage error: nothing was measured
        return 64
    print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}',
          flush=True)
    return 1


def main():
    os.chdir(ROOT)
    start = time.monotonic()
    if not build():
        print("perfbench: build failed; no result", file=sys.stderr)
        return 2
    print(f"perfbench: build step took {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    sys.stdout.flush()
    return run_driver(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
