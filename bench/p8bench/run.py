#!/usr/bin/env python3
"""Build p8bench from source, then run one workload.

    python3 bench/p8bench/run.py --workload NAME --seed N --seconds S --trace 0|1

bench/p8bench is a CMake project of its own; it is configured once into
build/p8bench and brought up to date on every call, so the numbers always
come from the sources in this tree.  Build output goes to stderr; the
benchmark's stdout passes through unchanged, so its last line is the
one-line JSON summary.  The exit status is the benchmark's own (0 clean,
1 an output oracle failed, 2 usage or build error).  SIGTERM and SIGINT
are passed on to the running step's whole process group, which is then
waited for.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join("build", "p8bench")

child = None
stopped_by = 0


def stop(signum, _frame):
    # Only signal here: the main thread is inside child.wait(), which
    # returns once the group has exited.
    global stopped_by
    stopped_by = signum
    if child is not None:
        os.killpg(child.pid, signal.SIGTERM)


def run(command, **kwargs):
    """Runs `command` from the repository root in its own process group;
    returns its exit status."""
    global child
    if stopped_by:
        return 128 + stopped_by
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True,
                             **kwargs)
    if stopped_by:  # the signal arrived while the step was starting
        os.killpg(child.pid, signal.SIGTERM)
    status = child.wait()
    child = None
    return 128 + stopped_by if stopped_by else status


def main():
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "-j", jobs, "--target", "p8bench"]]
    if not os.path.exists(os.path.join(ROOT, BUILD, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"])
    for step in steps:
        try:
            status = run(step, stdout=sys.stderr)
        except OSError as e:
            status = e
        if status != 0:
            print("p8bench: build step %s failed: %s" % (step[:2], status),
                  file=sys.stderr)
            return 128 + stopped_by if stopped_by else 2
    return run([os.path.join(ROOT, BUILD, "p8bench"),
                "--out-dir", os.path.join(BUILD, "results")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
