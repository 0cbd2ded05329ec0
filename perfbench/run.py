#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to .bench_build/ (release
profile, no shared dune cache); every run gets a private work directory
under .bench_build/ that is removed when it ends.  The workload's own
output is passed through, so the last line of standard output is the JSON
result.  Build output goes to standard error.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main() -> int:
    # a terminated run still stops its workload and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = os.path.join(BUILD, "run-%d" % os.getpid())
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--profile", "release",
             "--build-dir", os.path.join(BUILD, "dune"),
             "./perfbench/main.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
        exe = os.path.join(BUILD, "dune", "default", "perfbench", "main.exe")
        proc = subprocess.Popen([exe, *sys.argv[1:], "--workdir", work],
                                env=env, cwd=ROOT)
        try:
            return proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
