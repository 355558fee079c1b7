"""Where the CPU of a cold `jsm` process goes, stage by stage.

Each stage runs N times as a fresh child process, the stages taking turns.
The script prints, per stage, the median CPU seconds (user + system, from
RUSAGE_CHILDREN, so every thread of the child counts) and the median wall
seconds:

* a bare interpreter (`python -c pass`);
* `import numpy`;
* `import jacobisigma.cli` (every module of the program);
* one `jsm check structures/contact-k1.ini`;
* one `jsm example contact-k`.

It also prints the number of threads of a process right after `import
jacobisigma.cli` (read from /proc/self/task, where there is one).  The
children get this process's environment, so a caller's
OPENBLAS_NUM_THREADS applies to them; the header says its value.  Bytecode
is cached as for an installed package, in a temporary directory (one
untimed run per stage fills it), so no stage pays for compiling.  The
program is imported from this checkout's `src/`, whatever PYTHONPATH
says, and nothing is written outside that temporary directory.

Usage:
    python scripts/cold_start.py [--runs 9]
"""

import argparse
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI = ["-m", "jacobisigma.cli"]
STAGES = [
    ("python -c pass", ["-c", "pass"]),
    ("import numpy", ["-c", "import numpy"]),
    ("import jacobisigma.cli", ["-c", "import jacobisigma.cli"]),
    ("jsm check contact-k1", CLI + ["check", "structures/contact-k1.ini"]),
    ("jsm example contact-k", CLI + ["example", "contact-k"]),
]
THREADS = ("import os, jacobisigma.cli; "
           "print(len(os.listdir('/proc/self/task')) "
           "if os.path.isdir('/proc/self/task') else 'unknown')")


def _env(cache):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=cache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure(argv, env):
    """(CPU seconds, wall seconds) of one child `python argv`."""
    cpu0, t0 = _children_cpu(), time.perf_counter()
    subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return _children_cpu() - cpu0, time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=9)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    print(f"cold_start: medians of {args.runs} child processes per stage; "
          f"OPENBLAS_NUM_THREADS="
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(f"{'stage':<24}{'cpu_s':>8}{'wall_s':>8}")
    with tempfile.TemporaryDirectory() as cache:
        env = _env(cache)
        for _, stage in STAGES:
            measure(stage, env)
        # round-robin, so that a burst of load on the machine hits every
        # stage alike
        runs = [[measure(stage, env) for _, stage in STAGES]
                for _ in range(args.runs)]
        for i, (name, _) in enumerate(STAGES):
            cpu = statistics.median(r[i][0] for r in runs)
            wall = statistics.median(r[i][1] for r in runs)
            print(f"{name:<24}{cpu:>8.3f}{wall:>8.3f}")
        threads = subprocess.run([sys.executable, "-c", THREADS], cwd=ROOT,
                                 env=env, check=True, capture_output=True,
                                 text=True).stdout.strip()
    print(f"threads after import jacobisigma.cli: {threads}")


if __name__ == "__main__":
    main()
