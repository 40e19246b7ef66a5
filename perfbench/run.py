#!/usr/bin/env python3
"""Build the benchmark from source in this checkout, then run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is
the JSON result; see perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ["figures-cold", "campaign-network", "serve-hot", "serve-cold"]
BENCH = "_build/default/perfbench/bench.exe"
CLI = "_build/default/bin/bidir_cli.exe"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()
    if a.seconds < 1:
        p.error("--seconds must be at least 1")
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            sys.exit(f"perfbench: no {need} here; run from the root of a "
                     "checkout of the repository")
    # Build and run inside the checkout only: no shared dune cache, the
    # compilers' temporary files under .perfbench-tmp (dune skips dot
    # directories), and --root keeps dune from adopting an enclosing
    # project.
    tmp = os.path.abspath(".perfbench-tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".",
         "./perfbench/bench.exe", "./bin/bidir_cli.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")
    sys.stdout.flush()
    run = subprocess.run(
        [BENCH, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", a.trace, "--cli", CLI],
        env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
