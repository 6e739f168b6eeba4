#!/usr/bin/env python3
"""Build `madql` and the molbench executable from source, then run one workload.

Usage (from the root of the repository):

    python3 molbench/run.py --workload select-geo --seed 1 --seconds 10 --trace 0

All arguments go to molbench.exe (see README.md); the last line of standard
output is the result object.  The measured run is held to one processor
(README.md, "One processor").  Build output goes to standard error.  The run
leaves `_build/` and `.molbench/` behind, both inside the working directory.
"""

import os
import subprocess
import sys

MOLBENCH = "_build/default/molbench/molbench.exe"
MADQL = "_build/default/bin/madql.exe"


def source_revision():
    """The checked-out commit, read from .git without running git (which
    would search the parent directories); "unknown" outside a clone."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        with open(".git/packed-refs") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/madql.ml")):
        print("molbench: run from the root of the repository (no dune-project "
              "or bin/madql.ml here)", file=sys.stderr)
        return 2
    # the measured configuration is the shipped one: no MAD_* knobs, and
    # every file the build or the run writes stays in this directory
    env = {k: v for k, v in os.environ.items() if not k.startswith("MAD_")}
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(".molbench/cache")
    build = subprocess.run(
        ["dune", "build", "--root", ".", MADQL, MOLBENCH],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("molbench: build failed", file=sys.stderr)
        return build.returncode
    # the measured run (load generator and every server it starts) is held
    # to one processor: a request then passes from client to server on a
    # processor that stays busy, instead of waking an idle one, which on a
    # shared virtual machine waits for the hypervisor (CPU steal)
    cpu = max(os.sched_getaffinity(0))
    cmd = [MOLBENCH, *sys.argv[1:], "--madql", MADQL, "--commit", source_revision()]
    return subprocess.run(
        cmd, env=env, preexec_fn=lambda: os.sched_setaffinity(0, {cpu})).returncode


if __name__ == "__main__":
    sys.exit(main())
