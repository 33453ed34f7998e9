"""Set-up probe: import cfmimo and resolve a workload's configuration.

    python3 perfbench/probe.py WORKLOAD SEED SCALE

Prints ``time.monotonic()`` at the moment the first episode call would be
made. ``run.py`` subtracts the time it started this interpreter, which gives
``setup_s``.
"""

import sys
import time

import workloads

if __name__ == "__main__":
    name, seed, scale = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.build(name, scale).with_seed(seed).resolve()
    print(repr(time.monotonic()))
