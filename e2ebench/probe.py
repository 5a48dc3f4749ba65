"""Set-up probe: run one workload's set-up in this fresh interpreter.

``python3 e2ebench/probe.py <workload> <seed> <scratch dir>`` prints
``ready`` the moment the workload could issue its first search call;
``run.py`` times the interval from process start to that line.
"""

import sys

from workloads import WORKLOADS

if __name__ == "__main__":
    name, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workload = WORKLOADS[name](seed, scratch)
    workload.setup()
    print("ready", flush=True)
    workload.close()
