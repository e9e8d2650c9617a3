"""Time one set-up of a workload in a fresh interpreter; prints seconds.

    python3 bench/setup_probe.py <workload> <seed> <workdir>

Set-up is importing certheat (and the jobs module) plus building the
workload's problems, instances and plans.  Only sys, os and time are
loaded before the clock starts, so the standard-library modules certheat
pulls in are part of the measurement.
"""

import os
import sys
import time

t0 = time.perf_counter()
here = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]), None, sys.argv[3])
print(time.perf_counter() - t0)
