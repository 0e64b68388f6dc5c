"""Set-up probe: import the program from the checkout, build one workload's
job list, and print "ready".  run.py times it from process start.

    python3 bench/probe.py WORKLOAD SEED
"""

import sys

import workloads

workloads.load_cli()
workloads.jobs_for(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
