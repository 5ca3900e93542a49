"""The hgdb-py benchmark: four debugger workloads measured from outside.

Run one workload with::

    python3 perfbench/run.py --workload fig5_run --seed 1 --seconds 15 --trace 0

See ``perfbench/run.py`` for the command line and the output contract,
``perfbench/harness.py`` for how a run is timed, and one module per
workload for what it does and why.
"""
