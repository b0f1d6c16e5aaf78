"""The repository benchmark: workloads, tracing, comparison.

Run ``python3 perfbench/run.py --workload <name>`` for one measured
run, ``python3 perfbench/suite.py`` for every workload with and
without tracing, and ``python3 perfbench/compare.py A B`` to compare
two result sets.  See ``perfbench/README.md``.
"""
