"""Benchmark harness for the ghostline engine.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  The harness drives the package
under ``src/`` without modifying it: end-to-end metrics come from untraced
runs, per-layer metrics from a separate run that wraps the public functions
of each ghostline module from the harness's own code.
"""
