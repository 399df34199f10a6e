"""The repository benchmark: seeded workloads, correctness checks and
per-layer timing around the public ``repro`` API.

Run it from the repository root::

    python3 perfbench/run.py --workload silence --seed 1 --seconds 22 --trace 0

See ``perfbench/manifest.json`` for the workloads, metric definitions
and the map from each per-layer metric to the end-to-end metric it
should move.
"""
