"""Standalone end-to-end and per-layer benchmark for the repro simulator.

Run ``python3 perfbench/run.py --workload solo --seed 1 --seconds 10
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
