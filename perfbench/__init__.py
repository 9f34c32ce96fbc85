"""The repository benchmark: four workloads, end-to-end metrics and an
outside-in per-layer trace.  Entry point: ``perfbench/run.py``."""
