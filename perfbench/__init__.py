"""Benchmark of the dmpc stack; run it with ``python3 perfbench/run.py``."""
