"""Benchmark harness for fairkit; the entry point is ``perfbench/run.py``.

Nothing in this package imports numpy or fairkit at import time: ``run.py``
fixes the BLAS thread count before either is loaded.
"""
