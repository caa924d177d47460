"""Benchmark of the threadquiver checks; see run.py."""
