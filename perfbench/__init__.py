"""Benchmark for the regionrec pipeline; see README.md."""
