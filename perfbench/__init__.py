"""Benchmark of the SUSS reproduction (see REPORT.md)."""
