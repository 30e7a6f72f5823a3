"""Standalone benchmark scripts; ``bench_scaling.py`` times the engine against the engine-less route."""
