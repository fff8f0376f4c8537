"""Helpers for the wild5g benchmark (perfbench/run.py)."""
