"""Benchmark of the chain-cover reachability system (see README.md)."""
