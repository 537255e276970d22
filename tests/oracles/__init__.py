"""Deliberately simple reference implementations, kept as test oracles."""
