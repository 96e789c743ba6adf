"""Exact-simulation laboratory for Haar-oracle pseudorandomness experiments."""

__version__ = "0.1.0"
__all__ = ["__version__"]
