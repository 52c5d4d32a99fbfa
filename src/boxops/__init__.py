"""Combinatorial certificates for labeled-graph operads, ordered-partition
collapse sequences, and exact-rational cube configurations."""

__version__ = "0.1.0"
