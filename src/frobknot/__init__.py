"""Exact-arithmetic link homology and rank-2 algebra verification."""
