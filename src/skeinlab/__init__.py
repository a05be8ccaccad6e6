"""Exact-arithmetic workbench for cocycle conditions, switchback cohomology,
deformed R-matrices, and closed-braid invariants."""

__version__ = "0.1.0"


class SkeinlabError(ValueError):
    """Root of every error the package raises for input it refuses; each
    module's own error class derives from it."""
