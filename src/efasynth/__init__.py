"""Symbolic supervisory controller synthesis for extended finite automata."""

from .bdd import BddError, BddManager, NodeRef

__version__ = "0.1.0"

__all__ = ["BddError", "BddManager", "NodeRef", "__version__"]
