"""Performance ledger: the repository's end-to-end and per-layer benchmark.

``run.py`` is the entry point; this package holds the pieces it is built
from.  Everything here measures the program from outside — through
public functions, public HTTP endpoints, and module-attribute wrappers
installed only for traced runs — so nothing under ``src/`` knows the
benchmark exists.
"""
