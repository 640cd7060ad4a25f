"""Repository tooling: lints, doc generators, and the reprolint suite.

This package marker exists so ``python -m tools.reprolint`` works from
the repository root; ``check_docs.py`` remains directly runnable as a
script.
"""
