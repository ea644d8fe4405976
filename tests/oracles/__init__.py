"""Scalar reference implementations the batched production paths are tested against.

Nothing under ``src/`` imports these modules: they exist so the parity
tests (``tests/``) and the parity gates of ``benchmarks/`` can compare the
array code the searches run with the straightforward per-candidate loop it
replaced.
"""
