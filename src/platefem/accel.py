"""Acceleration status: platefem runs in pure numpy.

Every solver route is numpy with LAPACK/BLAS underneath; no code is
compiled, so ``USE_NUMBA`` is always False.  It stays importable for
tools that record the environment next to their measurements.
"""

USE_NUMBA = False
