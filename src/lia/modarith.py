"""Arithmetic on the basic interval [-L/2, L/2) and the scaled prime grid.

The interval length is L = sqrt(12), so a uniform random variable on the
interval has unit power (L**2 / 12 = 1).  Channel signals are real numbers
reduced into this interval; codeword algebra happens on integer residues
mod a prime p and is mapped to the reals only at the channel boundary,
which keeps linearity and alignment identities exact (no floating drift).
"""

from __future__ import annotations

import math

import numpy as np

L = math.sqrt(12.0)
HALF_L = L / 2.0


def mod_interval(x):
    """Reduce a finite scalar or array into [-L/2, L/2).

    Returns x - m*L with m the unique integer placing the result in the
    half-open interval.  Idempotent: values already inside come back
    unchanged bit for bit.
    """
    if np.ndim(x) == 0:
        xf = float(x)
        if not math.isfinite(xf):
            raise ValueError(f"mod_interval requires a finite value, got {x!r}")
        r = xf - L * math.floor(xf / L + 0.5)
        # guard the half-open boundary against rounding in the fold above
        if r >= HALF_L:
            r -= L
        elif r < -HALF_L:
            r += L
        return r
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("mod_interval requires finite values")
    r = arr - L * np.floor(arr / L + 0.5)
    r = np.where(r >= HALF_L, r - L, r)
    r = np.where(r < -HALF_L, r + L, r)
    return r


def grid_real(residues, p: int):
    """Vectorized real forms of residue arrays (components of codewords)."""
    return mod_interval(L / p * np.asarray(residues))
