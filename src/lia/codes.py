"""Random linear codebooks over a prime field, mapped onto the scaled grid.

A code is a k x n generator matrix with i.i.d. uniform entries in Z_p.  A
message vector w in Z_p^k encodes to the residues w^T G mod p; the real-form
codeword places each residue on the grid (L/p)*Z_p reduced into the basic
interval.  The realized rate is k*log2(p)/n bits per channel use (k is an
explicit input because a target rate rarely gives an integer dimension).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diophantine import is_prime
# codes.mod_interval stays importable: bench/test_bench.py checks the tracer patches it here
from .modarith import grid_real, mod_interval  # noqa: F401

ENUMERATION_CAP = 3000  # bound on p**k for exhaustive operations
ENTRIES_CAP = 2**22  # bound on a generator's k x n and a Codebook's p**k x n entries


def check_code_size(p: int, n: int, k: int, enumerated: bool = False) -> None:
    """Refuse, before any primality test or allocation, k outside [1, n], a
    p with k (p-1)**2 >= 2**63 (encoding must be exact in int64), and more
    than ENTRIES_CAP entries in the k x n generator or, for an ``enumerated``
    code (Codebook), more than ENUMERATION_CAP messages or p**k x n entries."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"p = {p} is too large: encoding would overflow int64")
    count = p ** min(k, 64) if enumerated else k  # p >= 2: any k >= 64 is far above the cap
    if enumerated and count > ENUMERATION_CAP:
        raise ValueError(f"p**k = {p}**{k} exceeds enumeration cap {ENUMERATION_CAP}")
    if count * n > ENTRIES_CAP:
        raise ValueError(f"{count} x {n} code entries exceed the cap of {ENTRIES_CAP}")


@dataclass(frozen=True, eq=False)
class LinearCode:
    p: int
    n: int
    k: int
    generator: np.ndarray  # k x n residues mod p
    seed: int | None = None

    def __post_init__(self):
        check_code_size(self.p, self.n, self.k)
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        g = np.asarray(self.generator, dtype=np.int64)
        if g.shape != (self.k, self.n):
            raise ValueError(f"generator shape {g.shape} != ({self.k}, {self.n})")
        if g.min() < 0 or g.max() >= self.p:
            raise ValueError("generator entries must lie in {0, ..., p-1}")
        g.setflags(write=False)
        object.__setattr__(self, "generator", g)

    @property
    def rate(self) -> float:
        """Realized rate k*log2(p)/n in bits per channel use."""
        return self.k * math.log2(self.p) / self.n


class Codeword:
    """Length-n sequence of grid points: residues plus derived real forms."""

    __slots__ = ("residues", "p")

    def __init__(self, residues, p: int):
        r = np.asarray(residues, dtype=np.int64)
        if r.ndim != 1:
            raise ValueError("codeword residues must be one-dimensional")
        if r.size and (r.min() < 0 or r.max() >= p):
            raise ValueError("codeword residues out of range")
        r.setflags(write=False)
        self.residues = r
        self.p = p

    @property
    def reals(self) -> np.ndarray:
        return grid_real(self.residues, self.p)

    def __len__(self):
        return self.residues.size

    def __eq__(self, other):
        return (
            isinstance(other, Codeword)
            and self.p == other.p
            and np.array_equal(self.residues, other.residues)
        )

    def __repr__(self):
        return f"Codeword(p={self.p}, residues={self.residues.tolist()})"


def sample_code(p: int, n: int, k: int, seed: int) -> LinearCode:
    """Draw a generator with i.i.d. uniform entries; deterministic in seed."""
    check_code_size(p, n, k)
    rng = np.random.default_rng(seed)
    g = rng.integers(0, p, size=(k, n), dtype=np.int64)
    return LinearCode(p=p, n=n, k=k, generator=g, seed=seed)


def encode(code: LinearCode, w) -> Codeword:
    """Map a message vector to its codeword, residues (w^T G) mod p."""
    wv = np.asarray(w, dtype=np.int64)
    if wv.shape != (code.k,):
        raise ValueError(f"message shape {wv.shape} != ({code.k},)")
    if wv.size and (wv.min() < 0 or wv.max() >= code.p):
        raise ValueError("message entries must lie in {0, ..., p-1}")
    return Codeword((wv @ code.generator) % code.p, code.p)


class Codebook:
    """Every message of a code beside its codeword, in one fixed row order.

    Row i holds the message whose base-p digits, most significant first,
    spell i, so rows() is the base-p value of a message.  ``residues`` and
    ``reals`` hold row i's codeword on Z_p and on the grid.  Codes that
    ``check_code_size`` refuses to enumerate are refused.
    """

    def __init__(self, code: LinearCode):
        check_code_size(code.p, code.n, code.k, enumerated=True)
        count = code.p**code.k
        self._weights = code.p ** np.arange(code.k - 1, -1, -1)
        self.messages = np.arange(count)[:, None] // self._weights % code.p
        self.residues = (self.messages @ code.generator) % code.p
        self.reals = grid_real(self.residues, code.p)

    def __len__(self):
        return self.messages.shape[0]

    def rows(self, messages) -> np.ndarray:
        """Row of each message along the last axis."""
        return np.asarray(messages, dtype=np.int64) @ self._weights


def messages_dependent(w1, w2, p: int) -> bool:
    """True iff the two message vectors are linearly dependent over Z_p."""
    a = np.asarray(w1, dtype=np.int64) % p
    b = np.asarray(w2, dtype=np.int64) % p
    nz = np.flatnonzero(a)
    if nz.size == 0:
        return True
    i = int(nz[0])
    c = int(b[i]) * pow(int(a[i]), p - 2, p) % p
    return bool(np.all((c * a - b) % p == 0))

