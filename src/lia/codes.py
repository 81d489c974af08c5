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
from functools import cached_property

import numpy as np

from .diophantine import is_prime
# codes.mod_interval stays importable: bench/test_bench.py checks the tracer patches it here
from .modarith import grid_real, mod_interval  # noqa: F401

ENUMERATION_CAP = 3000  # bound on p**k for exhaustive operations
ENTRIES_CAP = 2**22  # bound on a generator's k x n and an enumeration's p**k x n entries


def check_code_size(p: int, n: int, k: int, enumerated: bool = False) -> None:
    """Refuse, before any primality test or allocation, k outside [1, n], a
    p with k (p-1)**2 >= 2**63 (encoding must be exact in int64), and more
    than ENTRIES_CAP entries in the k x n generator or, for an ``enumerated``
    code (LinearCode.messages), more than ENUMERATION_CAP messages or p**k x n entries."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"p = {p} is too large: encoding would overflow int64")
    count = p ** min(k, 64) if enumerated else k  # p >= 2: any k >= 64 is far above the cap
    if enumerated and count > ENUMERATION_CAP:
        raise ValueError(f"p**k = {p}**{k} exceeds enumeration cap {ENUMERATION_CAP}")
    if count * n > ENTRIES_CAP:
        raise ValueError(f"{count} x {n} code entries exceed the cap of {ENTRIES_CAP}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _all_messages(code: LinearCode) -> np.ndarray:
    """The enumeration's builder, refused before it allocates where check_code_size says."""
    check_code_size(code.p, code.n, code.k, enumerated=True)
    return _read_only(np.arange(code.p**code.k)[:, None] // code._weights % code.p)


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A code and its enumeration, built once on first use and shared read-only: ``messages``
    (row i spells i in base p, most significant digit first, so rows() is the base-p value
    of a message) and row i's codeword, as ``residues`` on Z_p and ``reals`` on the grid;
    so too what its decoders read whatever their gain: ``dependent``, the sorted flat
    indices i*M + j of the dependent message pairs (M = p**k), ``columns``, the one-hot
    columns t*p + c_i,t of row i, and ``onehot``, the M x n*p float32 one-hot codebook."""

    p: int
    n: int
    k: int
    generator: np.ndarray  # k x n residues mod p

    def __post_init__(self):
        check_code_size(self.p, self.n, self.k)
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        g = np.asarray(self.generator, dtype=np.int64)
        if g.shape != (self.k, self.n):
            raise ValueError(f"generator shape {g.shape} != ({self.k}, {self.n})")
        if g.min() < 0 or g.max() >= self.p:
            raise ValueError("generator entries must lie in {0, ..., p-1}")
        object.__setattr__(self, "generator", _read_only(g))

    @property
    def rate(self) -> float:
        """Realized rate k*log2(p)/n in bits per channel use."""
        return self.k * math.log2(self.p) / self.n

    @cached_property
    def _weights(self) -> np.ndarray:
        return self.p ** np.arange(self.k - 1, -1, -1)

    @cached_property
    def messages(self) -> np.ndarray:
        return _all_messages(self)

    @cached_property
    def residues(self) -> np.ndarray:
        return _read_only((self.messages @ self.generator) % self.p)

    @cached_property
    def reals(self) -> np.ndarray:
        return _read_only(grid_real(self.residues, self.p))

    @cached_property
    def dependent(self) -> np.ndarray:
        p, count = self.p, self.p**self.k
        # (w_i, w_j) is dependent iff w_i is message 0, the zero vector, or w_j = t*u_i for
        # a t in 0..p-1, where u_i is w_i scaled to leading digit 1: t*u_i has leading digit
        # t, so row i's base-p values ascend with t, and the index is built in order (no
        # sort, and no np.unique, which imports numpy.ma)
        nonzero = self.messages[1:]
        lead = nonzero[np.arange(count - 1), np.argmax(nonzero != 0, axis=1)]
        inverse = np.array([0] + [pow(a, -1, p) for a in range(1, p)])
        unit = inverse[lead][:, None] * nonzero % p
        lines = self.rows(np.arange(p)[:, None, None] * unit % p).T + np.arange(1, count)[:, None] * count
        return _read_only(np.concatenate((np.arange(count), lines.reshape(-1))))

    @cached_property
    def columns(self) -> np.ndarray:
        # also the row of D[t, c_i,t] in an n x p x (...) table D reshaped to n*p rows
        return _read_only(self.residues + self.p * np.arange(self.n))

    @cached_property
    def onehot(self) -> np.ndarray:
        onehot = np.zeros((len(self.messages), self.n * self.p), dtype=np.float32)
        np.put_along_axis(onehot, self.columns, 1.0, axis=1)
        return _read_only(onehot)

    def rows(self, messages) -> np.ndarray:
        """Row of each message along the last axis."""
        return np.asarray(messages, dtype=np.int64) @ self._weights

    def is_dependent(self, flat) -> np.ndarray:
        """Whether each message pair (w_i, w_j) at flat = i*M + j is linearly dependent."""
        # the last pair, (M-1, M-1), is dependent, so no pair sorts past the index's end
        return self.dependent[np.searchsorted(self.dependent, flat)] == flat


class Codeword:
    """Length-n sequence of grid points: residues plus derived real forms."""

    __slots__ = ("residues", "p")

    def __init__(self, residues, p: int):
        r = np.asarray(residues, dtype=np.int64)
        if r.ndim != 1:
            raise ValueError("codeword residues must be one-dimensional")
        if r.size and (r.min() < 0 or r.max() >= p):
            raise ValueError("codeword residues out of range")
        self.residues = _read_only(r)
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
    """Draw a generator with i.i.d. uniform entries; deterministic in seed: numpy's
    default_rng(seed).integers(0, p, size=(k, n)), which macsim.integers draws itself."""
    from .macsim import integers  # lia.macsim imports this module

    check_code_size(p, n, k)
    return LinearCode(p=p, n=n, k=k, generator=integers(seed, p, k * n).reshape(k, n))


def encode(code: LinearCode, w) -> Codeword:
    """Map a message vector to its codeword, residues (w^T G) mod p."""
    wv = np.asarray(w, dtype=np.int64)
    if wv.shape != (code.k,):
        raise ValueError(f"message shape {wv.shape} != ({code.k},)")
    if wv.size and (wv.min() < 0 or wv.max() >= code.p):
        raise ValueError("message entries must lie in {0, ..., p-1}")
    return Codeword((wv @ code.generator) % code.p, code.p)


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

