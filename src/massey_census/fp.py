"""Exact dense linear algebra over the prime fields F_p, for small p."""

from __future__ import annotations

import math

VECTOR_BUDGET = 10 ** 8

# Array cells one block of a pass over pairs of vectors holds: the census
# scan and the pair mask build their temporaries a block of rows at a time.
BLOCK_CELLS = 2 ** 16

MAX_PRIME = 7


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured budget."""


def check_prime(p) -> int:
    """Validate p as a supported prime modulus and return it as an int."""
    p = int(p)
    if p < 2:
        raise ValueError(f"modulus must be a prime >= 2, got {p}")
    if any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"modulus {p} is not prime")
    if p > MAX_PRIME:
        raise ValueError(
            f"modulus {p} exceeds the largest supported prime {MAX_PRIME}"
        )
    return p


class FpVector:
    """A coordinate vector over F_p."""

    __slots__ = ("entries", "p")

    def __init__(self, entries, p):
        p = check_prime(p)
        self.entries = tuple(int(e) % p for e in entries)
        if not self.entries:
            raise ValueError("vector must have positive dimension")
        self.p = p

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        if isinstance(other, FpVector):
            return self.p == other.p and self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash((self.entries, self.p))

    def __repr__(self):
        return f"FpVector({list(self.entries)}, p={self.p})"


_RANK_SLICE = 4096


def rank_mod(a, p: int):
    """Rank over F_p of an integer matrix, or of each matrix in a stack of
    shape (..., rows, cols): a python int for a 2-dimensional input, an
    array of shape (...) otherwise.

    Gaussian elimination runs over _RANK_SLICE matrices at a time in int16,
    matrix index last.  That is exact: entries stay below p after each
    reduction and a product of two reaches (p-1)^2 <= 36 in magnitude, since
    check_prime caps p at MAX_PRIME = 7.  Entries are reduced as
    s - (s // p) * p, which numpy runs far faster than s % p."""
    import numpy as np

    a = np.asarray(a)
    if a.ndim < 2:
        raise ValueError("rank needs an array of at least 2 dimensions")
    if a.shape[-1] > a.shape[-2]:
        # row rank = column rank: loop over the shorter side
        a = np.swapaxes(a, -1, -2)
    rows, cols = a.shape[-2:]
    flat = a.reshape(math.prod(a.shape[:-2]), rows, cols)
    ranks = np.empty(len(flat), dtype=np.int64)
    for lo in range(0, len(flat), _RANK_SLICE):
        s = flat[lo:lo + _RANK_SLICE]
        s = np.ascontiguousarray((s - s // p * p).astype(np.int16).T)
        ranks[lo:lo + s.shape[2]] = _echelon_rank(s, p)
    if a.ndim == 2:
        return int(ranks[0])
    return ranks.reshape(a.shape[:-2])


def _echelon_rank(s, p):
    """Ranks of a (cols, rows, m) stack of m matrices reduced mod p,
    cols <= rows.  Column by column, each matrix takes its last row with a
    nonzero entry as pivot and clears that column from every row by
    cross-multiplying, so no inverse is needed; the cleared column is
    dropped.  The pivot row clears itself to zero and stays zero.  With the
    matrix index last, every step is an elementwise pass over rows of m
    entries."""
    import numpy as np

    ranks = np.zeros(s.shape[2], dtype=np.int64)
    for left in range(len(s), 0, -1):
        nonzero = s[0] != 0
        found = nonzero.any(axis=0)
        ranks += found
        if left == 1:
            break
        pivot = s[:, 0]
        for i, here in enumerate(nonzero[1:], 1):
            pivot = np.where(here, s[:, i], pivot)
        s = s[1:] * np.where(found, pivot[0], 1) - s[:1] * pivot[1:, None]
        s -= s // p * p
    return ranks


def vector_from_index(idx: int, d: int, p: int) -> FpVector:
    """Decode 0 <= idx < p**d into the vector whose coordinates, first one
    most significant, are the base-p digits of idx."""
    entries = [(idx // p ** t) % p for t in range(d - 1, -1, -1)]
    return FpVector(entries, p)


def vectors_array(d: int, p: int) -> np.ndarray:
    """All of F_p^d as an int8 array of shape (p**d, d); row i decodes index i."""
    import numpy as np

    p = check_prime(p)
    total = p ** d
    if total > VECTOR_BUDGET:
        raise BudgetError(
            f"materializing p^d = {total} vectors exceeds the budget "
            f"{VECTOR_BUDGET}"
        )
    digits = np.arange(total, dtype=np.int64)[:, None] // p ** np.arange(d - 1, -1, -1)
    digits %= p
    return digits.astype(np.int8)
