"""Exact dense linear algebra over the prime fields F_p, for small p."""

from __future__ import annotations

import math

VECTOR_BUDGET = 10 ** 8

_MAX_PRIME = 7


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured budget."""


def set_max_prime(p: int) -> None:
    """Raise (or lower) the largest modulus the library accepts; default 7."""
    global _MAX_PRIME
    _MAX_PRIME = int(p)


def check_prime(p) -> int:
    """Validate p as a supported prime modulus and return it as an int."""
    p = int(p)
    if p < 2:
        raise ValueError(f"modulus must be a prime >= 2, got {p}")
    if any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"modulus {p} is not prime")
    if p > _MAX_PRIME:
        raise ValueError(
            f"modulus {p} exceeds the configured maximum {_MAX_PRIME}; "
            f"call set_max_prime({p}) to allow it"
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

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __add__(self, other):
        if not isinstance(other, FpVector):
            return NotImplemented
        _same_space(self, other)
        return FpVector(
            [a + b for a, b in zip(self.entries, other.entries)], self.p
        )

    def __sub__(self, other):
        if not isinstance(other, FpVector):
            return NotImplemented
        _same_space(self, other)
        return FpVector(
            [a - b for a, b in zip(self.entries, other.entries)], self.p
        )

    def scale(self, c) -> "FpVector":
        c = int(c) % self.p
        return FpVector([c * e for e in self.entries], self.p)

    def __eq__(self, other):
        if isinstance(other, FpVector):
            return self.p == other.p and self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash((self.entries, self.p))

    def __repr__(self):
        return f"FpVector({list(self.entries)}, p={self.p})"


def _same_space(u: FpVector, v: FpVector) -> None:
    if u.p != v.p:
        raise ValueError(f"modulus mismatch: {u.p} vs {v.p}")
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")


class FpMatrix:
    """A dense matrix over F_p, stored row-major as a read-only int64 array."""

    __slots__ = ("array", "p")

    def __init__(self, rows, p):
        import numpy as np

        p = check_prime(p)
        a = np.array(rows, dtype=np.int64) % p
        if a.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {a.shape}")
        a.setflags(write=False)
        self.array = a
        self.p = p

    @classmethod
    def identity(cls, n, p):
        import numpy as np

        return cls(np.eye(n, dtype=np.int64), p)

    @classmethod
    def zeros(cls, rows, cols, p):
        import numpy as np

        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def row(self, i) -> FpVector:
        return FpVector(self.array[i], self.p)

    def __eq__(self, other):
        import numpy as np

        if isinstance(other, FpMatrix):
            return (
                self.p == other.p
                and self.array.shape == other.array.shape
                and bool(np.array_equal(self.array, other.array))
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.array.tobytes(), self.array.shape, self.p))

    def __repr__(self):
        return f"FpMatrix({self.array.tolist()}, p={self.p})"


_RANK_SLICE = 4096


def rank_mod(a, p: int):
    """Rank over F_p of an integer matrix, or of each matrix in a stack of
    shape (..., rows, cols): a python int for a 2-dimensional input, an
    array of shape (...) otherwise.

    Gaussian elimination runs over _RANK_SLICE matrices at a time.
    Intermediate entries reach (p-1)^2 in magnitude, so int32 is exact for
    p < 46341; larger primes eliminate over python ints."""
    import numpy as np

    a = np.asarray(a)
    if a.ndim < 2:
        raise ValueError("rank needs an array of at least 2 dimensions")
    if a.shape[-1] > a.shape[-2]:
        # row rank = column rank: loop over the shorter side
        a = np.swapaxes(a, -1, -2)
    rows, cols = a.shape[-2:]
    flat = a.reshape(math.prod(a.shape[:-2]), rows, cols)
    dtype = np.int32 if p < 46341 else object
    ranks = np.empty(len(flat), dtype=np.int64)
    for lo in range(0, len(flat), _RANK_SLICE):
        s = (flat[lo:lo + _RANK_SLICE] % p).astype(dtype)
        ranks[lo:lo + len(s)] = _echelon_rank(s, p)
    if a.ndim == 2:
        return int(ranks[0])
    return ranks.reshape(a.shape[:-2])


def _echelon_rank(s, p):
    """Ranks of a (m, rows, cols) stack reduced mod p, cols <= rows.  Column
    by column, each matrix picks a row with a nonzero entry as pivot and
    clears that column from every row by cross-multiplying, so no inverse is
    needed.  The pivot row clears itself to zero and stays zero."""
    import numpy as np

    ranks = np.zeros(len(s), dtype=np.int64)
    every = np.arange(len(s))
    for j in range(s.shape[2]):
        nonzero = s[:, :, j] != 0
        found = nonzero.any(axis=1)
        prow = s[every, nonzero.argmax(axis=1)]
        scale = np.where(found, prow[:, j], 1)
        ranks += found
        s = (s * scale[:, None, None]
             - s[:, :, j:j + 1] * prow[:, None, :]) % p
    return ranks


DIAGONAL_PROFILES = ("all_zero", "first_one")


class GramForm:
    """A bilinear pairing matrix: skew off the diagonal, with a declared
    diagonal profile ("all_zero" or, at p = 2, "first_one")."""

    __slots__ = ("matrix", "diagonal_profile")

    def __init__(self, matrix: FpMatrix, diagonal_profile: str = "all_zero"):
        if not isinstance(matrix, FpMatrix):
            raise TypeError("GramForm needs an FpMatrix")
        if matrix.rows != matrix.cols:
            raise ValueError("Gram matrix must be square")
        if diagonal_profile not in DIAGONAL_PROFILES:
            raise ValueError(f"unknown diagonal profile {diagonal_profile!r}")
        p = matrix.p
        a = matrix.array
        d = matrix.rows
        for i in range(d):
            for j in range(i + 1, d):
                if (a[i, j] + a[j, i]) % p != 0:
                    raise ValueError(
                        f"off-diagonal entries ({i},{j})/({j},{i}) are not skew"
                    )
        diag = [int(a[i, i]) for i in range(d)]
        if diagonal_profile == "all_zero":
            if any(diag):
                raise ValueError("all_zero profile but nonzero diagonal entry")
        else:
            if p != 2:
                raise ValueError("first_one profile only makes sense at p = 2")
            if diag[0] != 1 or any(diag[1:]):
                raise ValueError("first_one profile needs diagonal (1, 0, ..., 0)")
        self.matrix = matrix
        self.diagonal_profile = diagonal_profile

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def p(self) -> int:
        return self.matrix.p

    def __eq__(self, other):
        if isinstance(other, GramForm):
            return (
                self.matrix == other.matrix
                and self.diagonal_profile == other.diagonal_profile
            )
        return NotImplemented

    def __repr__(self):
        return (
            f"GramForm({self.matrix.array.tolist()}, p={self.p}, "
            f"profile={self.diagonal_profile})"
        )


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
    idx = np.arange(total, dtype=np.int64)
    cols = [(idx // p ** t) % p for t in range(d - 1, -1, -1)]
    return np.stack(cols, axis=1).astype(np.int8)
