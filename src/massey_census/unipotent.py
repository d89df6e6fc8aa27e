"""Unit upper-triangular groups U_n(F_p) and the center-dropped variants
used for representation searches (the (1,n) corner entry removed)."""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Callable, NamedTuple

from . import fp


class ExponentToken:
    """A group exponent: a finite integer, or p-infinity.

    Raising to the p-infinity power means the limit of p^s-th powers, which
    is the identity in every finite p-group; arithmetic here treats it as 0.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        if value is not None:
            value = int(value)
        self.value = value

    @property
    def is_infinite(self):
        return self.value is None

    def __eq__(self, other):
        if isinstance(other, ExponentToken):
            return self.value == other.value
        if isinstance(other, int) and self.value is not None:
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(("ExponentToken", self.value))

    def __repr__(self):
        return "ExponentToken(p-inf)" if self.is_infinite else f"ExponentToken({self.value})"


P_INFINITY = ExponentToken(None)


@lru_cache(maxsize=None)
def triangle_pairs(n: int, bar: bool = False) -> tuple:
    """Strictly-upper entry positions (i, j), 1-based: superdiagonal first,
    then band by band; the bar variant drops the (1, n) corner."""
    pairs = []
    for dist in range(1, n):
        for i in range(1, n - dist + 1):
            pairs.append((i, i + dist))
    if bar:
        assert pairs[-1] == (1, n)
        pairs = pairs[:-1]
    return tuple(pairs)


@lru_cache(maxsize=None)
def pair_index(n: int, bar: bool = False) -> dict:
    return {pq: t for t, pq in enumerate(triangle_pairs(n, bar))}


@lru_cache(maxsize=None)
def mul_recipe(n: int, bar: bool = False) -> tuple:
    """For each stored entry (i,j): the list of index pairs (u, w) with
    c[i,j] = a[i,j] + b[i,j] + sum a[u] * b[w] over i < k < j."""
    idx = pair_index(n, bar)
    recipe = []
    for (i, j) in triangle_pairs(n, bar):
        prods = tuple((idx[(i, k)], idx[(k, j)]) for k in range(i + 1, j))
        recipe.append(prods)
    return tuple(recipe)


# --- the recipe walkers -------------------------------------------------------
#
# The one implementation of the group arithmetic.  An element is a sequence
# over the stored triangle positions (`triangle_pairs` order); the walkers
# only combine entries through a Ring, so the same code multiplies int16
# arrays holding one assignment per slot (the oracle at odd p), int64 arrays
# over a grid of generator choices (`forms`) and uint64 words holding one
# assignment per bit (the oracle at p = 2).  0 is the identity entry in every
# ring, and a python int entry is broadcast across an array-valued element.


class Ring(NamedTuple):
    """The field operations the walkers use on entries."""

    add: Callable
    mul: Callable
    neg: Callable
    reduce: Callable


@lru_cache(maxsize=None)
def fp_ring(p: int) -> Ring:
    """F_p on python ints or integer arrays.  Reduction is `v - v // p * p`:
    numpy divides an array by a scalar far faster with floor_divide than with
    remainder, and floor division keeps negative values in [0, p).  Before
    reduction a product entry reaches 2(p-1) + (n-2)(p-1)^2.

    An array is reduced in place.  The walkers hand `reduce` only a sum or
    negation they have just made, never an input entry, so their inputs are
    left untouched (and may be read-only)."""

    def reduce(v):
        q = v // p
        q *= p
        v -= q
        return v

    return Ring(operator.add, operator.mul, operator.neg, reduce)


def _unchanged(v):
    return v


# F_2 bit-sliced: bit l of a uint64 word (or of a python int below 2^64) is
# the entry in lane l.  Addition is XOR, multiplication AND, -v = v, and no
# entry ever leaves F_2.
F2_LANES = Ring(operator.xor, operator.and_, _unchanged, _unchanged)


def walk_mul(a, b, recipe, ring):
    """Entries of a * b: c[i,j] = a[i,j] + b[i,j] + sum a[i,k] b[k,j]."""
    add, mul, _, reduce = ring
    out = []
    for t, prods in enumerate(recipe):
        v = add(a[t], b[t])
        for u, w in prods:
            v = add(v, mul(a[u], b[w]))
        out.append(reduce(v))
    return out


def walk_inv(a, recipe, ring):
    """Entries of a^-1, band by band: c[i,j] = -(a[i,j] + sum c[i,k] a[k,j]),
    where every c[i,k] lies in an earlier band."""
    add, mul, neg, reduce = ring
    out = [0] * len(recipe)
    for t, prods in enumerate(recipe):
        s = a[t]
        for u, w in prods:
            s = add(s, mul(out[u], a[w]))
        out[t] = reduce(neg(s))
    return out


def walk_pow(a, e, recipe, ring):
    """Entries of a^e by square-and-multiply; e may be an int or an
    ExponentToken (p-infinity gives the identity)."""
    if isinstance(e, ExponentToken):
        if e.is_infinite:
            return [0] * len(recipe)
        e = e.value
    e = int(e)
    if e < 0:
        a, e = walk_inv(a, recipe, ring), -e
    result = None  # the identity, never multiplied out
    while e:
        if e & 1:
            result = a if result is None else walk_mul(result, a, recipe, ring)
        e >>= 1
        if e:
            a = walk_mul(a, a, recipe, ring)
    return [0] * len(recipe) if result is None else result


def walk_word(word, images, recipe, ring):
    """Entries of a group word with images[i-1] substituted for Gen(i);
    [a, b] = a^-1 b^-1 a b."""
    from .words import Comm, Gen, Pow, Prod  # words builds on this module

    if isinstance(word, Gen):
        return images[word.index - 1]
    if isinstance(word, Prod):
        if not word.factors:
            return [0] * len(recipe)
        out = walk_word(word.factors[0], images, recipe, ring)
        for f in word.factors[1:]:
            out = walk_mul(out, walk_word(f, images, recipe, ring), recipe,
                           ring)
        return out
    if isinstance(word, Pow):
        return walk_pow(walk_word(word.word, images, recipe, ring),
                        word.exponent, recipe, ring)
    if isinstance(word, Comm):
        a = walk_word(word.left, images, recipe, ring)
        b = walk_word(word.right, images, recipe, ring)
        inv = walk_mul(walk_inv(a, recipe, ring), walk_inv(b, recipe, ring),
                       recipe, ring)
        return walk_mul(walk_mul(inv, a, recipe, ring), b, recipe, ring)
    raise TypeError(f"not a group word: {word!r}")


def aut_order(n: int, p: int) -> int:
    """|Aut(U_n(F_p))| for n in {3, 4}."""
    p = fp.check_prime(p)
    if n == 3:
        if p == 2:
            return 8
        return p ** 3 * (p ** 2 - 1) * (p - 1)
    if n == 4:
        if p == 2:
            return 384
        return 2 * (p - 1) ** 3 * p ** 8
    raise ValueError(f"automorphism order only supported for n in {{3, 4}}, got {n}")
