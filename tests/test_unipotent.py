"""Tests for the unipotent group arithmetic: the recipe walkers on python
ints, against dense matrices and the group laws."""

from itertools import product

import numpy as np
import pytest

from massey_census.unipotent import (
    F2_LANES,
    P_INFINITY,
    ExponentToken,
    aut_order,
    fp_ring,
    mul_recipe,
    pair_index,
    triangle_pairs,
    walk_inv,
    walk_mul,
    walk_pow,
    walk_word,
)
from massey_census.words import Comm, Gen, Pow, Prod


def mul(a, b, n, p):
    return walk_mul(a, b, mul_recipe(n), fp_ring(p))


def inv(a, n, p):
    return walk_inv(a, mul_recipe(n), fp_ring(p))


def power(a, e, n, p):
    return walk_pow(a, e, mul_recipe(n), fp_ring(p))


def entries(n, mapping):
    """Stored entries from a {(i, j): value} dict; the rest are 0."""
    return [mapping.get(pq, 0) for pq in triangle_pairs(n)]


def all_elements(n, p):
    """Every element of U_n(F_p), from every tuple of entries."""
    return [list(e) for e in product(range(p), repeat=len(triangle_pairs(n)))]


def test_triangle_order():
    assert triangle_pairs(4) == ((1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4))
    assert triangle_pairs(4, bar=True) == ((1, 2), (2, 3), (3, 4), (1, 3), (2, 4))
    assert len(triangle_pairs(6)) == 15
    # only strictly-upper positions are stored
    assert pair_index(4)[(1, 3)] == 3
    assert (3, 1) not in pair_index(4) and (2, 2) not in pair_index(4)
    assert (1, 4) not in pair_index(4, bar=True)


def test_mul_matches_dense():
    rng = np.random.default_rng(1)
    for n, p in ((3, 2), (4, 2), (4, 3), (5, 2), (6, 2), (4, 5)):
        rows, cols = np.array(triangle_pairs(n)).T - 1
        for _ in range(20):
            a, b = rng.integers(0, p, size=(2, len(rows)))
            A, B = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
            A[rows, cols], B[rows, cols] = a, b
            c = mul(a.tolist(), b.tolist(), n, p)
            assert c == (A @ B % p)[rows, cols].tolist()


def test_exhaustive_u4_f2_group_laws():
    elems = all_elements(4, 2)
    assert len(elems) == 64
    ident = [0] * 6
    for a in elems:
        a_inv = inv(a, 4, 2)
        assert mul(a, a_inv, 4, 2) == ident
        assert mul(a_inv, a, 4, 2) == ident
        # exponent of U_4(F_2) divides 4: (I + N)^4 = I
        assert power(a, 4, 4, 2) == ident
    # sampled associativity (full 64^3 is excessive; the dense check above
    # already pins multiplication)
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c = (elems[int(i)] for i in rng.integers(0, 64, size=3))
        assert (mul(mul(a, b, 4, 2), c, 4, 2)
                == mul(a, mul(b, c, 4, 2), 4, 2))


def test_exhaustive_u3_f2_associativity():
    elems = all_elements(3, 2)
    assert len(elems) == 8
    for a in elems:
        for b in elems:
            ab = mul(a, b, 3, 2)
            for c in elems:
                assert mul(ab, c, 3, 2) == mul(a, mul(b, c, 3, 2), 3, 2)


def test_cube_in_u4_f3():
    # the superdiagonal-ones element cubes to a matrix with (1,4) entry 1
    g = entries(4, {(1, 2): 1, (2, 3): 1, (3, 4): 1})
    assert power(g, 3, 4, 3) == entries(4, {(1, 4): 1})
    assert power(g, 9, 4, 3) == [0] * 6


def test_superdiagonal_additivity():
    # projecting to the superdiagonal is a homomorphism onto (F_p)^{n-1}
    elems = all_elements(4, 2)
    for a in elems[::5]:
        for b in elems[::7]:
            c = mul(a, b, 4, 2)
            assert c[:3] == [(x + y) % 2 for x, y in zip(a[:3], b[:3])]


def test_group_pow_large_exponent():
    g = entries(4, {(1, 2): 1, (2, 3): 2, (1, 4): 1})
    by_squaring = g
    for _ in range(20):
        by_squaring = mul(by_squaring, by_squaring, 4, 3)
    assert power(g, 2 ** 20, 4, 3) == by_squaring
    assert power(g, ExponentToken(2 ** 20), 4, 3) == by_squaring
    assert power(g, P_INFINITY, 4, 3) == [0] * 6
    assert power(g, 0, 4, 3) == [0] * 6
    assert power(g, -1, 4, 3) == inv(g, 4, 3)


def test_exponent_token():
    assert ExponentToken(5) == 5
    assert ExponentToken(5) == ExponentToken(5)
    assert P_INFINITY.is_infinite
    assert P_INFINITY != ExponentToken(0)
    assert ExponentToken(-2) == -2  # negative exponents invert


def test_bar_quotient_is_a_quotient():
    # dropping the (1,n) entry of a product commutes with multiplying bars
    rng = np.random.default_rng(3)
    tfull = len(triangle_pairs(4))
    for _ in range(50):
        ea = rng.integers(0, 2, size=tfull)
        eb = rng.integers(0, 2, size=tfull)
        bar = walk_mul(ea[:-1].tolist(), eb[:-1].tolist(),
                       mul_recipe(4, bar=True), fp_ring(2))
        assert mul(ea.tolist(), eb.tolist(), 4, 2)[:-1] == bar


def test_fp_ring_reduce():
    # python ints, negative ones included, land in [0, p) as ints; an array
    # is reduced in place
    for p in (2, 3, 5, 7):
        reduce = fp_ring(p).reduce
        for v in range(-3 * p * p, 3 * p * p):
            r = reduce(v)
            assert type(r) is int and r == v % p
        for dtype in (np.int16, np.int64):
            v = np.arange(-2 * p * p, 2 * p * p, dtype=dtype)
            want = v % p
            assert reduce(v) is v and v.tolist() == want.tolist()


def test_walkers_leave_read_only_inputs_untouched():
    # fp_ring reduces in place, so every entry it meets must be a walker's
    # own temporary: read-only inputs make any write into them raise
    rng = np.random.default_rng(11)
    words = [Prod((Gen(1), Gen(2), Gen(1))), Pow(Gen(1), -4),
             Comm(Gen(1), Pow(Gen(2), 3)), Pow(Prod((Gen(2), Gen(1))), -1)]
    cases = [(fp_ring(p), dtype, p) for p in (3, 5)
             for dtype in (np.int16, np.int64)]
    cases.append((F2_LANES, np.uint64, 2 ** 64))
    for ring, dtype, high in cases:
        for n in (3, 4, 5):
            recipe = mul_recipe(n)
            images = []
            for _ in range(2):
                element = []
                for t in range(len(recipe)):
                    if t % 3 == 2:  # a python int broadcast over the batch
                        element.append(int(rng.integers(0, 2)))
                        continue
                    entry = rng.integers(0, high, size=40, dtype=dtype)
                    entry.flags.writeable = False
                    element.append(entry)
                images.append(element)
            before = [[np.copy(e) for e in element] for element in images]
            a, b = images
            walk_mul(a, b, recipe, ring)
            walk_inv(a, recipe, ring)
            for e in (-3, -1, 1, 2, 5, P_INFINITY):
                walk_pow(a, e, recipe, ring)
            for word in words:
                walk_word(word, images, recipe, ring)
            for element, saved in zip(images, before):
                assert all(np.array_equal(e, s)
                           for e, s in zip(element, saved))


def test_aut_order():
    assert aut_order(4, 2) == 384
    assert aut_order(3, 2) == 8
    assert aut_order(4, 3) == 2 * 2 ** 3 * 3 ** 8 == 104976
    assert aut_order(3, 3) == 27 * 8 * 2 == 432
    with pytest.raises(ValueError):
        aut_order(5, 2)
    with pytest.raises(ValueError):
        aut_order(2, 3)


def test_kernel_m_is_central_in_u4_f2():
    # M is closed under conjugation (it is normal, in fact central mod nothing:
    # u m u^{-1} stays in M for every u)
    ms = [entries(4, {(1, 3): a, (2, 4): b, (1, 4): c})
          for a, b, c in product(range(2), repeat=3)]
    for u in all_elements(4, 2):
        u_inv = inv(u, 4, 2)
        for m in ms:
            conj = mul(mul(u, m, 4, 2), u_inv, 4, 2)
            assert conj[:3] == [0, 0, 0]
