"""Tests for the F_p linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from massey_census import fp
from massey_census.fp import (
    BudgetError,
    FpVector,
    check_prime,
    rank_mod,
    vector_from_index,
    vectors_array,
)


def test_modulus_validation(monkeypatch):
    with pytest.raises(ValueError):
        check_prime(4)
    with pytest.raises(ValueError):
        check_prime(1)
    with pytest.raises(ValueError):
        FpVector([1], 6)
    # 11 is prime but above the cap, and the message names the cap only
    with pytest.raises(ValueError, match=r"largest supported prime 7$"):
        FpVector([1], 11)
    monkeypatch.setattr(fp, "MAX_PRIME", 11)
    assert check_prime(11) == 11
    assert FpVector([12], 11).entries == (1,)


def test_vector_basics():
    v = FpVector([1, 5, -1], 3)
    assert v.entries == (1, 2, 2)
    assert v.dim == 3
    with pytest.raises(ValueError):
        FpVector([], 2)


def test_rank_small_cases():
    assert rank_mod(np.eye(3, dtype=np.int64), 2) == 3
    assert rank_mod(np.zeros((3, 5), dtype=np.int64), 3) == 0
    # over F_2 the rows (1,1,0), (0,1,1), (1,0,1) sum to zero, so rank is 2
    m = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert rank_mod(m, 2) == 2
    # same integer matrix has rank 3 over F_3
    assert rank_mod(m, 3) == 3
    # entries are read mod p: the rows (6, 7) and (8, 9) are (1, 2), (3, 4)
    assert rank_mod([[6, 7], [8, 9]], 5) == rank_mod([[1, 2], [3, 4]], 5) == 2


def test_rank_invariance_random():
    rng = np.random.default_rng(20260818)
    for p in (2, 3, 5):
        for _ in range(25):
            a = rng.integers(0, p, size=(4, 5))
            r = fp.rank_mod(a, p)
            perm = rng.permutation(4)
            assert fp.rank_mod(a[perm], p) == r
            scale = int(rng.integers(1, p))
            b = a.copy()
            b[0] = b[0] * scale % p
            assert fp.rank_mod(b, p) == r
            # adding one row to another keeps the rank
            c = a.copy()
            c[1] = (c[1] + c[2]) % p
            assert fp.rank_mod(c, p) == r


def _row_space_rank(a, p):
    """log_p of the number of distinct c @ a mod p over every c in F_p^rows:
    a rank that shares no code with the elimination."""
    rows, cols = a.shape
    combos = np.indices((p,) * rows).reshape(rows, -1).T
    codes = (combos @ (a % p)) % p @ p ** np.arange(cols)
    size = len(np.unique(codes))
    k = 0
    while p ** k < size:
        k += 1
    assert p ** k == size
    return k


@st.composite
def _rank_stacks(draw):
    """A stack of up to 4 integer matrices, up to 6 x 8, whose rows are
    random (entries -p .. 2p), zero, or a multiple of an earlier row."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 8))
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        mat = []
        for _ in range(rows):
            kind = draw(st.sampled_from(("random", "zero", "repeat")))
            if kind == "zero":
                mat.append([0] * cols)
            elif kind == "repeat" and mat:
                row = draw(st.sampled_from(mat))
                k = draw(st.integers(1, p - 1))
                mat.append([k * x for x in row])
            else:
                mat.append(draw(st.lists(st.integers(-p, 2 * p),
                                         min_size=cols, max_size=cols)))
        stack.append(mat)
    return p, np.array(stack, dtype=np.int64)


@settings(max_examples=120, deadline=None)
@given(_rank_stacks())
def test_rank_stack_matches_row_space_size(case):
    p, stack = case
    ranks = fp.rank_mod(stack, p)
    assert ranks.shape == (len(stack),)
    for a, r in zip(stack, ranks):
        single = fp.rank_mod(a, p)
        assert type(single) is int
        assert single == r == _row_space_rank(a, p)
    assert fp.rank_mod(stack[None], p).tolist() == [ranks.tolist()]


def test_rank_exact_at_the_largest_prime():
    # elimination runs in int32 after one reduction mod p: products reach
    # (p-1)^2 at p = MAX_PRIME, and int64 inputs past 2^31 reduce first
    p = fp.MAX_PRIME
    big = (2 ** 61 - 1) // p * p  # 0 mod p, far past int32
    for shift in (0, big):
        assert fp.rank_mod([[p - 1 + shift, 1], [1, p - 1 + shift]], p) == 1
        assert fp.rank_mod([[p - 1, 2 + shift], [1 + shift, p - 1]], p) == 2
    stack = np.full((3, 4, 4), p - 1, dtype=np.int64) + big
    assert fp.rank_mod(stack, p).tolist() == [1, 1, 1]


def test_nondegeneracy():
    sympl4 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    assert rank_mod(sympl4, 2) == 4
    assert rank_mod(np.zeros((3, 3), dtype=np.int64), 2) < 3
    # odd-dimensional alternating forms are always degenerate at odd p
    skew3 = [[0, 1, 1], [2, 0, 1], [2, 2, 0]]
    assert rank_mod(skew3, 3) < 3


def test_skew_eval_property():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        d = 4
        for _ in range(10):
            upper = np.triu(rng.integers(0, p, size=(d, d)), 1)
            G = (upper - upper.T) % p
            x = rng.integers(0, p, size=d)
            y = rng.integers(0, p, size=d)
            assert x @ G @ y % p == -(y @ G @ x) % p
            assert x @ G @ x % p == 0


def test_vector_index_order():
    vs = [vector_from_index(i, 2, 2) for i in range(4)]
    assert [v.entries for v in vs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    vs3 = [vector_from_index(i, 3, 3) for i in range(27)]
    assert len(set(vs3)) == 27
    assert vs3[0].entries == (0, 0, 0)
    assert vs3[1].entries == (0, 0, 1)
    assert vs3[-1].entries == (2, 2, 2)


def test_enumerate_budget():
    # 7^10 vectors are over VECTOR_BUDGET: refused before allocating
    with pytest.raises(BudgetError):
        vectors_array(10, 7)


def test_vectors_array_matches_enumeration():
    for p in (2, 3):
        for d in (1, 2, 3):
            arr = vectors_array(d, p)
            assert arr.shape == (p ** d, d)
            for i in range(p ** d):
                assert (tuple(int(c) for c in arr[i])
                        == vector_from_index(i, d, p).entries)
