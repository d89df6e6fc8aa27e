"""Tests for the cup pairing and triple form read off relators, cup chains,
and trilinear traces."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from massey_census import fp
from massey_census.fp import FpVector, rank_mod, vectors_array
from massey_census.forms import (
    cup_chain,
    cup_grams,
    load_input_file,
    ramified_from_redei,
    trilinear_trace,
    triple_tensors,
    zero_cup_table,
)
from massey_census.unipotent import fp_ring, mul_recipe, walk_word
from massey_census.words import (
    Comm,
    Gen,
    Pow,
    Presentation,
    Prod,
    RamifiedRelatorData,
    demushkin_presentation,
    free_presentation,
    preset,
    preset_tensor,
    ramified_presentation,
)


def gram(d, p, q, case, f=None):
    """The one Gram array of a standard relator."""
    [g] = cup_grams(demushkin_presentation(d, p, q, case, f=f), p)
    return g


def test_gram_d1_symplectic():
    g = gram(4, 2, 4, "D1")
    assert g.tolist() == [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1],
                          [0, 0, 1, 0]]
    assert rank_mod(g, 2) == len(g)


def test_gram_d1_p3():
    assert gram(2, 3, 3, "D1").tolist() == [[0, 1], [2, 0]]


def test_gram_d2():
    g = gram(3, 2, 2, "D2", f=2)
    assert g.tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    # determinant of that matrix is 1 over F_2, hence nondegenerate
    assert rank_mod(g, 2) == len(g)


def test_gram_d3_d4():
    g3 = gram(4, 2, 2, "D3", f="inf")
    assert g3.tolist() == [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1],
                           [0, 0, 1, 0]]
    g4 = gram(4, 2, 2, "D4", f=2)
    assert np.array_equal(g4, g3)  # the patterns coincide at d = 4
    g4b = gram(6, 2, 2, "D4", f=3)
    assert g4b[2, 3] == 1  # (v3,v4) pair
    assert g4b[4, 5] == 1  # (v5,v6) pair


def test_gram_grid_nondegenerate():
    # every legal case/d/f combination up to d = 8 gives a full-rank form,
    # skew off the diagonal, with diagonal (1, 0, ...) at q = 2 and zero
    # otherwise
    cells = []
    for d in range(2, 9, 2):
        cells += [(d, 3, 3, "D1", None), (d, 2, 4, "D1", None),
                  (d, 5, 25, "D1", None), (d, 7, "inf", "D1", None)]
        cells += [(d, 2, 2, "D3", f) for f in (2, 3, "inf")]
        if d >= 4:
            cells += [(d, 2, 2, "D4", f) for f in (2, 3)]
    for d in range(3, 9, 2):
        cells += [(d, 2, 2, "D2", f) for f in (2, 3, "inf")]
    for cell in cells:
        d, p, q, _case, _f = cell
        g = gram(*cell)
        assert g.shape == (d, d) and g.dtype == np.int64
        assert rank_mod(g, p) == d, cell
        assert ((g >= 0) & (g < p)).all()
        off = g - np.diag(np.diag(g))
        assert not ((off + off.T) % p).any(), cell
        assert np.diag(g).tolist() == [int(q == 2)] + [0] * (d - 1)


def test_gram_validation():
    # relators that never reach the U_3 corner pair to zero: no array
    assert cup_grams(free_presentation(3), 2) == []
    for name in ("ram01", "borromean", "counterexample1"):
        assert cup_grams(preset(name), 2) == []
    # a relator whose exponent sums vanish mod p: one array per relator
    pres = Presentation(3, [Prod(Pow(Gen(1), 3), Comm(Gen(2), Gen(3))),
                            Comm(Gen(1), Gen(2))])
    assert [g.tolist() for g in cup_grams(pres, 3)] == [
        [[0, 0, 0], [0, 0, 1], [0, 2, 0]],
        [[0, 1, 0], [2, 0, 0], [0, 0, 0]],
    ]
    # x1^3 has exponent sum 3: its corner is no cup product mod 2
    with pytest.raises(ValueError, match="exponent sum"):
        cup_grams(pres, 2)
    with pytest.raises(ValueError):
        cup_grams(pres, 4)


# --- the pair mask against the literal product --------------------------------


def _literal_table(grams, U, W, p):
    ok = np.ones((len(U), len(W)), dtype=bool)
    for g in grams:
        ok &= U.astype(np.int64) @ g @ W.T.astype(np.int64) % p == 0
    return ok


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_zero_cup_table_is_the_literal_product(p, monkeypatch):
    rng = np.random.default_rng(20141009 + p)
    d = {2: 7, 3: 5, 5: 3, 7: 3}[p]
    V = vectors_array(d, p)
    # random arrays, negative entries, every entry p - 1, and a longer list
    # of arrays, each ANDed into the table in turn
    grams = [rng.integers(0, p, (d, d)), rng.integers(-p, p, (d, d)),
             np.full((d, d), p - 1)]
    many = [rng.integers(0, p, (d, d)) for _ in range(31 // p.bit_length() + 2)]
    # odd and even dimensions, down to one coordinate
    for dim in (1, 2, d - 1, d):
        W = vectors_array(dim, p)
        for arrays in ([g[:dim, :dim] for g in grams],
                       [g[:dim, :dim] for g in many]):
            literal = _literal_table(arrays, W, W, p)
            for cap in (1, 7, fp.BLOCK_CELLS):
                monkeypatch.setattr(fp, "BLOCK_CELLS", cap)
                assert (zero_cup_table(arrays, W, W, p) == literal).all()
    assert zero_cup_table([], V[:3], V, p).all()


@pytest.mark.parametrize("p, d", [(2, 10), (3, 7)])
def test_zero_cup_table_working_set(p, d, monkeypatch):
    # beside the table it returns, the build holds one int64 vector table
    # and one run of rows: its int64 product and that product's comparison
    # with 0, 9 B per cell; 4 KiB covers the small arrays
    rng = np.random.default_rng(p)
    grams = [rng.integers(0, p, (d, d)) for _ in range(2)]
    U = vectors_array(d, p)
    P = p ** d
    for cap in (1, fp.BLOCK_CELLS):
        monkeypatch.setattr(fp, "BLOCK_CELLS", cap)
        tracemalloc.start()
        try:
            table = zero_cup_table(grams, U, U, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        run = min(max(1, cap // P), len(U)) * P
        assert peak <= table.nbytes + P * d * 8 + run * 9 + 2 ** 12, cap
        assert (table == _literal_table(grams, U, U, p)).all()


def check_consecutive(g, p, chain):
    d = len(g)
    assert chain.shape == (d, d)
    assert rank_mod(chain, p) == d
    for a, b in zip(chain, chain[1:]):
        assert a @ g @ b % p == 0


def test_basis_zero_form():
    chain = cup_chain([np.zeros((3, 3), dtype=np.int64)], 3, 2, 3)
    assert chain.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


def test_basis_standard_symplectic():
    g = gram(4, 2, 4, "D1")
    chain = cup_chain([g], 4, 2, 4)
    check_consecutive(g, 2, chain)
    # hyperbolic-pair members end up separated: e4, e2, e3, e1
    assert chain.tolist() == [
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [1, 0, 0, 0],
    ]


def test_basis_d2():
    g = gram(3, 2, 2, "D2", f="inf")
    check_consecutive(g, 2, cup_chain([g], 3, 2, 3))


def test_basis_single_pair_plus_radical():
    # rank-2 alternate form in dimension 3: a chain starting in the radical
    # dead-ends, so the search backtracks to (u, z, w) with z radical
    g = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    chain = cup_chain([g], 3, 3, 3)
    check_consecutive(g, 3, chain)
    assert chain.tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def test_basis_dim_error():
    # a rank-2 D1 form is one hyperbolic plane: no two independent
    # characters pair to zero, so no chain of length 2 exists
    g = gram(2, 2, 4, "D1")
    assert cup_chain([g], 2, 2, 2) is None
    assert cup_chain([g], 2, 2, 1).tolist() == [[0, 1]]
    assert cup_chain([g], 2, 2, 3) is None  # longer than the space
    with pytest.raises(ValueError):
        cup_chain([g], 2, 2, 0)


def test_basis_random_forms():
    rng = np.random.default_rng(20260818)
    for p in (2, 3, 5):
        for d in (3, 4, 5, 6):
            for _ in range(12):
                m = np.triu(rng.integers(0, p, size=(d, d)), 1)
                m = (m - m.T) % p
                check_consecutive(m, p, cup_chain([m], d, p, d))
    # non-alternate forms at p = 2 (diagonal (1, 0, ...)), random
    # off-diagonals
    for d in (3, 4, 5, 6, 7):
        for _ in range(12):
            m = np.triu(rng.integers(0, 2, size=(d, d)), 1)
            m = (m + m.T) % 2
            m[0, 0] = 1
            check_consecutive(m, 2, cup_chain([m], d, 2, d))


BORROMEAN = preset_tensor("borromean")


def test_trace_zero_tensor():
    data = RamifiedRelatorData(3, {}, r=2)
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b, c = (FpVector(rng.integers(0, 2, size=3), 2) for _ in range(3))
        assert trilinear_trace(data, 2, a, b, c, 1) == 0
        assert trilinear_trace(data, 2, a, b, c, 2) == 0


def test_trace_borromean_values():
    chi = [FpVector([1, 0, 0], 2), FpVector([0, 1, 0], 2), FpVector([0, 0, 1], 2)]
    assert trilinear_trace(BORROMEAN, 2, chi[0], chi[1], chi[2], 1) == 1
    assert trilinear_trace(BORROMEAN, 2, chi[0], chi[1], chi[2], 2) == 0
    # the full nonzero pattern of relator 1: (1,2,3), (3,2,1), (1,3,2), (2,3,1)
    nonzero_r1 = set()
    nonzero_r2 = set()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if trilinear_trace(BORROMEAN, 2, chi[i], chi[j], chi[k], 1) == 1:
                    nonzero_r1.add((i + 1, j + 1, k + 1))
                if trilinear_trace(BORROMEAN, 2, chi[i], chi[j], chi[k], 2) == 1:
                    nonzero_r2.add((i + 1, j + 1, k + 1))
    assert nonzero_r1 == {(1, 2, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1)}
    assert nonzero_r2 == {(1, 3, 2), (2, 3, 1), (3, 1, 2), (2, 1, 3)}


def test_trace_errors():
    v = FpVector([1, 0, 0], 2)
    with pytest.raises(ValueError):
        trilinear_trace(BORROMEAN, 2, v, v, FpVector([1, 0], 2), 1)
    with pytest.raises(ValueError):
        trilinear_trace(BORROMEAN, 2, v, v, v, 3)
    with pytest.raises(ValueError):
        trilinear_trace(BORROMEAN, 2, v, v, FpVector([1, 0, 0], 3), 1)


@st.composite
def relator_tensors(draw):
    """A random deep-commutator tensor, with exponents that may vanish mod p,
    and a prime."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(2, 4))
    r = draw(st.integers(1, 3))
    slots = [(i, j, k, m) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             for k in range(1, j + 1) for m in range(1, r + 1)]
    chosen = draw(st.lists(st.sampled_from(slots), max_size=6, unique=True))
    return RamifiedRelatorData(n, {s: draw(st.integers(1, 2 * p))
                                   for s in chosen}, r=r), p


@settings(max_examples=60, deadline=None)
@given(relator_tensors(), st.randoms(use_true_random=False))
def test_triple_tensors_are_the_trace_form(case, rnd):
    data, p = case
    pres = ramified_presentation(data, p)
    tensors = triple_tensors(pres, p)
    n = data.n
    # one tensor per relator that survives mod p, in relator order
    kept = [m for m in range(1, data.r + 1)
            if any(e % p for *_, e in data.terms(m))]
    assert len(tensors) == len(kept) == len(pres.relators)
    for m, T in zip(kept, tensors):
        assert T.shape == (n, n, n) and T.dtype == np.int64
        assert ((T >= 0) & (T < p)).all()
        for _ in range(8):
            a, b, c = ([rnd.randrange(p) for _ in range(n)] for _ in range(3))
            via_tensor = int(np.einsum("ijk,i,j,k->", T, a, b, c)) % p
            direct = trilinear_trace(data, p, FpVector(a, p), FpVector(b, p),
                                     FpVector(c, p), m)
            assert via_tensor == direct
    # the corner is the lifting condition: random second bands and corners
    # on the generators leave it unchanged
    grid = np.indices((n, n, n))
    rng = np.random.default_rng(rnd.getrandbits(32))
    images = [[(index == g).astype(np.int64) for index in grid]
              + list(rng.integers(0, p, size=(3, n, n, n)))
              for g in range(n)]
    for r, T in zip(pres.relators, tensors):
        corner = walk_word(r, images, mul_recipe(4), fp_ring(p))[-1]
        assert np.array_equal(np.broadcast_to(corner, T.shape), T)


def test_triple_tensors_presets_and_refusal():
    # borromean relator 1 is [[x2,x3],x1]: the pattern of its trace form
    T1, T2 = triple_tensors(preset("borromean"), 2)
    assert {tuple(c) for c in np.argwhere(T1)} == {
        (0, 1, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0)}
    assert {tuple(c) for c in np.argwhere(T2)} == {
        (0, 2, 1), (1, 2, 0), (2, 0, 1), (1, 0, 2)}
    assert triple_tensors(preset("ram01"), 3) == []
    # a relator with a nonzero cup pairing: its U_4 corner reads band 2
    with pytest.raises(ValueError, match="cup pairing"):
        triple_tensors(demushkin_presentation(4, 3, 3, "D1"), 3)
    with pytest.raises(ValueError, match="exponent sum"):
        triple_tensors(Presentation(2, [Gen(1)]), 2)


def proper_borromean_table():
    # distinct-index symbols are -1, repeated-index symbols are +1
    table = {
        "primes": [13, 61, 937],
        "symbols": [
            {"triple": [2, 3, 1], "value": -1},
            {"triple": [1, 3, 2], "value": -1},
            {"triple": [1, 2, 1], "value": 1},
            {"triple": [1, 2, 2], "value": 1},
            {"triple": [1, 3, 1], "value": 1},
            {"triple": [1, 3, 3], "value": 1},
            {"triple": [2, 3, 2], "value": 1},
            {"triple": [2, 3, 3], "value": 1},
        ],
    }
    return table


def test_redei_ingestion_borromean():
    data = ramified_from_redei(proper_borromean_table())
    assert data.n == 3 and data.r == 3
    assert data.e == {
        (2, 3, 1, 1): 1,
        (2, 3, 1, 3): 1,
        (1, 3, 2, 2): 1,
        (1, 3, 2, 3): 1,
    }
    # relators 1 and 2 match the two-relator preset; relator 3 is their product
    assert data.terms(1) == preset_tensor("borromean").terms(1)
    assert data.terms(2) == preset_tensor("borromean").terms(2)
    assert data.terms(3) == [(1, 3, 2, 1), (2, 3, 1, 1)]


def test_redei_ingestion_trivial():
    table = proper_borromean_table()
    for s in table["symbols"]:
        s["value"] = 1
    table["primes"] = [5, 101, 8081]
    data = ramified_from_redei(table)
    assert data.e == {}


def test_redei_validation():
    table = proper_borromean_table()
    table["symbols"] = table["symbols"][:-1]
    with pytest.raises(ValueError, match=r"\(2,3,3\)"):
        ramified_from_redei(table)
    with pytest.raises(ValueError, match="value"):
        ramified_from_redei(
            {"primes": [3, 5], "symbols": [{"triple": [1, 2, 1], "value": 0}]}
        )
    with pytest.raises(ValueError, match="triple"):
        ramified_from_redei(
            {"primes": [3, 5], "symbols": [{"triple": [1, 4, 1], "value": 1}]}
        )
    # Python counts true as 1; a file's true is no index and no sign
    with pytest.raises(ValueError, match="triple"):
        ramified_from_redei(
            {"primes": [3, 5], "symbols": [{"triple": [1, True, 1],
                                            "value": 1}]}
        )
    with pytest.raises(ValueError, match="value"):
        ramified_from_redei(
            {"primes": [3, 5], "symbols": [{"triple": [1, 2, 1],
                                            "value": True}]}
        )


def _four_row_exponents(n, symbols):
    """The docstring's four rows, literally: every relator m against every
    i < j, k <= j triple, failing at the first triple a row consults
    without its symbol."""
    e = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, j + 1):
                for m in range(1, n + 1):
                    if not ((m == j and m != k) or (m != j and m == k)
                            or (m == i and j == k) or (m == j == k)):
                        continue
                    if (i, j, k) not in symbols:
                        raise ValueError(
                            f"missing symbol for triple ({i},{j},{k})")
                    if symbols[(i, j, k)] == -1:
                        e[(i, j, k, m)] = 1
    return e


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_redei_rule_matches_the_four_rows(data):
    # complete tables in any order, then the same tables less a few
    # symbols: the same exponents, or the same first missing triple
    n = data.draw(st.integers(2, 5))
    triples = [(i, j, k) for i in range(1, n + 1)
               for j in range(i + 1, n + 1) for k in range(1, j + 1)]
    signs = st.sampled_from((1, -1))
    symbols = {t: data.draw(signs) for t in triples}
    order = data.draw(st.permutations(triples))
    dropped = data.draw(st.sets(st.sampled_from(triples), max_size=2))
    for kept in (order, [t for t in order if t not in dropped]):
        table = {"primes": [2, 3, 5, 7, 11][:n],
                 "symbols": [{"triple": list(t), "value": symbols[t]}
                             for t in kept]}
        try:
            expected = _four_row_exponents(n, {t: symbols[t] for t in kept})
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                ramified_from_redei(table)
            assert str(got.value) == str(err)
            continue
        data_out = ramified_from_redei(table)
        assert (data_out.n, data_out.r) == (n, n)
        assert list(data_out.e.items()) == list(expected.items())


def test_load_input_file_redei(tmp_path):
    import json

    f = tmp_path / "symbols.json"
    f.write_text(json.dumps(proper_borromean_table()))
    data = load_input_file(str(f))
    assert isinstance(data, RamifiedRelatorData)
    assert data.terms(1) == preset_tensor("borromean").terms(1)
