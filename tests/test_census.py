"""Census pathway tests: enumeration vs closed forms vs hand-frozen counts."""

import collections.abc
import csv
import functools
import io
import itertools
import json
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from massey_census import census, forms, fp, scan
from massey_census.census import (
    CensusReport,
    GroupModel,
    cp_count,
    epi_count,
    local_field_model,
    model_check,
    model_presentation,
    nu_extensions,
    nu_local_closed,
    preset_model,
    reports_to_csv,
    tmp_closed,
    tmp_enumerate,
    tmp_enumerate_forms,
    un_quotient_decision,
    z1_closed,
)
from massey_census.fp import BudgetError, FpVector, rank_mod
from massey_census.forms import cup_grams, trilinear_trace, zero_cup_table
from massey_census.oracle import count_epi_bruteforce, count_lifts_bruteforce
from massey_census.words import (
    Comm,
    Gen,
    Pow,
    Prod,
    RamifiedRelatorData,
    demushkin_case,
    demushkin_presentation,
    preset_tensor,
)


def test_model_construction_and_case_inference():
    assert demushkin_case(3, 2) == "D2"
    assert demushkin_case(4, 2) == "D3"
    assert demushkin_case(4, 4) == "D1"
    with pytest.raises(ValueError):
        demushkin_case(3, 4)  # odd rank needs q = 2
    m = GroupModel.demushkin(3, 2)
    assert m.factors[0][3] == "D2" and m.rank == 3
    assert GroupModel.demushkin(4, 4).factors[0][3] == "D1"
    assert GroupModel.df(3, 2, 2).rank == 5
    assert GroupModel.dd(2, 4, 2, 4).rank == 4
    with pytest.raises(ValueError):
        GroupModel.demushkin(4, 4, case="D3")  # D3 needs q = 2
    with pytest.raises(ValueError):
        GroupModel.demushkin(3, 2, case="D1")
    with pytest.raises(ValueError):
        GroupModel.free(0)
    assert "D2" in GroupModel.demushkin(3, 2).describe()
    assert "*" in GroupModel.df(3, 2, 1).describe()


def test_case_rules_agree_on_a_grid():
    # the model and the presentation share one validator, so each cell is
    # accepted by both or refused by both
    accepted = set()
    for cell in itertools.product(range(-2, 10), (0, 2, 3, 4, 9), (2, 3),
                                  (None, "D1", "D2", "D3", "D4")):
        d, q, p, case = cell
        verdicts = set()
        for build in (
            lambda: model_check(GroupModel.demushkin(d, q, case), p),
            lambda: demushkin_presentation(d, p, q, case, f=2),
        ):
            try:
                build()
                verdicts.add(True)
            except ValueError:
                verdicts.add(False)
        assert len(verdicts) == 1, cell
        if True in verdicts:
            accepted.add(cell)
    assert min(d for d, _q, _p, _c in accepted) == 2
    assert {(2, 4, 2, None), (3, 2, 2, None), (4, 2, 2, "D4"),
            (2, 9, 3, "D1")} <= accepted
    assert not {(0, 4, 2, None), (-2, 4, 2, None), (1, 2, 2, None),
                (2, 2, 2, "D4"), (5, 4, 2, None)} & accepted


def test_preset_models():
    assert preset_model("ram01") == GroupModel.free(3)
    assert preset_model("borromean").kind == "s3"
    assert preset_model("counterexample1").data.r == 1
    with pytest.raises(ValueError):
        preset_model("nope")


def test_tmp_borromean_frozen():
    model = preset_model("borromean")
    count, triples = tmp_enumerate(model, 2, want_list=True)
    assert count == 6
    assert len(triples) == 6
    for t in triples:
        x, y, z = t
        assert rank_mod([list(map(int, v)) for v in (x, y, z)], 2) == 3
        for m in (1, 2):
            assert int(trilinear_trace(model.data, 2, x, y, z, m)) == 0


def test_tmp_free_and_demushkin_closed_vs_enumerate():
    free3 = GroupModel.free(3)
    assert tmp_enumerate(free3, 2)[0] == 168
    assert tmp_enumerate(free3, 3)[0] == 26 * 24 * 18

    d2 = GroupModel.demushkin(3, 2)
    assert tmp_closed(d2, 2) == 24
    assert tmp_enumerate(d2, 2)[0] == 24

    d1 = GroupModel.demushkin(4, 4)
    assert tmp_closed(d1, 2) == 360
    assert tmp_enumerate(d1, 2)[0] == 360

    d1p3 = GroupModel.demushkin(4, 3)
    assert tmp_closed(d1p3, 3) == 80 * 24 * 18
    assert tmp_enumerate(d1p3, 3)[0] == 80 * 24 * 18


def test_tmp_products_closed_vs_enumerate():
    df = GroupModel.df(3, 2, 1)
    assert tmp_closed(df, 2) == 648
    assert tmp_enumerate(df, 2)[0] == 648

    df_zero = GroupModel.df(2, 4, 1)
    assert tmp_closed(df_zero, 2) == tmp_enumerate(df_zero, 2)[0]

    dd = GroupModel.dd(2, 4, 2, 4)
    assert tmp_closed(dd, 2) == 144
    assert tmp_enumerate(dd, 2)[0] == 144

    with pytest.raises(ValueError):
        tmp_closed(GroupModel.dd(3, 2, 2, 4), 2)  # q = 2 factor in a product
    with pytest.raises(ValueError):
        tmp_closed(GroupModel.free(3), 2)
    with pytest.raises(ValueError):
        tmp_closed(GroupModel.demushkin(2, 4), 2)  # rank below 3


def test_tmp_rank_two_space_has_no_triples():
    assert tmp_enumerate(GroupModel.demushkin(2, 4), 2)[0] == 0


def test_tmp_depends_only_on_form_shape():
    # two different nondegenerate alternating forms in dimension 4 over F_2:
    # adjacent-pair blocks vs nested pairs
    a = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    b = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]])
    assert tmp_enumerate_forms([a], 2) == 360
    assert tmp_enumerate_forms([b], 2) == 360
    # block-embedded pair of rank-2 forms reproduces the product model count
    c1 = np.zeros((4, 4), dtype=int)
    c1[0, 1], c1[1, 0] = 1, -1
    c2 = np.zeros((4, 4), dtype=int)
    c2[2, 3], c2[3, 2] = 1, -1
    assert tmp_enumerate_forms([c1, c2], 2) == 144
    # the forms must be square and share one dimension
    with pytest.raises(ValueError):
        tmp_enumerate_forms([c1, c2[:3, :3]], 2)
    with pytest.raises(ValueError):
        tmp_enumerate_forms([c1[:3]], 2)
    with pytest.raises(ValueError):
        tmp_enumerate_forms([], 2)


def test_tmp_budget_error():
    with pytest.raises(BudgetError):
        tmp_enumerate(GroupModel.demushkin(4, 3), 3, budget=1000)


def test_tmp_budget_pinned_to_form_evaluations():
    model = GroupModel.demushkin(4, 3)
    # 81^2 pair-mask cells + 1920 admissible pairs x 81 z-candidates
    assert tmp_enumerate(model, 3, budget=162081)[0] == 34560
    with pytest.raises(BudgetError):
        tmp_enumerate(model, 3, budget=162080)


def _spy_charges(monkeypatch):
    charges = []
    spend = scan.spend

    def spy(box, amount):
        charges.append(amount)
        spend(box, amount)

    monkeypatch.setattr(scan, "spend", spy)
    return charges


def test_scan_charges_up_front(monkeypatch):
    # the whole scan is one charge after the pair mask's, so a short budget
    # fails before any x is scanned
    model = GroupModel.demushkin(4, 3)
    charges = _spy_charges(monkeypatch)
    tmp_enumerate(model, 3)
    assert charges == [81 * 81, 1920 * 81]
    charges.clear()
    # the class counts read their subspaces off the same rows and charge
    # nothing more: one charge per Gram array, then one for the scan
    epi_count(model, 3, method="tmp_sum")
    assert charges == [81 * 81, 1920 * 81]
    charges.clear()
    # a listing charges exactly what its count does
    tmp_enumerate(model, 3, want_list=True)
    assert charges == [81 * 81, 1920 * 81]
    charges.clear()
    # an s3 listing walks twice, to count and to fill, and charges once:
    # 80 nonzero x, 81 - 3 y-candidates, 81 z-candidates, one tensor
    s3 = preset_model("counterexample1")
    tmp_enumerate(s3, 3, want_list=True)
    assert charges == [80 * 78 * 81]
    charges.clear()
    dd, p = GroupModel.dd(2, 3, 2, 3), 3
    P, grams = p ** dd.rank, census._model_forms(dd, p)[0]
    pairs = cp_count(dd, p, "enumerate")
    charges.clear()
    epi_count(dd, p, method="tmp_sum")
    assert len(grams) == 2
    assert charges == [P * P] * len(grams) + [pairs * P]
    charges.clear()
    # pairs: 81^2 pair-mask cells + 80 nonzero x times 81 y-candidates
    assert cp_count(model, 3, "enumerate", budget=13041) == cp_count(model, 3)
    assert charges == [81 * 81, 80 * 81]
    charges.clear()
    with pytest.raises(BudgetError):
        cp_count(model, 3, "enumerate", budget=13040)
    assert charges == [81 * 81, 80 * 81]


# --- the scan kernel against the literal definition ---------------------------


def _naive_triples(d, p, pair_zero):
    """Every (x, y, z) in F_p^d, in lexicographic order, with
    pair_zero(x, y, z) and rank_mod([x, y, z]) == 3."""
    space = list(itertools.product(range(p), repeat=d))
    return [
        (x, y, z)
        for x in space for y in space for z in space
        if pair_zero(x, y, z) and rank_mod(np.array([x, y, z]), p) == 3
    ]


@functools.lru_cache(maxsize=None)  # shared by the literal-loop tests
def _naive_gram_triples(model, p):
    grams = cup_grams(model_presentation(model, p), p)

    def pairs(u, v):
        return all(np.array(u) @ g @ np.array(v) % p == 0 for g in grams)

    return _naive_triples(model.rank, p, lambda x, y, z: pairs(x, y) and pairs(y, z))


def _naive_class(model, x, z):
    keys, off = [], 0
    for kind, size, _q, _case in model.factors:
        if kind == "demushkin":
            zero = not any(x[off:off + size]) and not any(z[off:off + size])
            keys.append("central" if zero else "noncentral")
        off += size
    return "+".join(keys) or "any"


def _as_tuples(triples):
    return [tuple(tuple(int(e) for e in v) for v in t) for t in triples]


def _check_against_naive(model, p, naive):
    count, triples = tmp_enumerate(model, p, want_list=True)
    assert count == len(naive)
    assert _as_tuples(triples) == naive
    classes = census._scan_classes(model, p, 10 ** 8)
    expected = Counter(_naive_class(model, x, z) for x, _y, z in naive)
    assert {k: v for k, v in classes.items() if v} == dict(expected)


def _demushkin_factors(p, max_d):
    out = []
    for d in range(2, max_d + 1):
        for q in (p, p * p, 0):
            for case in ("D1", "D2", "D3", "D4"):
                try:
                    out.append(GroupModel.demushkin(d, q, case).factors[0])
                except ValueError:
                    pass
    return out


def _gram_model_cases():
    # the literal loop is P^3 triples: p = 3 stays at rank <= 3
    cases = []
    for p, max_d in ((2, 4), (3, 3)):
        dem = _demushkin_factors(p, max_d)
        free = [("free", e, None, None) for e in range(1, max_d + 1)]
        factor_lists = (
            [("demushkin", [f]) for f in dem]
            + [("free", [f]) for f in free]
            + [("df", [f, g]) for f in dem for g in free if f[1] + g[1] <= max_d]
            + [("dd", [f, g]) for f in dem for g in dem if f[1] + g[1] <= max_d]
        )
        cases += [(GroupModel(kind, factors), p) for kind, factors in factor_lists]
    return cases


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_gram_model_cases()))
def test_scan_matches_literal_definition_gram(case):
    model, p = case
    _check_against_naive(model, p, _naive_gram_triples(model, p))


@st.composite
def s3_models(draw):
    p = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(2, 4 if p == 2 else 3))
    r = draw(st.integers(1, 2))
    slots = [(i, j, k, m) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             for k in range(1, j + 1) for m in range(1, r + 1)]
    chosen = draw(st.lists(st.sampled_from(slots), max_size=4, unique=True))
    e = {slot: draw(st.integers(1, p - 1)) for slot in chosen}
    return GroupModel.s3(RamifiedRelatorData(n, e, r=r)), p


@settings(max_examples=20, deadline=None)
@given(s3_models())
def test_scan_matches_literal_definition_s3(case):
    model, p = case
    naive = _naive_s3_triples(model, p)
    _check_against_naive(model, p, naive)
    # W the vectors with first coordinate 0, the whole space and 0, as
    # masks of the coordinates they leave free.  s3 tensors take no
    # subspace: refused before any charge.  A model none of whose relators
    # survives mod p scans as the free group, and N(W), the triples with x
    # and z in W, comes off the ranks
    grams, tensors = census._model_forms(model, p)
    d = model.rank
    spaces = [[False] + [True] * (d - 1), [True] * d, [False] * d]
    box = [0, 10 ** 9]
    if tensors is not None:
        with pytest.raises(ValueError, match="no subspace"):
            scan.count_triples(model.rank, p, grams, box, tensors, spaces)
        assert box[0] == 0
        return
    _, _, on = scan.count_triples(model.rank, p, grams, box, tensors, spaces)
    first_zero = sum(x[0] == z[0] == 0 for x, _y, z in naive)
    assert on == [first_zero, len(naive), 0]


def _naive_s3_triples(model, p):
    vec = {v: FpVector(v, p)
           for v in itertools.product(range(p), repeat=model.rank)}

    def traces_vanish(x, y, z):
        return all(int(trilinear_trace(model.data, p, vec[x], vec[y], vec[z],
                                       m)) == 0
                   for m in range(1, model.data.r + 1))

    return _naive_triples(model.rank, p, traces_vanish)


@st.composite
def explicit_forms(draw):
    """Alternating forms and, beside them, symmetric forms with random
    diagonals, whose anisotropic y (mask[y, y] false) have h(y) = 1."""
    p = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(2, 4 if p == 2 else 3))
    forms = []
    for _ in range(draw(st.integers(1, 2))):
        symmetric = draw(st.booleans())
        a = np.zeros((d, d), dtype=np.int64)
        for i, j in itertools.combinations_with_replacement(range(d), 2):
            if i < j or symmetric:
                a[i, j] = draw(st.integers(0, p - 1))
                a[j, i] = a[i, j] if symmetric else -a[i, j] % p
        forms.append(a)
    return forms, d, p


@settings(max_examples=30, deadline=None)
@given(explicit_forms(), st.lists(st.booleans(), min_size=4, max_size=4))
@example(([np.eye(3, dtype=np.int64)], 3, 3),  # the dot product: y.y != 0
         [True, False, True, False])
@example(([np.diag([1, 0, 1]), np.diag([0, 1, 1])], 3, 2),
         [False, True, True, False])
def test_scan_matches_literal_definition_forms(case, drawn_mask):
    forms, d, p = case

    def pairs(u, v):
        return all(np.array(u) @ g @ np.array(v) % p == 0 for g in forms)

    naive = _naive_triples(d, p, lambda x, y, z: pairs(x, y) and pairs(y, z))
    assert tmp_enumerate_forms(forms, p) == len(naive)
    space = list(itertools.product(range(p), repeat=d))
    naive_pairs = sum(pairs(x, y) and rank_mod(np.array([x, y]), p) == 2
                      for x in space for y in space)
    assert scan.count_pairs(d, p, forms, [0, 10 ** 9]) == naive_pairs
    # N(W) on 0, on the drawn block and on the whole space: the triples
    # with x and z in W, y anywhere; W holds the vectors zero off the mask
    masks = [[False] * d, drawn_mask[:d], [True] * d]
    subspaces = [{v for v in space
                  if all(c == 0 for c, free in zip(v, S) if not free)}
                 for S in masks]
    count, _, on = scan.count_triples(d, p, forms, [0, 10 ** 9],
                                      spaces=masks)
    assert count == len(naive)
    assert on == [sum(x in W and z in W for x, _y, z in naive)
                  for W in subspaces]
    assert on[0] == 0 and on[2] == count


def _structured_models():
    """Demushkin (D1-D4), free, df and dd models at p = 2, 3 and 5 with
    P <= 5000, and the s3 presets."""
    cells = [(preset_model(name), p) for name in ("borromean",
             "counterexample1", "ram01") for p in (2, 3, 5)]
    for p, top in ((2, 12), (3, 7), (5, 5)):
        dem = _demushkin_factors(p, top)
        cells += [(GroupModel("demushkin", [f]), p) for f in dem]
        cells += [(GroupModel.free(e), p) for e in range(1, top + 1)]
        cells += [(GroupModel("df", [f, ("free", e, None, None)]), p)
                  for f in dem[::3] for e in (1, 2) if f[1] + e <= top]
        cells += [(GroupModel("dd", [f, g]), p) for f in dem[::4]
                  for g in dem[::5] if f[1] + g[1] <= top]
    return cells


def test_every_model_gram_array_is_reflexive():
    cells = _structured_models()
    assert len(cells) >= 100
    for model, p in cells:
        grams = census._model_forms(model, p)[0]
        P = p ** model.rank
        assert len(scan._reflexive_grams(model.rank, p, grams)) == len(grams)
        if grams and P <= 729:
            V = fp.vectors_array(model.rank, p)
            mask = forms.zero_cup_table(grams, V, V, p)
            assert (mask == mask.T).all(), (model.describe(), p)


def test_pair_mask_refuses_what_is_not_reflexive():
    sym = np.eye(2, dtype=np.int64)
    for forms, p, match in (
        ([[[0.5, 1], [0, 0]]], 3, "Gram array 0 has non-integer"),
        ([sym, np.array([[0.0, 1.0], [-1.0, 0.0]])], 3,
         "Gram array 1 has non-integer"),
        ([[[0, 1], [0, 0]]], 3, "Gram array 0 is neither symmetric"),
        ([[[0, 1], [0, 0]]], 2, "Gram array 0 is neither symmetric"),
        # skew off the diagonal with a nonzero diagonal entry
        ([sym, [[1, 1], [-1, 0]]], 3, "Gram array 1 is neither symmetric"),
        ([sym, np.eye(3, dtype=np.int64)], 3, "Gram array 1 has shape"),
    ):
        with pytest.raises(ValueError, match=match):
            tmp_enumerate_forms(forms, p)
        box = [0, 10 ** 9]
        for scan_it in (scan._classes, scan.count_pairs,
                        functools.partial(scan.count_triples, want_list=True)):
            with pytest.raises(ValueError, match=match):
                scan_it(2, p, forms, box)
        assert box[0] == 0  # refused before any charge
    # symmetric with a diagonal, and skew, mod p: both pass
    assert tmp_enumerate_forms([[[1, 4], [1, 0]]], 3) == tmp_enumerate_forms(
        [[[1, 1], [1, 0]]], 3)
    assert tmp_enumerate_forms([[[0, 1], [2, 0]]], 3) >= 0


def _block_members(S, V):
    """Whether each row of V is zero off the mask S, spelled out: a loop
    over the vectors and their coordinates."""
    return np.array([all(c == 0 for c, free in zip(v, S) if not free)
                     for v in V.tolist()], dtype=bool)


def _literal_classes(mask, members, p):
    """Per space, the whole space first, the classes (f, h, n) of the scan's
    module notes read off the literal pair mask at every nonzero y: the row
    sum over W less h_W(y), p when mask[y, y] and y lies in W, else 1."""
    diag = mask.diagonal()
    out = []
    for on in [np.ones(len(mask), dtype=bool), *members]:
        h = np.where(diag & on, p, 1)
        f = mask[:, on].sum(axis=1) - h
        tally = Counter(zip(f[1:].tolist(), h[1:].tolist()))
        out.append({(*key, n) for key, n in tally.items()})
    return out


def _literal_sums(classes, p):
    """The pair count and, per space, the triple count of the module notes'
    sums over the classes."""
    pairs = sum(f * n for f, _h, n in classes[0])
    return pairs, [sum(n * f * (f - (p - 1) * h) for f, h, n in c)
                   for c in classes]


def test_classes_match_the_pair_mask_on_model_spaces():
    for model, p in ((GroupModel.dd(2, 3, 2, 3), 3),
                     (GroupModel.demushkin(3, 2), 2),
                     (GroupModel.free(3), 2)):
        grams = census._model_forms(model, p)[0]
        P = p ** model.rank
        V = fp.vectors_array(model.rank, p)
        mask = forms.zero_cup_table(grams, V, V, p)  # all true without grams
        assert mask.shape == (P, P)
        # the central subspaces, 0 and the whole space
        d = model.rank
        spaces = [*census._central_spaces(model), [False] * d, [True] * d]
        members = [_block_members(S, V) for S in spaces]
        literal = _literal_classes(mask, members, p)
        pairs, triples = _literal_sums(literal, p)
        for cap in (1, 7, 10 ** 6):
            box = [0, 10 ** 9]
            with mock.patch.object(fp, "BLOCK_CELLS", cap):
                classes = scan._classes(model.rank, p, grams, box, spaces)
                assert [{c for c in cs if c[2]} for cs in classes] == literal
                assert scan.count_pairs(model.rank, p, grams, box) == pairs
                count, _, on = scan.count_triples(model.rank, p, grams, box,
                                                  spaces=spaces)
            assert [count, *on] == triples


@st.composite
def grams_and_spaces(draw):
    """Random symmetric or skew Gram arrays at p = 2, 3, 5, and masks of
    the coordinates a block leaves free: none (the zero subspace), all (the
    whole space) and random ones."""
    p = draw(st.sampled_from((2, 3, 5)))
    d = draw(st.integers(1, {2: 5, 3: 4, 5: 3}[p]))
    entries = st.integers(0, p - 1)
    grams = []
    for _ in range(draw(st.integers(1, 3))):
        a = np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d)),
                     dtype=np.int64).reshape(d, d)
        if draw(st.booleans()):
            grams.append(np.triu(a) + np.triu(a, 1).T)  # symmetric
        else:
            grams.append(np.triu(a, 1) - np.triu(a, 1).T)  # skew
    masks = st.lists(st.booleans(), min_size=d, max_size=d)
    spaces = [[False] * d, [True] * d,
              *draw(st.lists(masks, min_size=1, max_size=3))]
    return grams, spaces, d, p


@settings(max_examples=60, deadline=None)
@given(grams_and_spaces(), st.sampled_from((1, 7, 10 ** 6)))
def test_classes_by_ranks_match_the_mask(case, cap):
    # the rank route against the row sums and diagonal of the whole mask
    # at every y, each subspace's columns picked out by the literal block
    grams, spaces, d, p = case
    V = fp.vectors_array(d, p).astype(np.int64)
    mask = forms.zero_cup_table(grams, V, V, p)
    members = [_block_members(S, V) for S in spaces]
    literal = _literal_classes(mask, members, p)
    pairs, triples = _literal_sums(literal, p)
    box = [0, 10 ** 9]
    with mock.patch.object(fp, "BLOCK_CELLS", cap):
        classes = scan._classes(d, p, grams, box, spaces)
        assert box[0] == len(grams) * p ** (2 * d)
        assert [{c for c in cs if c[2]} for cs in classes] == literal
        assert scan.count_pairs(d, p, grams, box) == pairs
        count, _, on = scan.count_triples(d, p, grams, box, spaces=spaces)
    assert [count, *on] == triples


def test_counts_build_no_mask_and_listings_one(monkeypatch):
    # a count reads ranks only; a listing walks once off its own tables and
    # builds no cup table, for a Gram model and an s3 model alike
    calls = []
    for module, name in ((forms, "zero_cup_table"), (scan, "_walk")):
        def spy(*args, _f=getattr(module, name), _name=name):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(module, name, spy)
    for model, p in ((GroupModel.demushkin(4, 3), 3),
                     (GroupModel.dd(2, 3, 2, 3), 3),
                     (preset_model("counterexample1"), 3),
                     (preset_model("borromean"), 2)):
        count = tmp_enumerate(model, p)[0]
        epi_count(model, p, method="tmp_sum")
        cp_count(model, p, "enumerate")
        assert calls == []
        assert len(tmp_enumerate(model, p, want_list=True)[1]) == count
        assert calls == ["_walk"], model.describe()
        calls.clear()


@st.composite
def line_cases(draw):
    """At p = 2, 3, 5, 7: random symmetric or skew Gram arrays or random
    triple tensors, and masks of the coordinates a block leaves free: none,
    all but the first, and a random one."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    tensors = draw(st.booleans())
    # the literal s3 loop is P^3 cells: p = 7 stays at d = 2 there, and
    # d = 3 is one fixed example
    top = {2: 4, 3: 3, 5: 3, 7: 2 if tensors else 3}[p]
    d = draw(st.integers(2 if tensors else 1, top))
    entries = st.integers(0, p - 1)

    def array(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(entries, min_size=size,
                                      max_size=size)),
                        dtype=np.int64).reshape(shape)

    forms = []
    for _ in range(draw(st.integers(1, 2))):
        if tensors:
            forms.append(array(d, d, d))
        elif draw(st.booleans()):
            a = array(d, d)
            forms.append(np.triu(a) + np.triu(a, 1).T)  # symmetric
        else:
            a = array(d, d)
            forms.append(np.triu(a, 1) - np.triu(a, 1).T)  # skew
    spaces = [[False] * d, [False] + [True] * (d - 1),
              draw(st.lists(st.booleans(), min_size=d, max_size=d))]
    return forms, tensors, spaces, d, p


def _literal_s3_count(tensors, d, p):
    """The s3 triple count, literally: for each nonzero x and each y
    outside span(x), the z outside span(x, y) on which every tensor
    vanishes."""
    V = fp.vectors_array(d, p).astype(np.int64)
    P = len(V)
    powers = p ** np.arange(d - 1, -1, -1)
    a, b = np.divmod(np.arange(p * p), p)
    count = 0
    for ix in range(1, P):
        x = V[ix]
        # zero[y, z]: sum x_a y_b z_c T[a, b, c] = 0 mod p for every T
        zero = np.ones((P, P), dtype=bool)
        for t in tensors:
            zero &= V @ np.einsum("a,abc->bc", x, t) @ V.T % p == 0
        # span(x, y) per y, as the indices of a x + b y
        span = (a[:, None, None] * x + b[:, None, None] * V) % p @ powers
        zero[np.broadcast_to(np.arange(P), span.shape), span] = False
        on_line = np.zeros(P, dtype=bool)  # the y of span(x)
        on_line[np.arange(p)[:, None] * x % p @ powers] = True
        zero[on_line] = False
        count += int(zero.sum())
    return count


def _seeded_s3_case(p, d, seed):
    rng = np.random.default_rng(seed)
    return ([rng.integers(0, p, (d, d, d)) for _ in range(2)], True,
            [[False] * d, [False] + [True] * (d - 1),
             rng.integers(0, 2, d).astype(bool).tolist()], d, p)


@settings(max_examples=40, deadline=None)
@given(line_cases())
@example(_seeded_s3_case(7, 3, 25))
def test_counts_over_lines_match_every_vector(case):
    # counts summed over one point per line against, for Gram arrays, the
    # module notes' sums over the literal mask at every y, each subspace's
    # N(W) beside them, and, for tensors, a literal loop
    forms, tensors, spaces, d, p = case
    P = p ** d
    V = fp.vectors_array(d, p)
    points = scan._points(d, p)
    assert len(points) == (P - 1) // (p - 1)
    assert not points.flags.writeable
    with pytest.raises(ValueError):
        points[0, 0] = 1
    # each point is nonzero with first nonzero coordinate 1, and their
    # nonzero multiples are every nonzero vector once: one per line
    lead = points[np.arange(len(points)), (points != 0).argmax(axis=1)]
    assert (lead == 1).all()
    multiples = [tuple(c * v % p) for v in points.astype(np.int64)
                 for c in range(1, p)]
    assert len(set(multiples)) == len(multiples) == P - 1
    box = [0, 10 ** 12]
    if tensors:
        count, _, on = scan.count_triples(d, p, [], box, forms)
        assert (count, on) == (_literal_s3_count(forms, d, p), [])
        return
    members = [_block_members(S, V) for S in spaces]
    mask = zero_cup_table(forms, V, V, p)
    rows = [mask.sum(axis=1), *(mask[:, w].sum(axis=1) for w in members)]
    diag = mask.diagonal()
    sums = []
    for row, on in zip(rows, [True, *members]):
        h = np.where(diag & on, p, 1)
        f = row - h
        f[0] = 0
        sums.append(int((f * (f - (p - 1) * h)).sum()))
        if on is True:
            pairs = int(f.sum())
    assert scan.count_pairs(d, p, forms, box) == pairs
    count, _, on = scan.count_triples(d, p, forms, box, spaces=spaces)
    assert [count, *on] == sums


def test_counts_rank_one_point_per_line(monkeypatch):
    # a count ranks the rows y G of one y per line through 0,
    # (P - 1) / (p - 1) of them, and an s3 count one pair per two points
    ranked = []

    def spy(a, p, _f=scan.rank_mod):
        ranked.append(np.shape(a))
        return _f(a, p)

    def rows_ranked(run, ndim=4):
        ranked.clear()
        run()
        return sum(int(np.prod(s[:ndim - 3])) for s in ranked
                   if len(s) == ndim)

    monkeypatch.setattr(scan, "rank_mod", spy)
    for model, p in ((GroupModel.demushkin(4, 3), 3),
                     (GroupModel.dd(2, 5, 2, 5), 5),
                     (GroupModel.demushkin(2, 7), 7),
                     (GroupModel.dd(2, 4, 2, 4), 2)):
        P = p ** model.rank
        lines = (P - 1) // (p - 1)
        for count_it in (lambda: tmp_enumerate(model, p),
                         lambda: epi_count(model, p, method="tmp_sum"),
                         lambda: cp_count(model, p, "enumerate")):
            assert rows_ranked(count_it) == lines, (model.describe(), p)
    for model, p in ((preset_model("counterexample1"), 3),
                     (preset_model("borromean"), 5)):
        lines = (p ** model.rank - 1) // (p - 1)
        assert rows_ranked(lambda: tmp_enumerate(model, p, budget=10 ** 12),
                           ndim=5) == lines ** 2


def test_cp_count_enumerate_matches_closed_on_a_grid():
    cells = [(preset_model("borromean"), p) for p in (2, 3)]
    for p, top in ((2, 10), (3, 6), (5, 4)):
        cells += [(GroupModel("demushkin", [f]), p)
                  for f in _demushkin_factors(p, top)]
        cells += [(GroupModel.free(d), p) for d in range(1, top + 1)]
    for model, p in cells:
        assert cp_count(model, p, "enumerate", budget=10 ** 12) == cp_count(
            model, p), (model.describe(), p)


# --- blocks of x: the cell cap changes nothing ----------------------------------


@st.composite
def block_models(draw):
    """free, demushkin, df, dd and s3-preset models with p^rank <= 729."""
    p = draw(st.sampled_from((2, 3, 5)))
    top = {2: 9, 3: 6, 5: 4}[p]
    dem = _demushkin_factors(p, top)
    kind = draw(st.sampled_from(("free", "demushkin", "df", "dd", "s3")))
    if kind == "s3":
        name = draw(st.sampled_from(("borromean", "counterexample1")))
        model = preset_model(name)
        assume(p ** model.rank <= 729)
        return model, p
    if kind == "free":
        return GroupModel.free(draw(st.integers(1, top))), p
    first = draw(st.sampled_from(dem))
    if kind == "demushkin":
        return GroupModel(kind, [first]), p
    room = top - first[1]
    assume(room >= 1)
    if kind == "df":
        e = draw(st.integers(1, room))
        return GroupModel(kind, [first, ("free", e, None, None)]), p
    second = draw(st.sampled_from([f for f in dem if f[1] <= room] or [None]))
    assume(second is not None)
    return GroupModel(kind, [first, second]), p


def _scan_outputs(model, p, listing):
    """Count, class counts and, when asked, the index listing."""
    count = tmp_enumerate(model, p, budget=10 ** 12)[0]
    classes = census._scan_classes(model, p, 10 ** 12)
    triples = None
    if listing:
        triples = tmp_enumerate(model, p, budget=10 ** 12,
                                want_list=True)[1].indices.tolist()
    return count, classes, triples


@settings(max_examples=30, deadline=None)
@given(block_models())
def test_scan_blocks_change_nothing(case):
    model, p = case
    P = p ** model.rank
    # a listing has up to P^3 triples, and a dense one-block scan holds
    # P^3 cells: both only at P <= 81
    listing = P <= 81
    if model.kind == "s3" and not listing:
        return
    outputs = [_scan_outputs(model, p, listing)]
    for cap in (1, P * P + 1):
        with mock.patch.object(fp, "BLOCK_CELLS", cap):
            outputs.append(_scan_outputs(model, p, listing))
    assert outputs[1:] == outputs[:1] * 2
    if P <= 27:  # one row per block against the literal loop
        naive = (_naive_s3_triples(model, p) if model.kind == "s3"
                 else _naive_gram_triples(model, p))
        with mock.patch.object(fp, "BLOCK_CELLS", 1):
            _check_against_naive(model, p, naive)
    assert outputs[0][0] == sum(outputs[0][1].values())
    if listing:
        assert len(outputs[0][2]) == outputs[0][0]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_gram_model_cases()), st.integers(1, 2 ** 13))
@example((preset_model("borromean"), 2), 1)
@example((preset_model("borromean"), 3), 97)
@example((preset_model("counterexample1"), 2), 2 ** 13)
def test_listing_matches_literal_loop_at_any_block_cap(case, cap):
    model, p = case
    naive = (_naive_s3_triples(model, p) if model.kind == "s3"
             else _naive_gram_triples(model, p))
    with mock.patch.object(fp, "BLOCK_CELLS", cap):
        listing = tmp_enumerate(model, p, budget=10 ** 12,
                                want_list=True)[1].indices
    assert listing.dtype == np.int32 and listing.shape == (len(naive), 3)
    V = [tuple(v) for v in fp.vectors_array(model.rank, p).tolist()]
    assert [tuple(V[i] for i in row) for row in listing.tolist()] == naive


def test_triple_listing_is_a_read_only_sequence():
    for model, p in ((preset_model("borromean"), 2), (GroupModel.free(3), 3)):
        count, triples = tmp_enumerate(model, p, want_list=True)
        listed = list(triples)
        assert isinstance(triples, collections.abc.Sequence)
        assert len(triples) == len(listed) == count
        assert [triples[i] for i in range(count)] == listed
        assert triples[-1] == listed[-1] and triples[-count] == listed[0]
        assert triples[:4] == listed[:4] and isinstance(triples[:4], list)
        assert triples[1::7] == listed[1::7]
        with pytest.raises(IndexError):
            triples[count]
        # one FpVector per index, shared by every triple
        vectors = [v for t in listed for v in t]
        assert len({id(v) for v in vectors}) == len(set(vectors))
        assert triples[0].x is listed[0].x
        # both of random.sample's branches: a copied pool (n <= 21) and
        # drawn indices
        for seed in range(5):
            for k in (1, 3, 6, 100):
                if k <= count:
                    assert (random.Random(seed).sample(triples, k)
                            == random.Random(seed).sample(listed, k))
        with pytest.raises(ValueError):
            triples.indices[0, 0] = 1


def test_listing_costs_its_index_array():
    # triples of 12 B each; the listing must not hold a python object per
    # triple (about 136 B each when it did), nor its blocks' pieces beside
    # their join (32 B each when it did, and about 24 B for an s3 listing)
    # dd(2,5,2,5) at p = 5 has the widest index tables, P = 625: none of
    # them, nor any P x P intermediate, may be wider than int32
    for model, p, size in ((GroupModel.demushkin(4, 3), 3, 34560),
                           (preset_model("counterexample1"), 3, 195264),
                           (GroupModel.dd(2, 5, 2, 5), 5, 576000)):
        tmp_enumerate(model, p)  # read the forms off the relators first
        tracemalloc.start()
        try:
            count, triples = tmp_enumerate(model, p, want_list=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == len(triples) == size
        assert peak < 2 * 12 * count, (model.describe(), peak)


def test_over_budget_scan_builds_no_block(monkeypatch):
    def no_blocks(*_args):
        raise AssertionError("a block was built")

    monkeypatch.setattr(scan, "_blocks", no_blocks)
    for model, p in ((GroupModel.demushkin(4, 3), 3), (GroupModel.free(4), 3),
                     (preset_model("counterexample1"), 3)):
        with pytest.raises(BudgetError):
            tmp_enumerate(model, p, budget=p ** (2 * model.rank) + 1)
        with pytest.raises(BudgetError):
            epi_count(model, p, method="tmp_sum", budget=10 ** 5)
    # an in-budget listing walks blocks; a count, classified or not, has
    # none on a Gram model
    with pytest.raises(AssertionError, match="a block was built"):
        tmp_enumerate(GroupModel.demushkin(4, 3), 3, want_list=True)
    for model, p in ((GroupModel.demushkin(4, 3), 3),
                     (GroupModel.dd(2, 3, 2, 3), 3),
                     (GroupModel.df(3, 2, 1), 2)):
        assert epi_count(model, p, method="tmp_sum").epi == epi_count(
            model, p).epi


def test_scan_memory_is_bounded():
    # the count and the class counts read the pair mask a block of rows at
    # a time: neither holds the P^2 bytes of the whole mask
    model, p = GroupModel.dd(2, 5, 2, 5), 5
    P = p ** model.rank
    outs = []
    for count_it in (lambda: tmp_enumerate(model, p)[0],
                     lambda: epi_count(model, p, method="tmp_sum")):
        tracemalloc.start()
        try:
            outs.append(count_it())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < P * P, peak
    count, report = outs
    assert count == report.tmp == tmp_closed(model, p)
    closed = census._closed_classes(model, p, 10 ** 8)
    assert {cls: n for cls, (n, _) in report.z1_breakdown.items()} == {
        cls: n for cls, n in closed.items() if n}


def test_counts_past_2_63_are_exact():
    # free(22) at p = 2: every pair admissible, so (P - 1)(P - 2)(P - 4)
    # triples, and with W the vectors of first coordinate 0 (Q = P / 2 of
    # them), N(W) = (Q - 1)((Q - 2)(Q - 4) + Q (Q - 2)): y in W or not.
    # W leaves every coordinate but the first free.  Without a Gram array
    # the classes of y are sized from P and |W|: no P-long array is built
    P = 2 ** 22
    Q = P // 2
    tracemalloc.start()
    try:
        count = tmp_enumerate(GroupModel.free(22), 2, budget=10 ** 20)[0]
        _, _, on = scan.count_triples(22, 2, [], [0, 10 ** 20],
                                      spaces=[[False] + [True] * 21])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == (P - 1) * (P - 2) * (P - 4) > 2 ** 63
    assert on == [(Q - 1) * ((Q - 2) * (Q - 4) + Q * (Q - 2))]
    assert on[0] > 2 ** 63
    assert peak < 2 ** 20, peak


def test_cup_pairing_walked_once_per_model_and_prime(monkeypatch):
    walks = []
    corners = forms._corners

    def counted(pres, p, n):
        walks.append((n, p))
        return corners(pres, p, n)

    monkeypatch.setattr(forms, "_corners", counted)
    census._model_forms.cache_clear()
    # equal models hash equal, so a rebuilt model reuses the walk
    for _ in range(2):
        model = GroupModel.dd(2, 3, 2, 3)
        assert hash(model) == hash(GroupModel.dd(2, 3, 2, 3))
        tmp_enumerate(model, 3)
        cp_count(model, 3, "enumerate")
    assert walks == [(3, 3)]
    tmp_enumerate(GroupModel.dd(2, 3, 2, 3), 3, budget=10 ** 9)
    epi_count(GroupModel.dd(2, 2, 2, 2), 2, method="tmp_sum")
    assert walks == [(3, 3), (3, 2)]
    # an s3 model walks in U_3, to check its pairing vanishes, then in U_4
    s3 = [GroupModel.s3(RamifiedRelatorData(3, {(1, 3, 2, 1): 1}))
          for _ in range(2)]
    assert s3[0] == s3[1] and hash(s3[0]) == hash(s3[1])
    for model in s3:
        tmp_enumerate(model, 3)
        epi_count(model, 3, method="tmp_sum")
    assert walks == [(3, 3), (3, 2), (3, 3), (4, 3)]


def test_z1_closed_values():
    assert z1_closed(GroupModel.demushkin(3, 2), 2, "noncentral") == 256
    assert z1_closed(GroupModel.demushkin(3, 2), 2, "central") == 512
    assert z1_closed(GroupModel.free(3), 2, "any") == 512
    assert z1_closed(GroupModel.demushkin(4, 4), 2, "noncentral") == 2048
    assert z1_closed(GroupModel.df(3, 2, 1), 2, "noncentral") == 2048
    assert z1_closed(preset_model("borromean"), 2, "any") == 512
    dd = GroupModel.dd(4, 4, 4, 4)
    assert z1_closed(dd, 2, ("central", "central")) == 2 ** 24
    assert z1_closed(dd, 2, "central+noncentral") == 2 ** 23
    assert z1_closed(dd, 2, "noncentral+noncentral") == 2 ** 22
    # rank 2 is inside the cocycle rule: demushkin_case sets the least rank
    assert z1_closed(GroupModel.demushkin(2, 4), 2, "noncentral") == 2 ** 5
    with pytest.raises(ValueError):
        z1_closed(GroupModel.demushkin(3, 2), 2, "sideways")


def test_epi_formula_values():
    assert epi_count(GroupModel.demushkin(3, 2), 2).epi == 6144
    assert epi_count(GroupModel.demushkin(4, 4), 2).epi == 360 * 2 ** 11
    assert epi_count(GroupModel.free(3), 2).epi == 86016
    assert epi_count(GroupModel.df(3, 2, 1), 2).epi == 1327104
    assert epi_count(GroupModel.dd(2, 4, 2, 4), 2).epi == 184320  # = oracle
    assert epi_count(preset_model("borromean"), 2).epi == 3072


def test_epi_tmp_sum_matches_formula():
    for model in (
        GroupModel.demushkin(3, 2),
        GroupModel.demushkin(4, 4),
        GroupModel.df(3, 2, 1),
        preset_model("borromean"),
        GroupModel.free(3),
    ):
        a = epi_count(model, 2, method="formula")
        b = epi_count(model, 2, method="tmp_sum")
        assert a.epi == b.epi, model.describe()
    # breakdown records the noncentral-only structure for one-relator models
    rep = epi_count(GroupModel.demushkin(3, 2), 2, method="tmp_sum")
    assert rep.z1_breakdown == {"noncentral": (24, 256)}


# dd and df cells at p = 2, 3, 5, rank-2 factors included
IDENTITY_CELLS = (
    (GroupModel.dd(4, 4, 4, 4), 2),
    (GroupModel.dd(2, 4, 2, 4), 2),
    (GroupModel.dd(2, 4, 4, 4), 2),
    (GroupModel.dd(4, 8, 4, 4), 2),
    (GroupModel.dd(6, 4, 2, 4), 2),
    (GroupModel.dd(2, 3, 2, 3), 3),
    (GroupModel.dd(2, 3, 4, 3), 3),
    (GroupModel.dd(2, 5, 2, 5), 5),
    (GroupModel.df(3, 2, 1), 2),
    (GroupModel.df(2, 4, 2), 2),
    (GroupModel.df(2, 2, 2), 2),
    (GroupModel.df(4, 4, 2), 2),
    (GroupModel.df(4, 3, 1), 3),
    (GroupModel.df(2, 5, 1), 5),
)


def test_closed_classes_match_scan_tally():
    for model, p in IDENTITY_CELLS:
        where = (model.describe(), p)
        tally = census._scan_classes(model, p, 10 ** 10)
        assert census._closed_classes(model, p, 10 ** 10) == tally, where
        formula = epi_count(model, p)
        assert formula.tmp == sum(tally.values()), where
        assert formula.epi == epi_count(model, p, method="tmp_sum",
                                        budget=10 ** 10).epi, where


def test_scan_classes_skip_spaces_with_no_free_coordinate(monkeypatch):
    # a space with no free coordinate is {0}, whose N(W) is 0 unscanned:
    # a dd model scans its two single-factor spaces and a demushkin model
    # none, while every class count stays the closed one
    seen, classes = [], scan._classes

    def spy(d, p, grams, box, spaces=()):
        seen.extend(list(S) for S in spaces)
        return classes(d, p, grams, box, spaces)

    monkeypatch.setattr(scan, "_classes", spy)
    cells = IDENTITY_CELLS + ((GroupModel.demushkin(4, 4), 2),
                              (GroupModel.demushkin(4, 3), 3),
                              (GroupModel.demushkin(3, 2), 2))
    for model, p in cells:
        where = (model.describe(), p)
        seen.clear()
        tally = census._scan_classes(model, p, 10 ** 10)
        assert tally == census._closed_classes(model, p, 10 ** 10), where
        assert len(seen) == (2 if model.kind == "dd" else
                             1 if model.kind == "df" else 0), where
        assert all(any(S) for S in seen), where
        seen.clear()
        report = epi_count(model, p, method="tmp_sum", budget=10 ** 10)
        assert all(any(S) for S in seen), where
        assert report.z1_breakdown == {
            key: (n, z1_closed(model, p, key)) for key, n in tally.items()
            if n}, where
    # the last cell, demushkin(3,2), still reports its central class as 0
    assert tally == {"central": 0, "noncentral": 24}


def test_rank2_lifts_equal_z1():
    """Every triple's oracle lift count is the cocycle count of its class:
    all triples at p = 2 on rank-2 cells, seeded samples per class beyond."""
    rng = random.Random(20140809)
    for model, p, per_class in (
        (GroupModel.dd(2, 4, 2, 4), 2, None),
        (GroupModel.df(2, 4, 1), 2, None),
        (GroupModel.df(2, 4, 2), 2, None),
        (GroupModel.df(2, 2, 1), 2, None),  # D3
        (GroupModel.df(2, 2, 2), 2, None),
        (GroupModel.dd(2, 4, 4, 4), 2, 6),
        (GroupModel.dd(2, 3, 2, 3), 3, 4),
        (GroupModel.df(2, 3, 1), 3, 8),
    ):
        pres = model_presentation(model, p)
        by_class = {}
        for t in tmp_enumerate(model, p, want_list=True)[1]:
            by_class.setdefault(_naive_class(model, t.x, t.z), []).append(t)
        for cls, triples in by_class.items():
            if per_class is not None and len(triples) > per_class:
                triples = rng.sample(triples, per_class)
            want = z1_closed(model, p, cls)
            lifts = {count_lifts_bruteforce(pres, p, t) for t in triples}
            assert lifts == {want}, (model.describe(), p, cls)


def test_epi_small_targets():
    assert epi_count(GroupModel.demushkin(3, 2), 2, target=2).epi == 7
    assert epi_count(GroupModel.demushkin(3, 2), 2, target=3).epi == 144
    assert epi_count(GroupModel.free(2), 3, target=3).epi == 48 * 9
    with pytest.raises(ValueError):
        epi_count(GroupModel.demushkin(3, 2), 2, target=5)
    # the oracle is no census method: count_epi_bruteforce is its own entry
    with pytest.raises(ValueError, match="unknown method 'oracle'"):
        epi_count(GroupModel.demushkin(3, 2), 2, target=2, method="oracle")


def test_cp_counts():
    assert cp_count(GroupModel.demushkin(3, 2), 2) == 18
    assert cp_count(GroupModel.demushkin(4, 4), 2) == 90
    assert cp_count(GroupModel.free(2), 3) == 48
    for model, p in (
        (GroupModel.demushkin(3, 2), 2),
        (GroupModel.demushkin(4, 4), 2),
        (GroupModel.demushkin(4, 2), 2),
        (GroupModel.demushkin(4, 3), 3),
        (GroupModel.free(3), 2),
        (preset_model("borromean"), 2),
    ):
        assert cp_count(model, p, "closed") == cp_count(model, p, "enumerate")
    # products only enumerate
    with pytest.raises(ValueError):
        cp_count(GroupModel.df(3, 2, 1), 2, "closed")
    assert cp_count(GroupModel.df(3, 2, 1), 2, "enumerate") > 0


def test_nu_values():
    assert nu_extensions(GroupModel.demushkin(3, 2), 2).nu == 16
    assert nu_extensions(GroupModel.demushkin(3, 2), 2, target=3).nu == 18
    assert nu_extensions(GroupModel.demushkin(3, 2), 2, target=2).nu == 7
    assert nu_extensions(GroupModel.demushkin(4, 4), 2).nu == 1920
    assert nu_extensions(preset_model("borromean"), 2).nu == 8
    assert nu_extensions(preset_model("ram01"), 2).nu == 224


def test_nu_local_closed_matches_census():
    cases = [
        (1, 2, 2),
        (2, 2, 2),
        (3, 2, 2),
        (2, 2, 4),
        (4, 2, 4),
        (2, 3, 3),
        (2, 5, 5),
    ]
    for degree, p, q in cases:
        model = local_field_model(degree, p, q)
        assert model.rank == degree + 2
        for target in (2, 3, 4):
            got = nu_extensions(model, p, target=target).nu
            assert got == nu_local_closed(degree, p, q, target), (degree, p, q, target)
    with pytest.raises(ValueError):
        local_field_model(1, 3, 3)  # odd rank with q != 2 has no model
    with pytest.raises(ValueError):
        local_field_model(1, 2, 4)


def test_un_quotient_decision():
    assert un_quotient_decision(GroupModel.demushkin(3, 2), 4) is True
    assert un_quotient_decision(GroupModel.demushkin(3, 2), 5) is False
    assert un_quotient_decision(GroupModel.free(1), 2) is True
    assert un_quotient_decision(GroupModel.df(3, 2, 2), 6) is True
    # rank 2 onto U_3: none from a D1 form (one hyperbolic plane), 8 from D3
    for model, p, epi in ((GroupModel.demushkin(2, 4), 2, 0),
                          (GroupModel.demushkin(2, 3), 3, 0),
                          (GroupModel.demushkin(2, "inf"), 3, 0),
                          (GroupModel.demushkin(2, 2, case="D3"), 2, 8)):
        assert count_epi_bruteforce(model_presentation(model, p), 3, p) == epi
        assert un_quotient_decision(model, 3) is (epi > 0), model
        assert un_quotient_decision(model, 2) is True
    with pytest.raises(ValueError):
        un_quotient_decision(preset_model("borromean"), 4)
    with pytest.raises(ValueError):
        un_quotient_decision(GroupModel.free(2), 1)


def test_model_presentation_shapes():
    pres = model_presentation(GroupModel.demushkin(3, 2), 2)
    assert pres.rank == 3 and len(pres.relators) == 1
    df = model_presentation(GroupModel.df(3, 2, 1), 2)
    assert df.rank == 4 and len(df.relators) == 1
    dd = model_presentation(GroupModel.dd(2, 4, 2, 4), 2)
    assert dd.rank == 4 and len(dd.relators) == 2
    # second factor's relator uses shifted generators
    assert dd.relators[1] == Prod(Pow(Gen(3), 4), Comm(Gen(3), Gen(4)))
    s3 = model_presentation(preset_model("borromean"), 2)
    assert s3.rank == 3 and len(s3.relators) == 2
    with pytest.raises(ValueError):
        model_presentation(GroupModel.demushkin(3, 2), 3)  # q = 2 needs p = 2


def test_report_json_and_csv():
    rep = nu_extensions(GroupModel.demushkin(3, 2), 2)
    d = rep.to_json_dict()
    assert d["epi"] == "6144" and d["nu"] == "16"
    assert isinstance(d["p"], int) and isinstance(d["target"], int)
    assert isinstance(d["ms"], int)
    assert d["method"] == "formula"
    parsed = json.loads(json.dumps(d))
    assert parsed["epi"] == "6144"

    rep2 = epi_count(GroupModel.demushkin(3, 2), 2, method="tmp_sum")
    d2 = rep2.to_json_dict()
    assert d2["z1"] == {"noncentral": {"triples": "24", "z1": "256"}}
    assert d2["tmp"] == "24"

    csv_text = reports_to_csv([rep])
    lines = csv_text.strip().split("\n")
    assert lines[0] == "model,p,target,tmp,epi,nu,method,ms"
    assert "6144" in lines[1] and "16" in lines[1]


def test_csv_reads_back_any_model_name():
    # an s3 name from a file may hold a comma, a quote and a newline; each
    # row still reads back field for field
    name = 'tri,"x"\n.json'
    model = GroupModel.s3(preset_tensor("borromean"), name=name)
    reports = [nu_extensions(model, 2), epi_count(model, 2, target=2)]
    rows = list(csv.reader(io.StringIO(reports_to_csv(reports))))
    assert rows[0] == ["model", "p", "target", "tmp", "epi", "nu", "method",
                       "ms"]
    assert [row[0] for row in rows[1:]] == [f"s3({name})"] * 2
    for rep, row in zip(reports, rows[1:]):
        assert row[1:] == [str(rep.p), str(rep.target),
                           "" if rep.tmp is None else str(rep.tmp),
                           str(rep.epi), "" if rep.nu is None else str(rep.nu),
                           rep.method, str(rep.ms)]


def test_internal_consistency_guard():
    # a deliberately wrong divisor cannot occur through the public API, so
    # check the guard by looking at a model whose counts are known exact
    rep = nu_extensions(GroupModel.demushkin(4, 4), 2)
    assert rep.epi == rep.nu * 384
