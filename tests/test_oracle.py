"""Brute-force oracle tests: frozen counts, cross-checks against dense
integer matrices, and the defining-system search."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from massey_census import fp, oracle, unipotent
from massey_census.census import (
    GroupModel,
    epi_count,
    model_presentation,
    tmp_enumerate,
)
from massey_census.fp import (
    BudgetError,
    FpVector,
    vector_from_index,
    vectors_array,
)
from massey_census.forms import cup_chain, cup_grams, zero_cup_table
from massey_census.oracle import (
    count_epi_bruteforce,
    count_lifts_bruteforce,
    cup_defining_check,
    massey_system_exists,
)
from massey_census.unipotent import (
    P_INFINITY,
    mul_recipe,
    pair_index,
    triangle_pairs,
    walk_inv,
    walk_mul,
    walk_pow,
    walk_word,
)
from massey_census.words import (
    Comm,
    Gen,
    Pow,
    Presentation,
    Prod,
    RamifiedRelatorData,
    demushkin_presentation,
    exponent_sums,
    free_presentation,
    preset,
    ramified_presentation,
)


def test_epi_presets_frozen():
    assert count_epi_bruteforce(preset("borromean"), 4, 2) == 3072
    assert count_epi_bruteforce(preset("ram01"), 4, 2) == 86016


def test_epi_demushkin_f_independent():
    for f in (2, "inf"):
        pres = demushkin_presentation(3, 2, 2, "D2", f=f)
        assert count_epi_bruteforce(pres, 4, 2) == 6144


def test_epi_small_target():
    pres = demushkin_presentation(3, 2, 2, "D2", f="inf")
    assert count_epi_bruteforce(pres, 3, 2) == 144


def _record_plans(monkeypatch):
    """With two cpus, record how many ranges each oracle call plans."""
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
    plans, plan = [], oracle._plan_ranges

    def spy(*args):
        ranges = plan(*args)
        plans.append(len(ranges))
        return ranges

    monkeypatch.setattr(oracle, "_plan_ranges", spy)
    return plans


def test_epi_threads_and_chunks_deterministic(monkeypatch):
    # p = 2 is bit-sliced: blocks run from one lane of a partial word
    # (chunk 1) to the whole space (CHUNK); two threads split a space of more
    # than two blocks at a block boundary, and at least one chunk per case
    # must leave the reduced space enough blocks to split
    plans = _record_plans(monkeypatch)
    cases = (
        (demushkin_presentation(3, 2, 2, "D2", f="inf"), 3, 144,
         (1, 16, 64, 2 ** 14)),
        (demushkin_presentation(3, 2, 2, "D2", f="inf"), 4, 6144,
         (64, 2 ** 10, 2 ** 14, oracle.CHUNK)),
        (preset("ram01"), 4, 86016, (64, 2 ** 14, oracle.CHUNK)),
    )
    for pres, n, want, chunks in cases:
        plans.clear()
        for chunk in chunks:
            for threads in (1, 2):
                assert count_epi_bruteforce(pres, n, 2, threads=threads,
                                            chunk=chunk) == want
        assert max(plans) >= 2, (pres, n)


def test_epi_odd_p_chunks_and_threads_deterministic(monkeypatch):
    # chunks that are not powers of p: a block is the largest power of p at
    # most the chunk, and two workers split the space at a block boundary
    plans = _record_plans(monkeypatch)
    for pres, n, p, want in (
        (demushkin_presentation(4, 3, 3, "D1"), 3, 3, 155520),
        (free_presentation(3), 3, 5, 1860000),  # (5^3-1)(5^3-5) 5^3
    ):
        plans.clear()
        for chunk in (1000, p ** 7, oracle.CHUNK):
            for threads in (1, 2):
                assert count_epi_bruteforce(pres, n, p, threads=threads,
                                            chunk=chunk) == want
        assert max(plans) >= 2, (pres, n, p)
    # chunks below p: one-assignment blocks, every digit a python int
    plans.clear()
    for chunk in (1, 2):
        for threads in (1, 2):
            assert count_epi_bruteforce(free_presentation(2), 3, 3,
                                        threads=threads, chunk=chunk) == 432
    assert max(plans) >= 2


def test_rank5_free_onto_u4_f2_needs_extended_budget():
    # 2^30 assignments: the default budget refuses before any work, the
    # extended one reaches (2^5 - 1)(2^5 - 2)(2^5 - 4) 2^15
    pres = free_presentation(5)
    with pytest.raises(BudgetError, match=str(2 ** 30)):
        count_epi_bruteforce(pres, 4, 2)
    assert count_epi_bruteforce(
        pres, 4, 2, budget=oracle.ORACLE_BUDGET_EXTENDED
    ) == 31 * 30 * 28 * 2 ** 15


def test_massey_exists_f2_within_one_word():
    # a triple product on a rank-2 one-relator group: two free entries per
    # generator, 16 lanes of one word; the verdicts are frozen from the
    # int16 oracle
    pres = Presentation(2, [Comm(Gen(1), Gen(2))])
    vectors = ((1, 0), (0, 1), (1, 1))
    found = set()
    for chars in itertools.product(vectors, repeat=3):
        if massey_system_exists(pres, [FpVector(c, 2) for c in chars], 2):
            found.add(chars)
    assert found == {(v, v, v) for v in vectors}


def test_int16_overflow_refused(monkeypatch):
    # U_n(F_p) products reach 2(p-1) + (n-2)(p-1)^2 before reduction
    monkeypatch.setattr(fp, "MAX_PRIME", 131)
    one = free_presentation(1)
    with pytest.raises(ValueError, match=r"34060 .*2\^15"):
        count_lifts_bruteforce(one, 131, (FpVector((1,), 131),) * 3,
                               budget=1)
    with pytest.raises(ValueError, match=r"40200 .*2\^15"):
        count_epi_bruteforce(one, 6, 101, budget=1)
    # 2*126 + 2*126^2 = 32004 fits: the budget decides
    with pytest.raises(BudgetError):
        count_lifts_bruteforce(one, 127, (FpVector((1,), 127),) * 3,
                               budget=1)


def test_plan_ranges_caps_workers(monkeypatch):
    # inspected, not forked: the plan is the worker count

    def no_cpu_count():
        raise AssertionError("a single-threaded plan reads no cpu count")

    monkeypatch.setattr(oracle.os, "cpu_count", no_cpu_count)
    for threads in (1, 0, -3):
        assert oracle._plan_ranges(2 ** 24, 2 ** 10, threads) == [(0, 2 ** 24)]
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
    chunk = 2 ** 10
    for space, threads, workers in (
        (2 ** 24, 8, 2),        # capped by the cpu count
        (2 ** 24, 1, 1),
        (3 * chunk, 8, 2),      # capped by the cpu count, not the 3 chunks
        (2 * chunk, 8, 1),      # two chunks or fewer stay in one range
        (5 * chunk + 7, 2, 2),
    ):
        ranges = oracle._plan_ranges(space, chunk, threads)
        assert len(ranges) == workers
        assert ranges[0][0] == 0 and ranges[-1][1] == space
        assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))
        assert all(lo % chunk == 0 for lo, _ in ranges)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
    assert len(oracle._plan_ranges(3 * chunk, chunk, 8)) == 3  # chunk count
    assert len(oracle._plan_ranges(2 ** 24, chunk, 8)) == 8
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
    assert oracle._plan_ranges(2 ** 24, chunk, 8) == [(0, 2 ** 24)]


def test_epi_size_limits():
    for n in (2, 7):
        with pytest.raises(ValueError, match="outside supported range"):
            count_epi_bruteforce(free_presentation(1), n, 2)
    assert count_epi_bruteforce(free_presentation(1), 6, 2) == 0


def test_epi_budget_error_names_space():
    pres = free_presentation(3)
    with pytest.raises(BudgetError) as err:
        count_epi_bruteforce(pres, 4, 3)
    assert str(3 ** 18) in str(err.value)


def test_epi_profile_memo_fallback(monkeypatch):
    monkeypatch.setattr(oracle, "_PROFILE_TABLE_LIMIT", 1)
    oracle._surjective_table.cache_clear()
    try:
        pres = demushkin_presentation(3, 2, 2, "D2", f="inf")
        assert count_epi_bruteforce(pres, 4, 2) == 6144
    finally:
        oracle._surjective_table.cache_clear()


def test_epi_profile_fallback_odd_p(monkeypatch):
    # above the table limit each block rank-tests its distinct profiles
    monkeypatch.setattr(oracle, "_PROFILE_TABLE_LIMIT", 1)
    oracle._surjective_table.cache_clear()
    try:
        # (3^3-1)(3^3-3) 3^3
        assert count_epi_bruteforce(free_presentation(3), 3, 3) == 16848
        pres = demushkin_presentation(4, 3, 3, "D1")
        assert count_epi_bruteforce(pres, 3, 3) == 155520
        # two relators: the surjectivity stage runs first and its survivors
        # feed the relators, so each verdict must land on its own assignment
        pres = model_presentation(GroupModel.dd(2, 3, 2, 3), 3)
        assert count_epi_bruteforce(pres, 3, 3) == 62208  # cp_count * 3^4
    finally:
        oracle._surjective_table.cache_clear()


def test_surjective_table_counts_full_rank_profiles():
    # a profile passes exactly when its (n-1) x rank matrix has full row
    # rank, and prod_{i < n-1} (p^rank - p^i) of them do
    for p in (2, 3, 5, 7):
        for n in (3, 4, 5):
            rank = 1
            while p ** ((n - 1) * rank) <= 400_000:
                table = oracle._surjective_table(n, p, rank)
                assert table.dtype == bool
                assert len(table) == p ** ((n - 1) * rank)
                want = math.prod(p ** rank - p ** i for i in range(n - 1))
                assert table.sum() == want
                assert (want == 0) == (rank < n - 1)
                rank += 1
    assert oracle._surjective_table(3, 7, 3).sum() == 114912
    assert oracle._surjective_table(3, 5, 4).sum() == 386880


def test_surjective_table_built_one_slice_at_a_time():
    # the whole (profiles, n-1, rank) int16 stack for 3^12 profiles is
    # 12.75 MB; decoding one rank slice at a time must stay below it
    oracle._surjective_table.cache_clear()
    stack = 3 ** 12 * 2 * 6 * np.dtype(np.int16).itemsize
    tracemalloc.start()
    try:
        table = oracle._surjective_table(3, 3, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        oracle._surjective_table.cache_clear()
    assert peak < stack
    assert table.sum() == (3 ** 6 - 1) * (3 ** 6 - 3)
    # verdicts straddling slice boundaries match the literal digits' rank
    profiles = np.arange(3 * fp._RANK_SLICE - 5, 3 * fp._RANK_SLICE + 5)
    digits = [[[int(q) // 3 ** (11 - g * 2 - s) % 3 for g in range(6)]
               for s in range(2)] for q in profiles]
    assert table[profiles].tolist() == (fp.rank_mod(digits, 3) == 2).tolist()


def test_cached_planes_are_read_only_and_shared():
    # built once per (p, k) per process and handed to every block, so an
    # in-place write must raise rather than corrupt the cache
    for p, k in ((3, 4), (5, 3), (7, 2), (2, 9)):
        planes = oracle._digit_planes(p, k)
        assert oracle._digit_planes(p, k) is planes
        assert [plane.dtype for plane in planes] == [np.int16] * k
        for plane in planes:
            assert not plane.flags.writeable
            with pytest.raises(ValueError):
                plane += 1
    for k in (3, 6, 9):
        planes = oracle._lane_planes(k)
        assert oracle._lane_planes(k) is planes
        words = [plane for plane in planes if isinstance(plane, np.ndarray)]
        assert len(words) == max(k - 6, 0)
        for plane in words:
            assert plane.dtype == np.uint64 and not plane.flags.writeable
            with pytest.raises(ValueError):
                plane[0] = 0
    for p, k in ((3, 4), (2, 3), (2, 9)):
        alive = oracle._all_alive(p, k)
        assert oracle._all_alive(p, k) is alive and not alive.flags.writeable
    weights = oracle._profile_weights(4, 3, 2)
    assert oracle._profile_weights(4, 3, 2) is weights
    assert weights.dtype == np.int64 and not weights.flags.writeable
    table = oracle._surjective_table(4, 3, 2)
    assert oracle._surjective_table(4, 3, 2) is table
    assert not table.flags.writeable
    # a block's verdicts: the table tiled once per block size (packed into
    # lanes at p = 2, one word under 64 lanes), or a view of the table
    for n, p, rank, k, length in ((4, 3, 2, 8, 3 ** 8), (3, 5, 1, 4, 5 ** 4),
                                  (4, 2, 2, 9, 2 ** 3), (4, 2, 3, 12, 2 ** 6)):
        tile = oracle._surjective_verdicts(n, p, rank, k, 0)
        assert oracle._surjective_tile(n, p, rank, k) is tile
        assert oracle._surjective_verdicts(n, p, rank, k, p ** k) is tile
        assert tile.dtype == (np.uint64 if p == 2 else bool)
        assert len(tile) == length and not tile.flags.writeable
        with pytest.raises(ValueError):
            tile[0] = 0
    word = oracle._surjective_tile(3, 2, 2, 5)
    assert word.dtype == np.uint64 and len(word) == 1
    assert not word.flags.writeable
    view = oracle._surjective_verdicts(4, 3, 2, 4, 3 ** 5)
    assert view.base is table and not view.flags.writeable


def test_warm_epi_block_allocates_no_profile():
    # surjectivity is read off cached verdicts: a warm call must not build
    # a per-block profile, which at 3^10 assignments is 4 * 3^10 bytes in
    # int32 (rank 2 cannot generate U_4, so nothing else runs)
    pres = free_presentation(2)
    assert count_epi_bruteforce(pres, 4, 3) == 0
    tracemalloc.start()
    try:
        assert count_epi_bruteforce(pres, 4, 3) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 3 ** 10


def test_lifts_constant_on_triples():
    pres = demushkin_presentation(3, 2, 2, "D2", f="inf")
    _, triples = tmp_enumerate(GroupModel.demushkin(3, 2), 2, want_list=True)
    counts = {count_lifts_bruteforce(pres, 2, t) for t in triples}
    assert counts == {256}


def test_lifts_free_and_sum_identity():
    free3 = free_presentation(3)
    _, triples = tmp_enumerate(GroupModel.free(3), 2, want_list=True)
    assert count_lifts_bruteforce(free3, 2, triples[0]) == 512

    pres = demushkin_presentation(3, 2, 2, "D2", f="inf")
    _, tmp_triples = tmp_enumerate(GroupModel.demushkin(3, 2), 2, want_list=True)
    total = sum(count_lifts_bruteforce(pres, 2, t) for t in tmp_triples)
    assert total == count_epi_bruteforce(pres, 4, 2) == 6144


def test_lifts_zero_off_condition():
    pres = demushkin_presentation(3, 2, 2, "D2", f="inf")
    e1 = FpVector((1, 0, 0), 2)
    e2 = FpVector((0, 1, 0), 2)
    e3 = FpVector((0, 0, 1), 2)
    # independent, but e2 pairs with e3 under the relator form
    assert count_lifts_bruteforce(pres, 2, (e1, e2, e3)) == 0


def test_lifts_validation():
    pres = demushkin_presentation(3, 2, 2, "D2", f="inf")
    good = (FpVector((1, 0, 0), 2),) * 3
    with pytest.raises(ValueError):
        count_lifts_bruteforce(pres, 2, (FpVector((1, 0), 2),) * 3)
    with pytest.raises(ValueError, match="same modulus"):
        count_lifts_bruteforce(pres, 3, good)
    for count in (2, 4):
        with pytest.raises(ValueError, match=f"three .* got {count}"):
            count_lifts_bruteforce(pres, 2, good[:1] * count)
    with pytest.raises(BudgetError):
        count_lifts_bruteforce(pres, 2, good, budget=1)


def test_massey_counterexample_false():
    pres = preset("counterexample1")
    chars = [vector_from_index(2 ** (3 - i), 4, 2) for i in range(4)]
    assert [tuple(map(int, c)) for c in chars] == [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    ]
    assert massey_system_exists(pres, chars, 2, budget=2 ** 20) is False


def test_massey_free_always_true():
    chars = [FpVector((1, 1, 0), 3), FpVector((0, 2, 1), 3),
             FpVector((1, 0, 1), 3)]
    assert massey_system_exists(free_presentation(3), chars, 3) is True


@pytest.mark.parametrize("model, p, k", [
    (GroupModel.demushkin(4, 4), 2, 4),
    (GroupModel.dd(2, 4, 2, 4), 2, 4),
    (GroupModel.dd(2, 3, 2, 3), 3, 3),
], ids=["demushkin(4,4)-p2-k4", "dd(2,4,2,4)-p2-k4", "dd(2,3,2,3)-p3-k3"])
def test_massey_cup_chain_witness(model, p, k):
    # the first cup chain is a defining-system witness, free products too
    pres = model_presentation(model, p)
    chain = cup_chain(cup_grams(pres, p), model.rank, p, k)
    chars = [FpVector(row, p) for row in chain]
    assert massey_system_exists(pres, chars, p) is True


def test_massey_validation():
    pres = preset("counterexample1")
    c = FpVector((1, 0, 0, 0), 2)
    with pytest.raises(ValueError):
        massey_system_exists(pres, [c] * 6, 2)  # target size 7 unsupported
    with pytest.raises(ValueError):
        massey_system_exists(pres, [c], 2)
    with pytest.raises(ValueError):
        massey_system_exists(pres, [FpVector((1, 0), 2)] * 3, 2)
    with pytest.raises(ValueError, match="same modulus"):
        massey_system_exists(pres, [FpVector((1, 0, 0, 0), 3)] * 3, 2)
    with pytest.raises(BudgetError):
        massey_system_exists(pres, [c] * 4, 2, budget=2 ** 10)


def test_cup_defining_demushkin_exhaustive_empty():
    pres = demushkin_presentation(3, 2, 2, "D2", f="inf")
    report = cup_defining_check(pres, 2, 3)
    assert report == {"checked": 176, "failures": []}


def test_cup_defining_double_product_per_factor():
    # a free product's cup product vanishes only when every factor's does;
    # two commutator relators read off the same pairing as dd(2,4,2,4)
    for pres in (model_presentation(GroupModel.dd(2, 4, 2, 4), 2),
                 Presentation(4, [Comm(Gen(1), Gen(2)),
                                  Comm(Gen(3), Gen(4))])):
        report = cup_defining_check(pres, 2, 3)
        assert report == {"checked": 784, "failures": []}


def test_cup_defining_refuses_nonzero_exponent_sum():
    pres = Presentation(2, [Prod(Pow(Gen(1), 2), Comm(Gen(1), Gen(2)))])
    assert cup_defining_check(pres, 2, 2)["failures"] == []
    with pytest.raises(ValueError, match="exponent sum"):
        cup_defining_check(pres, 3, 2)


def test_cup_defining_budget_error():
    pres = preset("counterexample1")
    with pytest.raises(BudgetError):
        cup_defining_check(pres, 2, 4, budget=2 ** 20)  # 2^16 tuples qualify


def test_batch_matches_scalar_arithmetic():
    rng = np.random.default_rng(20260818)
    n, p = 4, 3
    words = [
        Comm(Gen(1), Gen(2)),
        Prod(Pow(Gen(1), 5), Comm(Gen(2), Gen(1)), Gen(2)),
        Pow(Comm(Gen(1), Gen(2)), -3),
        Prod(Comm(Comm(Gen(1), Gen(2)), Gen(1)), Pow(Gen(2), 9)),
    ]
    size = 64
    entries = rng.integers(p, size=(2, 6, size), dtype=np.int16)
    for w in words:
        batch = walk_word(w, list(entries), mul_recipe(n),
                          unipotent.fp_ring(p))
        for s in range(size):
            mats = [_dense(e[:, s], n, False) for e in entries]
            want = _dense_word(w, mats, p)
            got = [int(np.broadcast_to(e, (size,))[s]) for e in batch]
            assert got == [want[i - 1, j - 1]
                           for i, j in triangle_pairs(n)], (w, s)


def test_random_tensor_census_matches_oracle():
    rng = np.random.default_rng(42)
    n = 3
    triples = [(i, j, k) for i in range(1, 4) for j in range(i + 1, 4)
               for k in range(1, j + 1)]
    for _ in range(3):
        entries = {}
        for m in (1, 2):
            for t in triples:
                if rng.integers(2):
                    entries[t + (m,)] = 1
        if not entries:
            entries[(1, 2, 1, 1)] = 1
        data = RamifiedRelatorData(n, entries)
        model = GroupModel.s3(data)
        pres = ramified_presentation(data, 2)
        formula = epi_count(model, 2, method="formula").epi
        brute = count_epi_bruteforce(pres, 4, 2)
        assert formula == brute


def test_redei_three_relator_tensor_matches_preset_count():
    # the arithmetic table carries a third, redundant relator; the count is
    # unchanged from the two-relator preset
    entries = {
        (2, 3, 1, 1): 1,
        (1, 3, 2, 2): 1,
        (1, 3, 2, 3): 1,
        (2, 3, 1, 3): 1,
    }
    pres = ramified_presentation(RamifiedRelatorData(3, entries), 2)
    assert count_epi_bruteforce(pres, 4, 2) == 3072


def test_progress_reporting(capsys):
    pres = demushkin_presentation(3, 2, 2, "D2", f="inf")
    count = count_epi_bruteforce(pres, 3, 2, progress=True)
    assert count == 144
    assert "epi" in capsys.readouterr().err
    # one report per block of 2^11 enumerated assignments, each counted as
    # the 2^3 nominal ones of its central cosets, ending on the whole
    # nominal space and a newline
    assert count_epi_bruteforce(pres, 4, 2, progress=True,
                                chunk=2 ** 11) == 6144
    reports = capsys.readouterr().err.split("\r")[1:]
    assert [r.split()[1] for r in reports] == [
        f"{done}/{2 ** 18}" for done in range(2 ** 14, 2 ** 18 + 1, 2 ** 14)
    ]
    assert reports[-1].endswith("\n")


def test_central_pins_rule():
    # the free central entries are pinned only when every exponent sum of
    # every relator vanishes mod p
    pins = oracle._central_pins
    u4 = triangle_pairs(4)
    for q in (4, "inf"):  # x1^q [x1, x2]: 2 | 4, and p-infinity counts 0
        pres = demushkin_presentation(2, 2, q, "D1")
        assert pins(pres, 4, 2, False, u4) == [(1, 4)]
    cubed = Presentation(2, [Prod(Pow(Gen(1), 3), Comm(Gen(1), Gen(2)))])
    assert pins(cubed, 4, 2, False, u4) == []
    assert pins(cubed, 4, 3, False, u4) == [(1, 4)]
    free = free_presentation(2)
    assert pins(free, 5, 2, False, triangle_pairs(5)) == [(1, 5)]
    # the corner-dropped groups: band n-2, which for U_3-bar is the
    # superdiagonal that surjectivity reads, so nothing is pinned there
    assert pins(free, 4, 2, True, triangle_pairs(4, True)) == [(1, 3), (2, 4)]
    assert pins(free, 3, 2, True, triangle_pairs(3, True)) == []
    # entries already fixed stay as they are
    assert pins(free, 4, 2, False, u4[:-1]) == []


# --- differential checks against a literal loop over assignments -------------


def _literal_count(pres, n, p, fixed=(), surjective=False, central=False):
    """Count assignments of U_n(F_p) images, entries in `fixed` prescribed
    and the rest free, by multiplying every relator out in dense matrices.
    A relator passes when it is the identity or, with `central`, a matrix
    whose only nonzero entry off the diagonal is the corner (a relation of
    the corner-dropped group; the generators' corners are fixed at 0)."""
    fixed = dict(fixed)
    if central:
        fixed[(1, n)] = [0] * pres.rank
    pairs = triangle_pairs(n)
    free = [pq for pq in pairs if pq not in fixed]
    ignored = np.eye(n, dtype=bool)
    ignored[0, n - 1] = central
    count = 0
    for digits in itertools.product(range(p), repeat=len(free) * pres.rank):
        images = []
        for g in range(pres.rank):
            entries = dict(zip(free, digits[g * len(free):]))
            entries.update((pq, v[g]) for pq, v in fixed.items())
            images.append(_dense([entries[pq] for pq in pairs], n, False))
        if surjective and fp.rank_mod(
            [[m[s, s + 1] for m in images] for s in range(n - 1)], p
        ) < n - 1:
            continue
        if not any(_dense_word(r, images, p)[~ignored].any()
                   for r in pres.relators):
            count += 1
    return count


def small_words(rank):
    """Words of at most five leaves in x_1 .. x_rank: q-powers with and
    without p | q, p-infinity powers, commutators."""
    exponent = st.one_of(st.integers(-3, 4), st.just(P_INFINITY))
    return st.recursive(
        st.integers(1, rank).map(Gen),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3).map(Prod),
            st.builds(Pow, inner, exponent),
            st.builds(Comm, inner, inner),
        ),
        max_leaves=5,
    )


@st.composite
def small_presentations(draw, rank):
    """Rank-`rank` presentations with 0-2 relators of `small_words`."""
    return Presentation(rank, draw(st.lists(small_words(rank), max_size=2)))


def _characters(draw, count, rank, p):
    return [FpVector(tuple(draw(st.lists(st.integers(0, p - 1),
                                          min_size=rank, max_size=rank))), p)
            for _ in range(count)]


# (n, p, rank) with at most 2^12 assignments for the literal loop
_EPI_SPACES = ((3, 2, 2), (3, 2, 3), (3, 3, 2), (4, 2, 1), (4, 2, 2),
               (4, 3, 1))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_epi_matches_literal_loop(data):
    n, p, rank = data.draw(st.sampled_from(_EPI_SPACES))
    pres = data.draw(small_presentations(rank))
    assert count_epi_bruteforce(pres, n, p) == _literal_count(
        pres, n, p, surjective=True)


# (n, p, rank) small enough for blocks of p assignments
_INVARIANCE_SPACES = ((3, 2, 1), (3, 2, 2), (3, 2, 3), (4, 2, 1), (4, 2, 2),
                      (3, 3, 1), (3, 3, 2), (4, 3, 1))


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_epi_invariant_under_chunks_and_threads(data):
    # the same count at chunk p, p^3 and CHUNK, and from two workers at a
    # chunk that leaves p^2 blocks of the enumerated space to split
    n, p, rank = data.draw(st.sampled_from(_INVARIANCE_SPACES))
    pres = data.draw(small_presentations(rank))
    counts = {count_epi_bruteforce(pres, n, p, chunk=chunk)
              for chunk in (p, p ** 3, oracle.CHUNK)}
    pairs = triangle_pairs(n)
    pins = oracle._central_pins(pres, n, p, False, pairs)
    chunk = p ** ((len(pairs) - len(pins)) * rank - 2)
    with pytest.MonkeyPatch.context() as mp:
        plans = _record_plans(mp)
        counts.add(count_epi_bruteforce(pres, n, p, threads=2, chunk=chunk))
    assert plans == [2]
    assert len(counts) == 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lifts_match_literal_loop(data):
    p, rank = data.draw(st.sampled_from(((2, 1), (2, 2), (2, 3), (3, 1),
                                         (3, 2))))
    pres = data.draw(small_presentations(rank))
    sup = _characters(data.draw, 3, rank, p)
    fixed = {(s, s + 1): [int(v[g]) for g in range(rank)]
             for s, v in enumerate(sup, 1)}
    assert count_lifts_bruteforce(pres, p, sup) == _literal_count(
        pres, 4, p, fixed)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_massey_exists_matches_literal_loop(data):
    k, p, rank = data.draw(st.sampled_from(
        ((3, 2, 2), (3, 2, 3), (3, 3, 2), (4, 2, 1), (4, 2, 2), (4, 3, 1))))
    pres = data.draw(small_presentations(rank))
    chars = _characters(data.draw, k, rank, p)
    fixed = {(i, i + 1): [-int(v[g]) % p for g in range(rank)]
             for i, v in enumerate(chars, 1)}
    assert massey_system_exists(pres, chars, p) == (
        _literal_count(pres, k + 1, p, fixed, central=True) > 0)


_P_INFINITY_WORD = Pow(Gen(1), P_INFINITY)  # walks to python int entries


@pytest.mark.parametrize("relators", [
    lambda rank: [_P_INFINITY_WORD],
    # the last generator's exponent sum keeps the central entries free
    lambda rank: [_P_INFINITY_WORD, Prod([Gen(rank), Comm(Gen(1), Gen(2))])],
    lambda rank: [Gen(1), Comm(Gen(1), Gen(2))],
], ids=["p-infinity", "p-infinity-first", "first-passes-none"])
@pytest.mark.parametrize("p, rank, chunk", [
    (2, 3, 2 ** 4), (2, 3, 2 ** 9), (3, 2, 3 ** 3),
], ids=["p2-16-lanes", "p2-8-words", "p3"])
def test_stage_loop_edge_cases(monkeypatch, p, rank, chunk, relators):
    # the three searches at blocks of at most `chunk` assignments, against
    # the literal loop; a relator after one that no assignment passes is
    # never walked
    block_exponent = oracle._block_exponent
    monkeypatch.setattr(oracle, "_block_exponent",
                        lambda p, _, digits: block_exponent(p, chunk, digits))
    walked, walk = [], oracle.walk_word

    def spy(word, *args):
        walked.append(word)
        return walk(word, *args)

    monkeypatch.setattr(oracle, "walk_word", spy)
    relators = relators(rank)
    pres = Presentation(rank, relators)
    # the last generator's superdiagonal is 0, so Gen(rank) [x1, x2] can
    # hold; the first generator's (1,2) entry is 1, so Gen(1) cannot
    basis = [tuple(int(g == i) for g in range(rank)) for i in range(rank)]
    chars = [FpVector(basis[i % (rank - 1)], p) for i in range(3)]
    fixed = {(s, s + 1): [int(v[g]) for g in range(rank)]
             for s, v in enumerate(chars, 1)}
    negated = {pq: [-e % p for e in values] for pq, values in fixed.items()}
    searches = (
        (lambda: count_epi_bruteforce(pres, 3, p),
         dict(n=3, surjective=True)),
        (lambda: count_lifts_bruteforce(pres, p, chars),
         dict(n=4, fixed=fixed)),
        (lambda: massey_system_exists(pres, chars, p),
         dict(n=4, fixed=negated, central=True)),
    )
    for search, literal in searches:
        walked.clear()
        got = search()
        want = _literal_count(pres, p=p, **literal)
        assert got == (want > 0 if isinstance(got, bool) else want)
        first = Presentation(rank, relators[:1])
        if _literal_count(first, p=p, **literal) == 0:
            assert all(word is relators[0] for word in walked)


@st.composite
def cup_presentations(draw, rank, p):
    """Rank-`rank` presentations with 1-2 relators whose exponent sums all
    vanish mod p.  A relator is a product of commutators, p-th powers and
    p-infinity powers, and of `small_words` with vanishing sums; it leads
    with a commutator of two distinct generators (a square at rank 1), so
    that most draws pair some characters nontrivially."""
    word = small_words(rank)
    letter = st.one_of(st.integers(1, rank).map(Gen), word)
    part = st.one_of(
        st.builds(Comm, letter, letter),
        st.builds(Pow, letter, st.sampled_from((p, -p, 2 * p, P_INFINITY))),
        word.filter(lambda w: not any(s % p for s in exponent_sums(w, rank))),
    )
    relators = []
    for _ in range(draw(st.integers(1, 2))):
        if rank == 1:
            lead = Pow(Gen(1), p)
        else:
            i, j = draw(st.permutations(range(1, rank + 1)))[:2]
            lead = Comm(Gen(i), Gen(j))
        relators.append(Prod([lead] + draw(st.lists(part, max_size=2))))
    return Presentation(rank, relators)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cup_grams_match_massey_systems(data):
    # x and y cup to zero exactly when the 3-fold system (x, y, 0) exists:
    # its (1,3) entry is a U_3 lift of (x, y), and (y, 0) always lifts.  No
    # rank 1 at odd p: U_3(F_p) has exponent p, so nothing would pair
    p, rank = data.draw(st.sampled_from(((2, 1), (2, 2), (2, 3), (3, 2),
                                         (3, 3))))
    pres = data.draw(cup_presentations(rank, p))
    V = vectors_array(rank, p).astype(np.int64)
    table = zero_cup_table(cup_grams(pres, p), V, p)
    vecs = [FpVector(v, p) for v in V.tolist()]
    zero = FpVector((0,) * rank, p)
    for (i, x), (j, y) in itertools.product(enumerate(vecs), repeat=2):
        assert table[i, j] == massey_system_exists(pres, [x, y, zero], p)


# --- differential checks against dense integer matrices ----------------------


def _lane(v, k, sliced):
    """Assignment k of a batch entry: an int16 array or a bit-sliced uint64
    word array, or a python int broadcast across the batch."""
    if not sliced:
        return int(v[k]) if isinstance(v, np.ndarray) else int(v)
    word = int(v[k // 64]) if isinstance(v, np.ndarray) else int(v)
    return word >> k % 64 & 1


def _pack(bits):
    """Bit-slice a 0/1 sequence: bit k % 64 of word k // 64 is bits[k]."""
    words = np.zeros(-(-len(bits) // 64), dtype=np.uint64)
    for k, bit in enumerate(bits):
        words[k // 64] |= np.uint64(bit) << np.uint64(k % 64)
    return words


def _dense(entries, n, bar):
    """Stored triangle entries as an n x n integer matrix."""
    m = np.eye(n, dtype=np.int64)
    for (i, j), v in zip(triangle_pairs(n, bar), entries):
        m[i - 1, j - 1] = v
    return m


def _dense_inv(m, p):
    nil = np.eye(len(m), dtype=np.int64) - m
    out = term = np.eye(len(m), dtype=np.int64)
    for _ in range(len(m) - 1):
        term = np.matmul(term, nil) % p
        out = out + term
    return out % p


def _dense_pow(m, e, p):
    if e < 0:
        m, e = _dense_inv(m, p), -e
    out = np.eye(len(m), dtype=np.int64)
    for _ in range(e):
        out = np.matmul(out, m) % p
    return out


def _dense_word(word, mats, p):
    """A group word multiplied out in dense matrices, mats[i-1] for Gen(i)
    and [a, b] = a^-1 b^-1 a b; p-infinity powers are the identity."""
    if isinstance(word, Gen):
        return mats[word.index - 1]
    out = np.eye(len(mats[0]), dtype=np.int64)
    if isinstance(word, Prod):
        factors = [_dense_word(f, mats, p) for f in word.factors]
    elif isinstance(word, Pow):
        if word.exponent.is_infinite:
            return out
        return _dense_pow(_dense_word(word.word, mats, p),
                          word.exponent.value, p)
    else:
        a, b = (_dense_word(w, mats, p) for w in (word.left, word.right))
        factors = [_dense_inv(a, p), _dense_inv(b, p), a, b]
    for m in factors:
        out = np.matmul(out, m) % p
    return out


@st.composite
def batch_cases(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    # at p = 2, also the bit-sliced ring: up to three words of lanes
    sliced = p == 2 and draw(st.booleans())
    n = draw(st.integers(3, 6))
    bar = draw(st.booleans())
    size = draw(st.integers(1, 150 if sliced else 5))
    digit = st.integers(0, p - 1)

    def element():
        out = []
        for _ in triangle_pairs(n, bar):
            if draw(st.booleans()):
                lanes = draw(st.lists(digit, min_size=size, max_size=size))
                out.append(_pack(lanes) if sliced
                           else np.array(lanes, dtype=np.int16))
            else:
                out.append(draw(digit) * (oracle._ALL if sliced else 1))
        return out

    e = draw(st.integers(-9, 9))
    word = draw(small_words(2))
    return p, sliced, n, bar, size, element(), element(), e, word


@settings(max_examples=100, deadline=None)
@given(batch_cases())
def test_batch_arithmetic_matches_dense_matmul(case):
    p, sliced, n, bar, size, a, b, e, word = case
    recipe = mul_recipe(n, bar)
    ring = unipotent.F2_LANES if sliced else unipotent.fp_ring(p)
    got = {
        "mul": walk_mul(a, b, recipe, ring),
        "inv": walk_inv(a, recipe, ring),
        "pow": walk_pow(a, e, recipe, ring),
        "word": walk_word(word, [a, b], recipe, ring),
    }
    for k in range(size):
        A = _dense([_lane(v, k, sliced) for v in a], n, bar)
        B = _dense([_lane(v, k, sliced) for v in b], n, bar)
        want = {
            "mul": np.matmul(A, B) % p,
            "inv": _dense_inv(A, p),
            "pow": _dense_pow(A, e, p),
            "word": _dense_word(word, [A, B], p),
        }
        for name, element in got.items():
            # the bar corner is central, so the other entries ignore it
            assert [_lane(v, k, sliced) for v in element] == [
                int(want[name][i - 1, j - 1])
                for i, j in triangle_pairs(n, bar)
            ], (name, k)


def _unpack_lanes(v, size):
    """The first `size` lanes of a bit-sliced entry or verdict (a uint64
    word array, or a python int repeated in every word) as 0/1 ints."""
    words = np.atleast_1d(np.asarray(v, dtype=np.uint64))
    return np.resize(np.unpackbits(words.view(np.uint8), bitorder="little"),
                     size).astype(np.int64)


@st.composite
def decode_cases(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    sliced = p == 2 and draw(st.booleans())
    n = draw(st.integers(3, 5))
    bar = draw(st.booleans())
    rank = draw(st.integers(1, 3))
    pairs = triangle_pairs(n, bar)
    # sometimes the whole superdiagonal fixed, as in the lift and Massey
    # searches, so the digit map must fall back to the plain order
    fixed = {pq: None for pq in pairs[:n - 1]} if draw(st.booleans()) else {}
    fixed.update((pq, None) for pq in
                 draw(st.lists(st.sampled_from(pairs), unique=True)))
    fixed = {pq: [draw(st.integers(0, p - 1)) for _ in range(rank)]
             for pq in fixed}
    free_pairs = [pq for pq in pairs if pq not in fixed]
    chunk = draw(st.integers(1, 3000))
    digits = len(free_pairs) * rank
    block = p ** oracle._block_exponent(p, chunk, digits)
    start = draw(st.integers(0, p ** digits // block - 1)) * block
    return (p, sliced, n, bar, rank, fixed or None, free_pairs, chunk, block,
            start)


@settings(max_examples=80, deadline=None)
@given(decode_cases())
# every pair of U_5(F_5) free at rank 3: 30 digits, so p ** pos and the
# last block's start pass 2^63
@example((5, False, 5, False, 3, None, list(triangle_pairs(5, False)), 3000,
          625, 5 ** 30 - 625))
def test_block_decode_matches_literal_digits(case):
    # the free superdiagonal entries are the lowest digits, packed as a
    # profile is (generator 0 and s = 0 most significant), then the other
    # free entries generator by generator; with the superdiagonal fixed the
    # order is the plain one, free entry j of generator g at digit
    # (rank-1-g) * len(free_pairs) + j
    p, sliced, n, bar, rank, fixed, free_pairs, chunk, block, start = case
    digits = len(free_pairs) * rank
    assert block <= max(chunk, 1)
    assert block == p ** digits or block * p > chunk
    k = oracle._block_exponent(p, chunk, digits)
    if sliced:
        images = oracle._decode_images(start, oracle._lane_planes(k), rank, n,
                                       p, bar, free_pairs, fixed, oracle._ALL)
    else:
        images = oracle._decode_images(start, oracle._digit_planes(p, k),
                                       rank, n, p, bar, free_pairs, fixed)
    sup = [(s, s + 1) for s in range(1, n) if (s, s + 1) in free_pairs]
    rest = [pq for pq in free_pairs if pq not in sup]
    w = len(sup) * rank
    idx = pair_index(n, bar)
    I = range(start, start + block)  # python ints: indices pass 2^63
    for g in range(rank):
        for pq in triangle_pairs(n, bar):
            v = images[g][idx[pq]]
            if sliced:
                entry = _unpack_lanes(v, block).tolist()
            else:
                entry = np.broadcast_to(v, (block,)).tolist()
            if pq in sup:
                pos = w - 1 - g * len(sup) - sup.index(pq)
            elif pq in rest:
                pos = w + (rank - 1 - g) * len(rest) + rest.index(pq)
                if not sup:
                    assert pos == (rank - 1 - g) * len(free_pairs) + \
                        free_pairs.index(pq)
            else:
                assert entry == [fixed[pq][g]] * block, (g, pq)
                continue
            assert entry == [i // p ** pos % p for i in I], (g, pq)


def _profile_spaces(limit=2 ** 14):
    """(p, n, rank) with at most `limit` superdiagonal profiles."""
    return [(p, n, rank) for p in (2, 3, 5, 7) for n in (3, 4, 5)
            for rank in range(1, 8) if p ** ((n - 1) * rank) <= limit]


def test_f2_table_matches_rank_mod():
    # the shift-and-XOR test against elimination on literally decoded
    # profiles: entry (s, s+1) of generator g at bit w-1-g*(n-1)-s
    for p, n, rank in _profile_spaces():
        if p != 2:
            continue
        w = (n - 1) * rank
        shifts = np.array([[w - 1 - g * (n - 1) - s for g in range(rank)]
                           for s in range(n - 1)])
        profiles = np.arange(2 ** w)
        want = fp.rank_mod(profiles[:, None, None] >> shifts & 1, 2) == n - 1
        assert oracle._surjective_table(n, 2, rank).tolist() == want.tolist()


@st.composite
def verdict_cases(draw):
    p, n, rank = draw(st.sampled_from(_profile_spaces()))
    pairs = triangle_pairs(n)
    # the corner pinned as the central-coset reduction does, or free
    free_pairs = list(pairs[:-1] if draw(st.booleans()) else pairs)
    digits = len(free_pairs) * rank
    w = (n - 1) * rank
    # blocks smaller than the table (a slice), as large (the table) and
    # larger (the table tiled)
    k = draw(st.integers(0, min(digits, w + 2, 16 if p == 2 else 7)))
    start = draw(st.integers(0, p ** (digits - k) - 1)) * p ** k
    return p, n, rank, free_pairs, k, start, draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(verdict_cases())
def test_block_verdicts_match_generates(case):
    # a block's verdicts, read off the table (or rank-tested per block with
    # no table), against profiles packed literally from its decoded images
    p, n, rank, free_pairs, k, start, no_table = case
    size, w = p ** k, (n - 1) * rank
    if p == 2:
        images = oracle._decode_images(start, oracle._lane_planes(k), rank,
                                       n, p, False, free_pairs, None,
                                       oracle._ALL)
        entry = functools.partial(_unpack_lanes, size=size)
    else:
        images = oracle._decode_images(start, oracle._digit_planes(p, k),
                                       rank, n, p, False, free_pairs, None)
        entry = lambda v: np.broadcast_to(v, (size,)).astype(np.int64)
    idx = pair_index(n)
    profiles = sum(entry(images[g][idx[(s + 1, s + 2)]])
                   * p ** (w - 1 - g * (n - 1) - s)
                   for g in range(rank) for s in range(n - 1))
    want = oracle._generates(np.broadcast_to(profiles, (size,)), n, p, rank)
    with pytest.MonkeyPatch.context() as mp:
        if no_table:
            mp.setattr(oracle, "_PROFILE_TABLE_LIMIT", 1)
            oracle._surjective_table.cache_clear()
            oracle._surjective_tile.cache_clear()
        try:
            got = oracle._surjective_verdicts(n, p, rank, k, start)
            assert (oracle._surjective_table(n, p, rank) is None) == no_table
        finally:
            if no_table:
                oracle._surjective_table.cache_clear()
                oracle._surjective_tile.cache_clear()
    if p == 2:
        assert got.dtype == np.uint64 and len(got) == -(-size // 64)
        got = _unpack_lanes(got, size).astype(bool)
    assert got.dtype == bool and got.tolist() == want.tolist()
