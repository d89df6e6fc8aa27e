"""Ground-truth enumeration: count homomorphisms from a presentation into
the unitriangular groups directly, with no counting theory in the loop."""

from __future__ import annotations

import functools
import operator
import os
import sys
import time

import numpy as np

from .fp import (
    _RANK_SLICE,
    BudgetError,
    check_prime,
    rank_mod,
    vector_from_index,
    vectors_array,
)
from .forms import cup_grams, zero_cup_table
from .unipotent import (
    F2_LANES,
    fp_ring,
    mul_recipe,
    pair_index,
    triangle_pairs,
    walk_word,
)
from .words import Presentation, exponent_sums

MIN_N = 3
MAX_N = 6
ORACLE_BUDGET = 2 ** 26
ORACLE_BUDGET_EXTENDED = 2 ** 31
LIFT_BUDGET = 10 ** 7
CHUNK = 2 ** 18
_PROFILE_TABLE_LIMIT = 2 ** 22


# --- block representations ----------------------------------------------------
#
# The oracle walks its space in blocks of p^k assignments and evaluates each
# relator once per block with the recipe walkers of `unipotent`.  An entry of
# a generator image is one of:
#   - odd p: a numpy int16 array, one value per assignment of the block, or
#     a python int broadcast across it (the digits constant over the block).
#     Stages compact the block to its survivors.  Before reduction an entry
#     reaches 2(p-1) + (n-2)(p-1)^2, which `_enumerate_space` keeps below the
#     int16 limit.
#   - p = 2: bit-sliced, a numpy uint64 array whose bit l of word w is the
#     entry of assignment 64w + l of the block, or a python int lane word
#     repeated across it.  Stages AND their verdicts into one `alive` mask
#     and nothing is compacted.

_ALL = 2 ** 64 - 1
# bit l of _LANES[j] is bit j of l: digit j of the 64 assignments of a word
_LANES = [sum(1 << lane for lane in range(64) if lane >> j & 1)
          for j in range(6)]


def _frozen(array):
    """Mark a cached array read-only, so an in-place write raises."""
    array.flags.writeable = False
    return array


# --- assignment space ---------------------------------------------------------


# A profile packs the superdiagonal entries (s, s+1) of the rank generator
# images into one base-p number, generator 0 and s = 0 most significant.  It
# generates U_n exactly when its (n-1) x rank matrix has full row rank.  The
# assignment index keeps these w = (n-1)*rank digits lowest, in the same
# order (`_digit_map`), so an assignment's profile is its index mod p^w and
# every block reads its verdicts off one table: the table tiled p^(k-w) times
# when the block has p^k >= p^w assignments, built once per block size, and
# a slice of it below.  The table holds every profile while p^w <=
# _PROFILE_TABLE_LIMIT, built once per (n, p, rank) per process by batched
# eliminations (`fp.rank_mod`, one _RANK_SLICE of profiles at a time), or by
# shifts and XORs at p = 2; above the limit a block rank-tests its own
# profiles.  At p = 2 the verdicts are packed into lanes, bit l of word i the
# verdict of assignment 64i + l.


@functools.lru_cache(maxsize=None)
def _profile_weights(n, p, rank):
    """Place value of entry (s, s+1) of generator g, as a read-only
    (n-1, rank) int64 array."""
    width = (n - 1) * rank
    slot = np.arange(rank)[None, :] * (n - 1) + np.arange(n - 1)[:, None]
    return _frozen(p ** (width - 1 - slot))


def _generates(profiles, n, p, rank):
    """Whether each packed profile generates U_n.  Profiles are decoded and
    eliminated one fp._RANK_SLICE at a time (2^16 at p = 2), so the working
    set is one slice's matrices whatever the number of profiles."""
    weights = _profile_weights(n, p, rank)
    step = 2 ** 16 if p == 2 else _RANK_SLICE
    out = np.empty(len(profiles), dtype=bool)
    for lo in range(0, len(profiles), step):
        part = profiles[lo:lo + step]
        out[lo:lo + len(part)] = (
            _f2_generates(part, n, rank) if p == 2
            else rank_mod(part[:, None, None] // weights % p, p) == n - 1
        )
    return out


def _f2_generates(profiles, n, rank):
    """_generates at p = 2 without elimination: the n-1 rows are independent
    when no nonzero combination of them vanishes.  Row s is the profile
    shifted right by n-2-s and masked to row n-2's bits; the combinations
    are visited in Gray-code order, one XOR each."""
    low = sum(1 << (n - 1) * g for g in range(rank))
    rows = [profiles >> (n - 2 - s) & low for s in range(n - 1)]
    out = np.ones(len(profiles), dtype=bool)
    combo = np.zeros_like(rows[0])
    for i in range(1, 2 ** (n - 1)):
        combo ^= rows[(i & -i).bit_length() - 1]
        out &= combo != 0
    return out


@functools.lru_cache(maxsize=None)
def _surjective_table(n, p, rank):
    """Read-only boolean table over packed superdiagonal profiles: generates
    U_n?  None above _PROFILE_TABLE_LIMIT profiles."""
    size = p ** ((n - 1) * rank)
    if size > _PROFILE_TABLE_LIMIT:
        return None
    return _frozen(_generates(np.arange(size), n, p, rank))


def _lanes(verdicts):
    """Boolean verdicts bit-sliced: a read-only uint64 array whose bit l of
    word i is verdict 64i + l, one word (zero-padded) under 64 verdicts."""
    bits = np.packbits(verdicts, bitorder="little")
    return _frozen(np.pad(bits, (0, -len(bits) % 8)).view("<u8"))


@functools.lru_cache(maxsize=None)
def _surjective_tile(n, p, rank, k):
    """The verdicts of every block of p^k >= p^w assignments: the table
    tiled, read-only, and packed into lanes at p = 2."""
    w = (n - 1) * rank
    table = _surjective_table(n, p, rank)
    if table is None:
        table = _generates(np.arange(p ** w), n, p, rank)
    tile = np.tile(table, p ** (k - w))
    return _lanes(tile) if p == 2 else _frozen(tile)


def _surjective_verdicts(n, p, rank, k, start):
    """Whether each assignment of the p^k-block at `start` generates U_n:
    its profile is its index mod p^w."""
    w = (n - 1) * rank
    if k >= w:
        return _surjective_tile(n, p, rank, k)
    lo = start % p ** w
    table = _surjective_table(n, p, rank)
    verdicts = (table[lo:lo + p ** k] if table is not None
                else _generates(np.arange(lo, lo + p ** k), n, p, rank))
    return _lanes(verdicts) if p == 2 else verdicts


def _block_exponent(p, chunk, digits):
    """The k of the p^k-assignment blocks: the largest p^k <= chunk, capped
    at the number of assignment digits.  At odd p also p^k <= 2^16, so one
    int16 entry array (128 KiB at most) stays within glibc's default mmap
    threshold and the walkers' temporaries come from the heap."""
    if p != 2:
        chunk = min(chunk, 2 ** 16)
    k = 0
    while k < digits and p ** (k + 1) <= chunk:
        k += 1
    return k


@functools.lru_cache(maxsize=None)
def _digit_planes(p, k):
    """For j < k, digit j of every index 0 .. p^k - 1 as a read-only int16
    array, built once per (p, k) per process."""
    column = np.arange(p, dtype=np.int16)[:, None]
    return tuple(
        _frozen(np.broadcast_to(column, (p ** (k - 1 - j), p, p ** j))
                .reshape(-1))
        for j in range(k)
    )


@functools.lru_cache(maxsize=None)
def _lane_planes(k):
    """The bit-sliced digit planes of a block of 2^k assignments: digits
    below 6 vary inside a word and are the same lane word in every word;
    digits 6 .. k-1 are read-only arrays of words of all ones or all zeros."""
    words = np.array([0, _ALL], np.uint64)
    planes = _digit_planes(2, max(k - 6, 0))
    return (*_LANES[:k], *(_frozen(words[plane]) for plane in planes))


@functools.lru_cache(maxsize=None)
def _digit_map(n, bar, rank, free_pairs):
    """Where each free entry sits in the assignment index: per generator, a
    tuple of (entry index, digit).  The free superdiagonal entries take the
    w lowest digits in profile order (generator 0 and s = 0 most
    significant), so an assignment's profile is its index mod p^w.  The m
    other free entries follow, entry j of generator g at digit
    w + (rank-1-g)*m + j.  With the superdiagonal fixed, w = 0."""
    idx = pair_index(n, bar)
    sup = [pq for pq in free_pairs if pq[1] == pq[0] + 1]
    rest = [pq for pq in free_pairs if pq[1] != pq[0] + 1]
    w, m = len(sup) * rank, len(rest)
    return tuple(
        tuple((idx[pq], w - 1 - g * len(sup) - s) for s, pq in enumerate(sup))
        + tuple((idx[pq], w + (rank - 1 - g) * m + j)
                for j, pq in enumerate(rest))
        for g in range(rank)
    )


def _decode_images(start, planes, rank, n, p, bar, free_pairs, fixed, one=1):
    """Per-generator elements for the block of assignments that starts at
    `start`, a multiple of the block size p^len(planes).  A free entry is its
    digit of the assignment index (`_digit_map`): a digit plane below the
    block size, a python int constant over the block above it.  Constants
    are scaled by `one`: 1 for int16 entries, all ones for bit-sliced ones."""
    idx = pair_index(n, bar)
    images = []
    for g, digits in enumerate(_digit_map(n, bar, rank, tuple(free_pairs))):
        entries = [0] * len(idx)
        if fixed:
            for pq, values in fixed.items():
                entries[idx[pq]] = int(values[g]) * one
        for i, pos in digits:
            entries[i] = (planes[pos] if pos < len(planes)
                          else start // p ** pos % p * one)
        images.append(entries)
    return images


def _compress(images, survivors):
    return [
        [e[survivors] if isinstance(e, np.ndarray) else e for e in img]
        for img in images
    ]


@functools.lru_cache(maxsize=None)
def _all_alive(p, k):
    """Every assignment of a p^k-block alive, read-only: p^k booleans, or at
    p = 2 the 2^k lanes of uint64 words, one word under 64 lanes."""
    if p == 2:
        lanes = _ALL if k >= 6 else 2 ** 2 ** k - 1
        return _frozen(np.full(2 ** max(k - 6, 0), lanes, dtype=np.uint64))
    return _frozen(np.ones(p ** k, dtype=bool))


def _block_counter(pres, n, p, bar, fixed, free_pairs, k, stages):
    """Counts one block of p^k assignments, stage by stage.  A relator
    passes where its entries, all in [0, p), OR to 0.  Odd p compacts the
    block to the survivors before each relator; p = 2 ANDs every verdict
    into its lane words, one word when the block has fewer than 64 lanes."""
    rank = pres.rank
    recipe = mul_recipe(n, bar)
    all_alive = _all_alive(p, k)
    if p == 2:
        ring, planes, one = F2_LANES, _lane_planes(k), _ALL

        def tally(alive):
            return np.bitwise_count(alive).sum()
    else:
        ring, planes, one = fp_ring(p), _digit_planes(p, k), 1
        tally = np.count_nonzero

    def count(start):
        images = _decode_images(start, planes, rank, n, p, bar, free_pairs,
                                fixed, one)
        alive = all_alive
        for stage in stages:
            if stage == "surjective":  # always the first stage
                alive = _surjective_verdicts(n, p, rank, k, start)
                continue
            if alive is not all_alive:
                if not alive.any():
                    return 0
                if p != 2:  # dropping dead 64-lane words does not pay
                    survivors = np.flatnonzero(alive)
                    images = _compress(images, survivors)
                    alive = all_alive[:len(survivors)]
            value = walk_word(pres.relators[stage], images, recipe, ring)
            nonzero = functools.reduce(operator.or_, value)
            alive = alive & (_ALL ^ nonzero if p == 2 else nonzero == 0)
        return int(tally(alive))

    return count


def _count_range(pres, n, p, bar, fixed, lo, hi, k, want_surjective,
                 exists_only=False, progress=None):
    """Count the assignments in [lo, hi), both multiples of p^k, that pass
    every stage, one block of p^k assignments at a time."""
    pairs = triangle_pairs(n, bar)
    free_pairs = tuple(pq for pq in pairs if pq not in fixed)
    stages = ["surjective"] if want_surjective else []
    stages.extend(range(len(pres.relators)))
    count = _block_counter(pres, n, p, bar, fixed, free_pairs, k, stages)
    block = p ** k
    total = 0
    for start in range(lo, hi, block):
        found = count(start)
        total += found
        if exists_only and found:
            return total
        if progress is not None:
            progress(start + block)
    return total


def _range_worker(args):
    pres, n, p, bar, fixed, lo, hi, k, want_surjective = args
    return _count_range(pres, n, p, bar, fixed, lo, hi, k, want_surjective)


def _make_progress(space, scale):
    """Progress reports in nominal assignments: `done` enumerated ones stand
    for done * scale."""
    t0 = time.monotonic()

    def report(done):
        done *= scale
        dt = max(time.monotonic() - t0, 1e-9)
        rate = done / dt
        eta = (space - done) / rate if rate else float("inf")
        sys.stderr.write(
            f"\repi: {done}/{space} ({rate:,.0f}/s, eta {eta:,.0f}s)"
        )
        if done >= space:
            sys.stderr.write("\n")
        sys.stderr.flush()

    return report


def _central_pins(pres, n, p, bar, free_pairs):
    """The free entries of the central band (n-1, or n-2 in the corner-dropped
    group) above band 1 when every exponent sum in every relator vanishes mod
    p, else none.  Translating a generator's image by a central element then
    leaves every relator's value unchanged, and surjectivity reads band 1
    only, so the oracle enumerates one assignment per coset: these entries
    pinned to 0, the count scaled by p per pinned digit."""
    band = n - 2 if bar else n - 1
    if band < 2 or any(s % p for r in pres.relators
                       for s in exponent_sums(r, pres.rank)):
        return []
    return [pq for pq in free_pairs if pq[1] - pq[0] == band]


def _enumerate_space(pres, n, p, bar, fixed, budget, threads=1,
                     progress=False, chunk=CHUNK, want_surjective=False,
                     exists_only=False):
    if not isinstance(pres, Presentation):
        raise TypeError("first argument must be a Presentation")
    p = check_prime(p)
    if not MIN_N <= n <= MAX_N:
        raise ValueError(f"target size n={n} outside supported range "
                         f"[{MIN_N}, {MAX_N}]")
    peak = 2 * (p - 1) + (n - 2) * (p - 1) ** 2
    if peak >= 2 ** 15:
        raise ValueError(
            f"U_{n}(F_{p}) products reach {peak} before reduction, over the "
            f"int16 bound 2^15 - 1 of the batch entries"
        )
    rank = pres.rank
    pairs = triangle_pairs(n, bar)
    fixed = dict(fixed or {})
    free_pairs = [pq for pq in pairs if pq not in fixed]
    nominal = p ** (len(free_pairs) * rank)
    if nominal > budget:
        raise BudgetError(
            f"state space has {nominal} assignments, over the budget {budget}"
        )
    pins = _central_pins(pres, n, p, bar, free_pairs)
    fixed.update((pq, [0] * rank) for pq in pins)
    digits = (len(free_pairs) - len(pins)) * rank
    space, scale = p ** digits, p ** (len(pins) * rank)
    reporter = _make_progress(nominal, scale) if progress else None
    k = _block_exponent(p, chunk, digits)
    ranges = ([(0, space)] if exists_only
              else _plan_ranges(space, p ** k, threads))
    if len(ranges) == 1:
        return scale * _count_range(pres, n, p, bar, fixed, 0, space, k,
                                    want_surjective, exists_only, reporter)
    jobs = [
        (pres, n, p, bar, fixed, lo, hi, k, want_surjective)
        for lo, hi in ranges
    ]
    from concurrent.futures import ProcessPoolExecutor

    total = 0
    with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
        for c in pool.map(_range_worker, jobs):
            total += c
    return scale * total


def _plan_ranges(space, block, threads):
    """Split [0, space) into block-aligned ranges, one per worker, with
    min(threads, cpu count, block count) workers.  A space of at most two
    blocks stays in one range."""
    if threads <= 1:
        return [(0, space)]
    blocks = -(-space // block)
    workers = min(int(threads), os.cpu_count() or 1, blocks)
    if workers <= 1 or blocks <= 2:
        return [(0, space)]
    step = -(-blocks // workers) * block
    return [(lo, min(lo + step, space)) for lo in range(0, space, step)]


# --- public operations --------------------------------------------------------


def count_epi_bruteforce(pres, n, p, budget=ORACLE_BUDGET, threads=1,
                         progress=False, chunk=CHUNK) -> int:
    """Count surjections onto U_n(F_p) by exhausting generator assignments."""
    return _enumerate_space(pres, n, p, False, None, budget, threads,
                            progress, chunk, want_surjective=True)


def _superdiagonal(pres, chars, p, sign=1):
    """Character i as the fixed entries (i, i+1), scaled by `sign` mod p,
    once each character is checked to live on the presentation's
    generators over F_p."""
    rank = pres.rank
    for v in chars:
        if v.dim != rank or v.p != p:
            raise ValueError(
                "characters must live on the presentation's generators over "
                "the same modulus"
            )
    return {(i, i + 1): [sign * e % p for e in v]
            for i, v in enumerate(chars, 1)}


def count_lifts_bruteforce(pres, p, superdiagonal, budget=LIFT_BUDGET) -> int:
    """Count homomorphisms to U_4(F_p) whose generator images carry the
    prescribed (1,2),(2,3),(3,4) entries; the remaining entries range freely."""
    p = check_prime(p)
    chars = list(superdiagonal)
    if len(chars) != 3:
        raise ValueError(
            f"need three superdiagonal characters, got {len(chars)}")
    fixed = _superdiagonal(pres, chars, p)
    return _enumerate_space(pres, 4, p, False, fixed, budget)


def massey_system_exists(pres, chars, p, budget=ORACLE_BUDGET) -> bool:
    """Whether some homomorphism to the corner-dropped group carries the
    prescribed (negated) characters on its superdiagonal — existence of a
    defining system for the k-fold product of the characters."""
    p = check_prime(p)
    chars = list(chars)
    k = len(chars)
    if k < 2:
        raise ValueError("need at least two characters")
    if k + 1 > MAX_N:
        raise ValueError(
            f"a {k}-fold product needs target size {k + 1}, over the "
            f"supported maximum {MAX_N}"
        )
    fixed = _superdiagonal(pres, chars, p, sign=-1)
    return bool(_enumerate_space(pres, k + 1, p, True, fixed, budget,
                                 exists_only=True))


def cup_defining_check(pres, p, k, budget=ORACLE_BUDGET) -> dict:
    """Search every character tuple with vanishing consecutive cup products
    for one with no defining system.  An empty failure list is evidence
    (never proof) that every such k-fold product is defined at this scale."""
    p = check_prime(p)
    k = int(k)
    if not 2 <= k <= MAX_N - 1:
        raise ValueError(f"supported fold counts are 2..{MAX_N - 1}")
    rank = pres.rank
    per_tuple = p ** ((k * (k + 1) // 2 - 1 - k) * rank)
    P = p ** rank
    # count the qualifying tuples first so the budget verdict is upfront
    V = vectors_array(rank, p).astype(np.int64)
    pair_ok = zero_cup_table(cup_grams(pres, p), V, p)  # by vector index
    chains = np.ones(P, dtype=np.int64)
    for _ in range(k - 1):
        chains = pair_ok @ chains
    n_tuples = int(chains.sum())
    if n_tuples * per_tuple > budget:
        raise BudgetError(
            f"exhausting {n_tuples} tuples at {per_tuple} assignments "
            f"each exceeds the budget {budget}"
        )
    vecs = [vector_from_index(i, rank, p) for i in range(P)]
    failures = []
    stack = [()]
    while stack:
        tup = stack.pop()
        if len(tup) == k:
            chars = [vecs[i] for i in tup]
            if not massey_system_exists(pres, chars, p, budget):
                failures.append(tuple(tuple(int(v[g]) for g in range(rank))
                                      for v in chars))
            continue
        nexts = np.flatnonzero(pair_ok[tup[-1]]) if tup else range(P)
        stack.extend(tup + (int(i),) for i in nexts)
    return {"checked": n_tuples, "failures": failures}
