"""Ground-truth enumeration: count homomorphisms from a presentation into
the unitriangular groups directly, with no counting theory in the loop."""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np

from .fp import BudgetError, FpVector, check_prime, rank_mod, vectors_array
from .forms import gram_from_demushkin, zero_form
from .unipotent import (
    ExponentToken,
    MAX_N,
    MIN_N,
    mul_recipe,
    pair_index,
    triangle_pairs,
)
from .words import Comm, Gen, Pow, Presentation, Prod

ORACLE_BUDGET = 2 ** 26
ORACLE_BUDGET_EXTENDED = 2 ** 31
LIFT_BUDGET = 10 ** 7
CHUNK = 2 ** 18
_PROFILE_TABLE_LIMIT = 2 ** 22


# --- batched group arithmetic -------------------------------------------------
#
# A batch element is a list over triangle positions; each slot is either a
# numpy int16 array (one value per assignment in the block) or a python int
# broadcast across the block: the digits that stay constant over a block are
# python ints.  All recipes mirror the scalar ones.  Reduction is
# `v - v // p * p`: numpy divides an array by a scalar far faster with
# floor_divide than with remainder, and floor division keeps the result in
# [0, p) for the negative sums of `_batch_inv`.  Before reduction a product
# slot reaches 2(p-1) + (n-2)(p-1)^2, which `_enumerate_space` keeps below
# the int16 limit.


def _batch_identity(n, p, bar):
    return [0] * len(triangle_pairs(n, bar))


def _batch_mul(a, b, recipe, p):
    out = []
    for t, prods in enumerate(recipe):
        v = a[t] + b[t]
        for (u, w) in prods:
            v = v + a[u] * b[w]
        out.append(v - v // p * p)
    return out


def _batch_inv(a, n, p, bar):
    pairs = triangle_pairs(n, bar)
    idx = pair_index(n, bar)
    out = [0] * len(pairs)
    for t, (i, j) in enumerate(pairs):
        s = a[t]
        for k in range(i + 1, j):
            s = s + out[idx[(i, k)]] * a[idx[(k, j)]]
        s = -s
        out[t] = s - s // p * p
    return out


def _batch_pow(a, e, n, p, bar):
    if isinstance(e, ExponentToken):
        if e.is_infinite:
            return _batch_identity(n, p, bar)
        e = e.value
    e = int(e)
    if e < 0:
        a = _batch_inv(a, n, p, bar)
        e = -e
    recipe = mul_recipe(n, bar)
    result = _batch_identity(n, p, bar)
    base = a
    while e:
        if e & 1:
            result = _batch_mul(result, base, recipe, p)
        e >>= 1
        if e:
            base = _batch_mul(base, base, recipe, p)
    return result


def _batch_eval(word, images, n, p, bar):
    if isinstance(word, Gen):
        return images[word.index - 1]
    if isinstance(word, Prod):
        recipe = mul_recipe(n, bar)
        out = _batch_identity(n, p, bar)
        for f in word.factors:
            out = _batch_mul(out, _batch_eval(f, images, n, p, bar), recipe, p)
        return out
    if isinstance(word, Pow):
        return _batch_pow(_batch_eval(word.word, images, n, p, bar),
                          word.exponent, n, p, bar)
    if isinstance(word, Comm):
        a = _batch_eval(word.left, images, n, p, bar)
        b = _batch_eval(word.right, images, n, p, bar)
        recipe = mul_recipe(n, bar)
        ia = _batch_inv(a, n, p, bar)
        ib = _batch_inv(b, n, p, bar)
        return _batch_mul(_batch_mul(_batch_mul(ia, ib, recipe, p), a,
                                     recipe, p), b, recipe, p)
    raise TypeError(f"not a group word: {word!r}")


def _identity_mask(entries, size):
    keep = np.ones(size, dtype=bool)
    for e in entries:
        keep &= e == 0
    return keep


# --- assignment space ---------------------------------------------------------


# A profile packs the superdiagonal entries (s, s+1) of the rank generator
# images into one base-p number, generator 0 and s = 0 most significant.  It
# generates U_n exactly when its (n-1) x rank matrix has full row rank.  The
# verdicts come from one batched elimination (`fp.rank_mod`): for every
# profile at once while p^width <= _PROFILE_TABLE_LIMIT, built once per
# (n, p, rank) per process, and for a block's distinct profiles above that.


def _profile_weights(n, p, rank):
    """Place value of entry (s, s+1) of generator g, as an (n-1, rank) array."""
    width = (n - 1) * rank
    slot = np.arange(rank)[None, :] * (n - 1) + np.arange(n - 1)[:, None]
    return p ** (width - 1 - slot)


def _generates(profiles, n, p, rank):
    """Whether each packed profile generates U_n."""
    mats = np.empty((len(profiles), n - 1, rank), dtype=np.int16)
    for (s, g), w in np.ndenumerate(_profile_weights(n, p, rank)):
        mats[:, s, g] = profiles // w % p
    return rank_mod(mats, p) == n - 1


@lru_cache(maxsize=None)
def _surjective_table(n, p, rank):
    """Boolean table over packed superdiagonal profiles: generates U_n?"""
    size = p ** ((n - 1) * rank)
    if size > _PROFILE_TABLE_LIMIT:
        return None
    return _generates(np.arange(size), n, p, rank)


def _surjective_mask(images, n, p, rank, size):
    table = _surjective_table(n, p, rank)
    weights = _profile_weights(n, p, rank)
    idx = pair_index(n, False)
    profile = np.zeros(size, dtype=np.int64)
    for g in range(rank):
        for s in range(n - 1):
            entry = images[g][idx[(s + 1, s + 2)]]
            profile += np.asarray(entry, dtype=np.int64) * weights[s, g]
    if table is not None:
        return table[profile]
    uniq, inverse = np.unique(profile, return_inverse=True)
    return _generates(uniq, n, p, rank)[inverse]


def _block_exponent(p, chunk, digits):
    """The k of the p^k-assignment blocks: the largest p^k <= chunk, capped
    at the number of assignment digits."""
    k = 0
    while k < digits and p ** (k + 1) <= chunk:
        k += 1
    return k


def _digit_planes(p, k):
    """For j < k, digit j of every index 0 .. p^k - 1, as an int16 array."""
    digits = np.arange(p, dtype=np.int16)[:, None]
    return [
        np.broadcast_to(digits, (p ** (k - 1 - j), p, p ** j)).reshape(-1)
        for j in range(k)
    ]


def _decode_images(start, planes, rank, n, p, bar, free_pairs, fixed):
    """Per-generator batch elements for the block of p^len(planes)
    assignments that starts at `start`, a multiple of the block size.  The
    free entry j of generator g is base-p digit (rank-1-g)*len(free_pairs)+j
    of the assignment index: a digit plane below the block size, a python
    int constant over the block above it."""
    pairs = triangle_pairs(n, bar)
    idx = pair_index(n, bar)
    width = len(free_pairs)
    images = []
    for g in range(rank):
        entries = [0] * len(pairs)
        if fixed:
            for pq, values in fixed.items():
                entries[idx[pq]] = int(values[g])
        for j, pq in enumerate(free_pairs):
            pos = (rank - 1 - g) * width + j
            entries[idx[pq]] = (planes[pos] if pos < len(planes)
                                else start // p ** pos % p)
        images.append(entries)
    return images


def _compress(images, survivors):
    return [
        [e[survivors] if isinstance(e, np.ndarray) else e for e in img]
        for img in images
    ]


def _count_range(pres, n, p, bar, fixed, lo, hi, k, want_surjective,
                 exists_only=False, progress=None):
    """Count the assignments in [lo, hi), both multiples of p^k, that pass
    every stage, one block of p^k assignments at a time."""
    rank = pres.rank
    pairs = triangle_pairs(n, bar)
    free_pairs = [pq for pq in pairs if not (fixed and pq in fixed)]
    surj_first = want_surjective and len(pres.relators) >= 2
    planes = _digit_planes(p, k)
    block = p ** k
    total = 0
    for start in range(lo, hi, block):
        size = block
        images = _decode_images(start, planes, rank, n, p, bar, free_pairs,
                                fixed)

        stages = []
        if surj_first:
            stages.append("surjective")
        stages.extend(range(len(pres.relators)))
        if want_surjective and not surj_first:
            stages.append("surjective")

        for stage in stages:
            if stage == "surjective":
                keep = _surjective_mask(images, n, p, rank, size)
            else:
                value = _batch_eval(pres.relators[stage], images, n, p, bar)
                keep = _identity_mask(value, size)
            survivors = np.nonzero(keep)[0]
            size = len(survivors)
            if size == 0:
                break
            images = _compress(images, survivors)
        total += size
        if exists_only and size:
            return total
        if progress is not None:
            progress(start + block)
    return total


def _range_worker(args):
    pres, n, p, bar, fixed, lo, hi, k, want_surjective = args
    return _count_range(pres, n, p, bar, fixed, lo, hi, k, want_surjective)


def _make_progress(space, label):
    t0 = time.monotonic()

    def report(done):
        dt = max(time.monotonic() - t0, 1e-9)
        rate = done / dt
        eta = (space - done) / rate if rate else float("inf")
        sys.stderr.write(
            f"\r{label}: {done}/{space} ({rate:,.0f}/s, eta {eta:,.0f}s)"
        )
        if done >= space:
            sys.stderr.write("\n")
        sys.stderr.flush()

    return report


def _enumerate_space(pres, n, p, bar, fixed, budget, threads=1,
                     progress=False, chunk=CHUNK, want_surjective=False,
                     exists_only=False, label="scan"):
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
    free_pairs = [pq for pq in pairs if not (fixed and pq in fixed)]
    digits = len(free_pairs) * rank
    space = p ** digits
    if space > budget:
        raise BudgetError(
            f"state space has {space} assignments, over the budget {budget}"
        )
    reporter = _make_progress(space, label) if progress else None
    k = _block_exponent(p, chunk, digits)
    ranges = ([(0, space)] if exists_only
              else _plan_ranges(space, p ** k, threads))
    if len(ranges) == 1:
        return _count_range(pres, n, p, bar, fixed, 0, space, k,
                            want_surjective, exists_only, reporter)
    jobs = [
        (pres, n, p, bar, fixed, lo, hi, k, want_surjective)
        for lo, hi in ranges
    ]
    total = 0
    with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
        for c in pool.map(_range_worker, jobs):
            total += c
    return total


def _plan_ranges(space, block, threads):
    """Split [0, space) into block-aligned ranges, one per worker, with
    min(threads, cpu count, block count) workers.  A space of at most two
    blocks stays in one range."""
    blocks = -(-space // block)
    workers = min(max(1, int(threads)), os.cpu_count() or 1, blocks)
    if workers <= 1 or blocks <= 2:
        return [(0, space)]
    step = -(-blocks // workers) * block
    return [(lo, min(lo + step, space)) for lo in range(0, space, step)]


# --- public operations --------------------------------------------------------


def count_epi_bruteforce(pres, n, p, budget=ORACLE_BUDGET, threads=1,
                         progress=False, chunk=CHUNK) -> int:
    """Count surjections onto U_n(F_p) by exhausting generator assignments."""
    return _enumerate_space(
        pres, n, p, False, None, budget, threads, progress, chunk,
        want_surjective=True, label="epi",
    )


def count_lifts_bruteforce(pres, p, superdiagonal, n=4,
                           budget=LIFT_BUDGET) -> int:
    """Count homomorphisms to U_4(F_p) whose generator images carry the
    prescribed (1,2),(2,3),(3,4) entries; the remaining entries range freely."""
    if n != 4:
        raise ValueError("lift counting is defined for the n = 4 target")
    p = check_prime(p)
    x, y, z = superdiagonal
    rank = pres.rank
    for v in (x, y, z):
        if v.dim != rank or v.p != p:
            raise ValueError(
                "superdiagonal characters must live on the presentation's "
                "generators over the same modulus"
            )
    fixed = {
        (1, 2): [int(x[g]) for g in range(rank)],
        (2, 3): [int(y[g]) for g in range(rank)],
        (3, 4): [int(z[g]) for g in range(rank)],
    }
    return _enumerate_space(pres, 4, p, False, fixed, budget, label="lifts")


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
    rank = pres.rank
    for v in chars:
        if v.dim != rank or v.p != p:
            raise ValueError(
                "characters must live on the presentation's generators over "
                "the same modulus"
            )
    fixed = {
        (i + 1, i + 2): [(-int(chars[i][g])) % p for g in range(rank)]
        for i in range(k)
    }
    found = _enumerate_space(
        pres, k + 1, p, True, fixed, budget, exists_only=True, label="massey",
    )
    return bool(found)


def _presentation_pairing(pres, p):
    """The pairing matrix for the cup condition: the one-relator family's
    Gram matrix, block sums for free products, and zero otherwise."""
    kind = pres.tag.get("kind")
    if kind == "demushkin":
        return gram_from_demushkin(pres).matrix.array
    if kind == "free_product":
        blocks = np.zeros((pres.rank, pres.rank), dtype=np.int64)
        off = 0
        for part in pres.tag["parts"]:
            if part.tag.get("kind") == "demushkin":
                g = gram_from_demushkin(part)
                blocks[off : off + part.rank, off : off + part.rank] = (
                    g.matrix.array
                )
            off += part.rank
        return blocks
    return zero_form(pres.rank, p).matrix.array


def cup_defining_check(pres, p, k, samples=None, include=(), seed=0,
                       budget=ORACLE_BUDGET) -> dict:
    """Search for character tuples with vanishing consecutive cup products
    but no defining system.  An empty failure list is evidence (never proof)
    that every such k-fold product is defined at this scale."""
    p = check_prime(p)
    k = int(k)
    if not 2 <= k <= MAX_N - 1:
        raise ValueError(f"supported fold counts are 2..{MAX_N - 1}")
    rank = pres.rank
    mat = _presentation_pairing(pres, p)

    def cups_vanish(tup):
        for a, b in zip(tup, tup[1:]):
            av = np.array([int(a[g]) for g in range(rank)], dtype=np.int64)
            bv = np.array([int(b[g]) for g in range(rank)], dtype=np.int64)
            if int(av @ mat @ bv) % p:
                return False
        return True

    from .fp import vector_from_index

    per_tuple = p ** ((k * (k + 1) // 2 - 1 - k) * rank)
    checked = 0
    failures = []

    def run(tup):
        nonlocal checked
        checked += 1
        if not massey_system_exists(pres, tup, p, budget):
            failures.append(tuple(tuple(int(v[g]) for g in range(rank))
                                  for v in tup))

    for tup in include:
        tup = tuple(
            v if isinstance(v, FpVector)
            else FpVector(tuple(int(x) % p for x in v), p)
            for v in tup
        )
        if len(tup) != k:
            raise ValueError("included tuples must have exactly k characters")
        run(tup)

    exhaustive = samples is None
    P = p ** rank
    if exhaustive:
        # count the qualifying tuples first so the budget verdict is upfront
        pair_ok = (vectors_array(rank, p).astype(np.int64) @ mat
                   @ vectors_array(rank, p).astype(np.int64).T % p) == 0
        chains = np.ones(P, dtype=np.int64)
        for _ in range(k - 1):
            chains = pair_ok @ chains
        n_tuples = int(chains.sum())
        if n_tuples * per_tuple > budget:
            raise BudgetError(
                f"exhausting {n_tuples} tuples at {per_tuple} assignments "
                f"each exceeds the budget {budget}; pass a sample count"
            )
        stack = [()]
        while stack:
            tup = stack.pop()
            if len(tup) == k:
                run(tup)
                continue
            for i in range(P):
                v = vector_from_index(i, rank, p)
                if tup and int(
                    np.array([int(tup[-1][g]) for g in range(rank)]) @ mat
                    @ np.array([int(v[g]) for g in range(rank)])
                ) % p:
                    continue
                stack.append(tup + (v,))
    else:
        rng = np.random.default_rng(seed)
        wanted = int(samples)
        attempts = 0
        while checked - len(include) < wanted:
            attempts += 1
            if attempts > 1000 * max(wanted, 1):
                raise RuntimeError(
                    "sampling failed to find enough qualifying tuples"
                )
            tup = tuple(
                vector_from_index(int(rng.integers(P)), rank, p)
                for _ in range(k)
            )
            if cups_vanish(tup):
                run(tup)

    return {"checked": checked, "failures": failures, "exhaustive": exhaustive}
