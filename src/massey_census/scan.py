"""The census triple scan over F_p^d: the pair mask, the admissible pairs
and the triple-counting kernel.

One kernel counts every triple.  It walks the nonzero x in blocks of whole
rows, each holding about fp.BLOCK_CELLS array cells, and takes all
admissible (x, y) pairs of a block at once.  The p indices of the line
x + b y come from two small tables, one per half of the coordinates, and z
is counted per pair from the pair mask's row at y and its hits on that line
(see `count_triples`).  The budget counts primitive form evaluations (P per
admissible pair and relator, P * P per pair-mask array) and is charged in
full before any block is built.  The census imports this module where a
scan runs, and its functions import numpy where they run, so a closed-form
count loads neither."""

from __future__ import annotations

from . import fp
from .fp import BudgetError, vectors_array


def spend(box, amount):
    """Charge `amount` to the [spent, allowed] budget box; raise BudgetError
    past it."""
    box[0] += amount
    if box[0] > box[1]:
        raise BudgetError(
            f"enumeration needs ~{box[0]} primitive form evaluations, over the "
            f"budget {box[1]}; use a closed-form method or raise the budget"
        )


def pair_mask(d, p, grams, box):
    """The (P, P) boolean table over F_p^d, rows x and columns y, true when
    every Gram array pairs (x, y) to zero.  None if there is no array."""
    from .forms import zero_cup_table

    if not grams:
        return None
    V = vectors_array(d, p)
    for _ in grams:
        spend(box, len(V) ** 2)
    return zero_cup_table(grams, V, p)


def _line_table(k, p):
    """(p^k * p^k, p) int32: row u * p^k + v holds the indices in F_p^k of
    the line u + b v, for b in F_p."""
    import numpy as np

    V = vectors_array(k, p).astype(np.int32)
    b = np.arange(p, dtype=np.int32)
    out = np.zeros((len(V), len(V), p), dtype=np.int32)
    for i in range(k):  # digit by digit, first coordinate most significant
        out *= p
        out += (V[:, None, None, i] + b * V[None, :, None, i]) % p
    return out.reshape(-1, p)


def _line_finder(d, p):
    """A function (ix, iy) -> (n, p) array of the indices of x + b y, for
    b in F_p.  A vector's index is head * q + tail, q = p^(d - d // 2), and
    the head and tail of x + b y are lines of the smaller spaces: one
    gather from each half's line table per pair."""
    import numpy as np

    q = p ** (d - d // 2)
    head, tail = _line_table(d // 2, p) * q, _line_table(d - d // 2, p)
    heads = p ** (d // 2)

    def lines(ix, iy):
        hx, tx = np.divmod(ix, q)
        hy, ty = np.divmod(iy, q)
        out = np.take(head, hx * heads + hy, axis=0)
        out += np.take(tail, tx * q + ty, axis=0)
        return out

    return lines


def _row_pairs(mask, lines):
    """Per x, the admissible y: mask[x, y] and y outside span(x); none at
    x = 0."""
    import numpy as np

    P, p = lines.shape
    if mask is None:
        rows = np.full(P, P - p, dtype=np.int64)
    else:
        rows = np.count_nonzero(mask, axis=1) - np.count_nonzero(
            np.take_along_axis(mask, lines, axis=1), axis=1)
    rows[0] = 0
    return rows


def _blocks(cells, cap):
    """Runs [lo, hi) of consecutive rows: a run takes rows while the cells
    before it stay under the cap, so it holds at most the cap plus one
    row's cells."""
    import numpy as np

    before = np.cumsum(cells) - cells
    edges = [0, *(np.flatnonzero(np.diff(before // cap)) + 1).tolist(),
             len(cells)]
    return zip(edges[:-1], edges[1:])


def _type_sums(mask, types, T):
    """(P, T): per y, the z of each type with mask[y, z], counted
    fp.BLOCK_CELLS cells of rows at a time."""
    import numpy as np

    P = len(types)
    if mask is None:
        return np.tile(np.bincount(types, minlength=T), (P, 1))
    if T == 1:
        return np.count_nonzero(mask, axis=1)[:, None]
    rows = max(1, fp.BLOCK_CELLS // P)
    return np.concatenate([
        np.stack([np.count_nonzero(mask[lo:lo + rows, types == t], axis=1)
                  for t in range(T)], axis=1)
        for lo in range(0, P, rows)])


def count_pairs(d, p, mask, box):
    """Charge (P - 1) * P evaluations, then count the admissible (x, y)
    pairs: x nonzero, y outside span(x) and, when there is a pair mask,
    mask[x, y]."""
    import numpy as np

    P = p ** d
    spend(box, (P - 1) * P)
    lines = _line_finder(d, p)(np.zeros(P, dtype=np.int64), np.arange(P))
    return int(_row_pairs(mask, lines).sum())


def count_triples(d, p, mask, box, tensors=None, types=None,
                  want_list=False):
    """The triple scan over F_p^d.  `mask` is the pair mask (None: every pair
    admissible); `tensors` are the s3 triple tensors, whose vanishing on
    (x, y, z) replaces mask[y, z].  Returns the count, the (x, y, z) index
    triples in lexicographic order as an (m, 3) int32 array when
    `want_list` (one array per block, joined once), and a (T, T) tally of
    triples by (type of x, type of z) for the int `types` of each vector.

    span(x, y) is 0, the b y with b != 0, and the a (x + b y) with a != 0.
    Scaling by a != 0 keeps both mask[y, .] and the type, so z is counted
    per pair as the z with mask[y, z] outside span(y), less p - 1 times
    the hits on the line x + b y: p lookups per pair, not p^2."""
    import numpy as np

    from .forms import zero_cup_table

    P = p ** d
    line_of = _line_finder(d, p)
    every = np.arange(P)
    lines = line_of(np.zeros(P, dtype=np.int64), every)  # (P, p): the b x
    row_pairs = _row_pairs(mask, lines)
    spend(box, int(row_pairs.sum()) * P
          * (1 if tensors is None else len(tensors)))

    if types is None:
        types = np.zeros(P, dtype=np.int64)
    T = int(types.max()) + 1
    dense = want_list or tensors is not None  # build each pair's z-mask row
    if tensors is not None:
        # z is admissible when it pairs to zero with w = x T y under the dot
        # product, for each trace tensor T: the row of w's index
        V = vectors_array(d, p)
        dot = zero_cup_table([np.eye(d, dtype=np.int64)], V, p)
        powers = p ** np.arange(d - 1, -1, -1)
    else:
        flat = None if mask is None else mask.ravel()
        # per y: the z of each type with mask[y, z] outside span(y), that is
        # less z = 0 and, when mask[y, y], the p - 1 multiples b y
        free = _type_sums(mask, types, T)
        free[:, types[0]] -= 1
        free[every, types] -= (p - 1) * (
            np.ones(P, dtype=bool) if mask is None else mask.diagonal())
        pair_ys = np.zeros(T * P, dtype=np.int64)  # pairs per (type of x, y)
    # per block: the y-mask rows, then a line per pair or a z-mask row
    cells = P + row_pairs[1:] * (P if dense else p)
    tally = np.zeros((T, T), dtype=np.int64)
    listing = [np.empty((0, 3), dtype=np.int32)]
    for lo, hi in _blocks(cells, fp.BLOCK_CELLS):
        lo, hi = lo + 1, hi + 1  # x = 0 has no pairs
        ymask = (np.ones((hi - lo, P), dtype=bool) if mask is None
                 else mask[lo:hi].copy())
        np.put_along_axis(ymask, lines[lo:hi], False, axis=1)
        pairs = np.flatnonzero(ymask)
        rows, iy = np.divmod(pairs, P)
        ix = rows + lo
        line = line_of(ix, iy)  # (pairs, p)
        tx = types[ix]
        if not dense:
            pair_ys += np.bincount(tx * P + iy, minlength=T * P)
            hit = np.ones(line.shape, dtype=bool) if mask is None else (
                np.take(flat, line + (iy * P)[:, None]))
            if T == 1:
                tally[0, 0] -= (p - 1) * np.count_nonzero(hit)
            else:
                key = types[line] + (tx * T)[:, None]
                tally -= (p - 1) * np.bincount(
                    key[hit], minlength=T * T).reshape(T, T)
            continue
        if tensors is not None:
            zmask = np.ones((len(ix), P), dtype=bool)
            for t in tensors:
                # per x of the block, the index of w = (x T) y for every y
                xt = V[lo:hi] @ t.reshape(d, d * d) % p
                w = np.matmul(V, xt.reshape(-1, d, d)) % p @ powers
                zmask &= dot[np.take(w, pairs)]
        else:
            zmask = np.ones((len(ix), P), dtype=bool) if mask is None else mask[iy]
        # off span(x, y): the multiples of the line and of y
        base = (np.arange(len(ix)) * P)[:, None]
        span = np.take(lines, line, axis=0).reshape(-1, p * p)
        zmask.ravel()[base + span] = False
        zmask.ravel()[base + np.take(lines, iy, axis=0)] = False
        if T == 1 and not want_list:
            tally[0, 0] += np.count_nonzero(zmask)
            continue
        rows, iz = np.divmod(np.flatnonzero(zmask), P)
        tally += np.bincount(tx[rows] * T + types[iz],
                             minlength=T * T).reshape(T, T)
        if want_list:
            listing.append(np.stack((ix[rows], iy[rows], iz), axis=1)
                           .astype(np.int32))
    if not dense:
        tally += pair_ys.reshape(T, P) @ free
    return (int(tally.sum()), np.concatenate(listing) if want_list else None,
            tally)
