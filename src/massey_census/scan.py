"""The census triple scan over F_p^d: the pair and triple counts by ranks,
and the walk that fills a listing.

The pair mask is reflexive, mask[x, y] = mask[y, x]: every Gram array is
symmetric or skew-symmetric mod p, as a cup pairing is, and the scan
refuses any other.  So counts read off y alone, and the row of y is the
kernel of its stacked Gram rows y G_i: of the vectors zero off a set S of
coordinates, p^(|S| - rank((y G)_S)) pair to zero with y, (y G)_S the
S-columns of the y G_i, and mask[y, y] is y G_i y^T = 0 for every i.  The
P x P mask is never built to count.  Let h(y) be the vectors of span(y)
that pair to zero with y, p when mask[y, y] and else 1 (just 0), and
f(y) = rowsum(y) - h(y), with f(0) = 0: the vectors outside span(y) that
pair to zero with y, whether they stand as x or as z.  An admissible pair
(x, y) has x nonzero, y outside span(x) and mask[x, y]; a triple adds a z
outside span(x, y) with mask[y, z].  The z of span(x, y) outside span(y)
are the a (x + b y), a != 0, and mask[y, x + b y] = mask[y, b y] for
b != 0, so (p - 1) h(y) of them pair to zero with y, whatever x is:

    pairs = sum_y f(y),    triples = sum_y f(y) (f(y) - (p - 1) h(y)).

The same sum counts the triples whose x and z lie in W, the vectors zero
off S, y anywhere.  Take the row sum over W, and h_W(y) = p when mask[y, y]
and y is in W, else 1.  With x in W, a (x + b y) lies in W exactly when
b = 0 or y is in W, so N(W) = sum_y f_W(y) (f_W(y) - (p - 1) h_W(y)).  A
term depends on y only through its class, the row sum, mask[y, y] and
whether y lies in W, so each sum runs over the classes, weighted by their
sizes, in python ints: exact past 2^63.  Without a Gram array every row sum
is |W|, and the classes are sized from P and |W| alone.

Every one of these terms is constant on the lines through 0, so the counts
rank one point per line, the (P - 1) / (p - 1) nonzero vectors whose first
nonzero coordinate is 1 (`_points`), and a point's class stands for its
p - 1 nonzero multiples; y = 0 has f(0) = 0 and drops out.

For the s3 triple tensors T_k every pair (x, y), x nonzero and y outside
span(x), stands, and its z are the kernel of W, the stack of the vectors
x T_k y, outside span(x, y): p^(d - rank W) - p^(2 - rank [W x^T | W y^T])
of them, the second term counting the a x + b y in the kernel.  These
terms are constant on lines too, so x and y run over pairs of distinct
points, each standing for (p - 1)^2 pairs (x, y), all ranks of a slice of
x in one zero-padded `fp.rank_mod` call (`_s3_count`).

A listing is allocated once at the count and filled by one walk (`_walk`)
off tables built per call: dot, u . v = 0, and add, the index of u + v,
both P x P, and times, the P x p indices of the multiples a v.  Every
admissible set is then a kernel minus a span: the mask row of x is the
AND of the dot rows of the x G_i, an s3 pair's z-row the AND of the dot
rows of the x T_k y, and span(x, y) the sums of the multiples of x and of
y.  The walk takes the nonzero x in blocks of whole rows, each holding
about fp.BLOCK_CELLS array cells.  The budget counts primitive form
evaluations (P per admissible pair and relator, P * P per Gram array),
charged before the triples are counted: the work over every vector,
however few points the counts rank.  The census imports this module where
a scan runs, and its functions import numpy where they run, so a
closed-form count loads neither."""

from __future__ import annotations

import functools

from . import fp
from .fp import BudgetError, rank_mod, vectors_array


def spend(box, amount):
    """Charge `amount` to the [spent, allowed] budget box; raise BudgetError
    past it."""
    box[0] += amount
    if box[0] > box[1]:
        raise BudgetError(
            f"enumeration needs ~{box[0]} primitive form evaluations, over the "
            f"budget {box[1]}; use a closed-form method or raise the budget"
        )


def _reflexive_grams(d, p, grams):
    """The Gram arrays as d x d int64 arrays mod p.  Each must have integer
    entries and be symmetric or skew-symmetric mod p, so that its zero
    pairing is reflexive, (x, y) = 0 exactly when (y, x) = 0, as a cup
    pairing's is (the cup product is graded-commutative); every count here
    rests on that.  ValueError names the first array that is not."""
    import numpy as np

    p = fp.check_prime(p)
    out = []
    for i, gram in enumerate(grams):
        a = np.asarray(gram)
        if a.dtype.kind not in "biu":
            raise ValueError(f"Gram array {i} has non-integer entries "
                             f"({a.dtype})")
        if a.shape != (d, d):
            raise ValueError(f"Gram array {i} has shape {a.shape}, not "
                             f"({d}, {d})")
        a = a.astype(np.int64) % p
        if (a != a.T).any() and ((a + a.T) % p).any():
            raise ValueError(f"Gram array {i} is neither symmetric nor "
                             f"skew-symmetric mod p = {p}: its zero pairing "
                             f"is not reflexive")
        out.append(a)
    return out


@functools.lru_cache(maxsize=None)
def _points(d, p):
    """(n, d) int8, read-only, n = (p^d - 1) / (p - 1): one point per line
    through 0 of F_p^d, the nonzero vectors whose first nonzero coordinate
    is 1, in index order.  Their indices are the runs [p^k, 2 p^k), so at
    p = 2, where every nonzero vector is its own point, the table is the
    slice V[1:].  Built once per (d, p)."""
    import numpy as np

    V = vectors_array(d, p)
    if p == 2:
        out = V[1:]
    else:
        out = V[np.concatenate([np.arange(p ** k, 2 * p ** k)
                                for k in range(d)])]
    out.flags.writeable = False
    return out


def _classes(d, p, grams, box, spaces=()):
    """Per space, the whole space first: the classes of y as (f, h, n), n
    vectors y with f_W(y) = f and h_W(y) = h (see the module notes).  Each
    W is a block of coordinates, S in `spaces` a (d,) boolean mask of the
    coordinates it leaves free: |W| = p^|S|, and y lies in W when it is
    zero off S.  A row sum is p^(|S| - rank((y G)_S)), G the stacked Gram
    arrays, ranked at the points (`_points`) a slice of y at a time, about
    fp.BLOCK_CELLS cells each, every space's columns zero-padded into one
    `rank_mod` call; a point's class holds its p - 1 nonzero multiples.
    Charges P * P per Gram array, the scan's only charge for the mask.
    Without a Gram array the classes are sized from P and |W|, and nothing
    P long is built."""
    import numpy as np

    grams = _reflexive_grams(d, p, grams)
    P = p ** d
    masks = np.array([[True] * d, *spaces], dtype=bool)
    free = np.count_nonzero(masks, axis=1)
    if not grams:
        # every row sum is |W|: h_W(y) = p for y in W, 1 off it; y = 0
        # has f(0) = 0 and adds nothing
        return [[(Q - p, p, Q - 1), (Q - 1, 1, P - Q)]
                for Q in (p ** k for k in free.tolist())]
    for _ in grams:
        spend(box, P * P)
    V = _points(d, p)
    sizes = p ** free[:, None]
    r = len(grams)
    # y @ G is every y G_i side by side
    G = np.stack(grams).transpose(1, 0, 2).reshape(d, r * d)
    sums = np.empty((len(masks), len(V)), dtype=np.int64)
    diag = np.empty(len(V), dtype=bool)
    step = max(1, fp.BLOCK_CELLS // (len(masks) * r * d))
    for lo in range(0, len(V), step):
        y = V[lo:lo + step]
        yG = (y @ G % p).reshape(len(y), r, d)
        diag[lo:lo + len(y)] = ~(np.einsum("nkd,nd->nk", yG, y) % p).any(1)
        # per space, the y G_i with the columns off S zeroed
        stack = yG.astype(np.int16)[:, None] * masks[:, None]
        sums[:, lo:lo + len(y)] = sizes // p ** rank_mod(stack, p).T
    out = []
    for row, S in zip(sums, masks):
        h = np.where(diag & ~V[:, ~S].any(axis=1), p, 1)
        counts = np.bincount(2 * (row - h) + (h > 1))
        keys = np.flatnonzero(counts)
        out.append([(k >> 1, p if k & 1 else 1, (p - 1) * n)
                    for k, n in zip(keys.tolist(), counts[keys].tolist())])
    return out


def count_pairs(d, p, grams, box):
    """Count the admissible (x, y) pairs: x nonzero, y outside span(x) and
    every Gram array pairing (x, y) to zero.  There are sum_y f(y) of them
    (the module notes).  Charges the pair mask, then (P - 1) * P
    evaluations."""
    [classes] = _classes(d, p, grams, box)
    spend(box, (p ** d - 1) * p ** d)
    return sum(f * n for f, _h, n in classes)


def _s3_count(d, p, tensors):
    """The triple count of the s3 tensors, from the ranks of the module
    notes.  x and y run over the points (`_points`): a slice of x takes
    every point y but its own, and each pair of points stands for the
    (p - 1)^2 pairs of their multiples."""
    import numpy as np

    V = _points(d, p).astype(np.int16)
    L, r = len(V), len(tensors)  # L points, one per line
    width = max(d, 2)
    # x @ T is every x T_k side by side, as (d, r * d) per x
    T = np.stack(tensors).transpose(1, 2, 0, 3).reshape(d, d * r * d)
    count = 0
    # per pair of points, the stack's two slots and W beside them
    step = max(1, fp.BLOCK_CELLS // (L * r * width * 3))
    for lo in range(0, L, step):
        x = V[lo:lo + step]
        n = len(x)
        keep = np.ones((n, L), dtype=bool)  # y another point than x
        keep[np.arange(n), np.arange(lo, lo + n)] = False
        xT = (x @ T % p).astype(np.int16).reshape(n, d, r, d)
        W = (V @ xT.reshape(n, d, r * d)).reshape(n, L, r, d)
        W -= W // p * p
        # W x^T = y (x T_k x^T), and W y^T per y
        Wx = V @ ((xT @ x[:, None, :, None]) % p).reshape(n, d, r)
        Wy = (W.transpose(1, 0, 2, 3).reshape(L, n * r, d)
              @ V[:, :, None]).reshape(L, n, r).transpose(1, 0, 2)
        # W, then [W x^T | W y^T]
        stack = np.zeros((n, L, 2, r, width), dtype=np.int16)
        stack[:, :, 0, :, :d] = W
        stack[:, :, 1, :, 0] = Wx
        stack[:, :, 1, :, 1] = Wy
        ranks = rank_mod(stack, p)
        z = p ** (d - ranks[:, :, 0]) - p ** (2 - ranks[:, :, 1])
        count += int(z[keep].sum())
    return (p - 1) ** 2 * count


def _blocks(cells, cap):
    """Runs [lo, hi) of consecutive rows: a run takes rows while the cells
    before it stay under the cap, so it holds at most the cap plus one
    row's cells."""
    import numpy as np

    before = np.cumsum(cells) - cells
    edges = [0, *(np.flatnonzero(np.diff(before // cap)) + 1).tolist(),
             len(cells)]
    return zip(edges[:-1], edges[1:])


def _walk(d, p, grams, tensors, listing):
    """Fill `listing`, an (m, 3) int32 array as long as the triple count,
    with the (x, y, z) in lexicographic order, off the index tables of the
    module notes: a block of x at a time, all its admissible (x, y) pairs
    at once, and per pair a z-mask row, mask[y, z] or the AND over the
    tensors of the dot rows of x T_k y, off span(x, y).  Charges nothing:
    the count it fills was charged."""
    import numpy as np

    P = p ** d
    V = vectors_array(d, p)
    powers = p ** np.arange(d - 1, -1, -1)
    every = np.arange(P, dtype=np.int32)
    a = np.arange(p, dtype=np.int8)
    plus, prod = (a[:, None, None] + a) % p, a[:, None, None] * a % p
    add, dot = np.zeros((1, 1), np.int32), np.zeros((1, 1), np.int8)
    for n in p ** np.arange(1, d + 1):  # digit by digit, first one highest
        add = (add[:, None, :, None] * p + plus).reshape(n, n)
        dot = ((dot[:, None, :, None] + prod) % p).reshape(n, n)
    dot = dot == 0
    times = (np.arange(p)[:, None] * V[:, None, :] % p) @ powers  # (P, p)
    mask = np.broadcast_to(True, (P, P))
    for gram in grams:
        mask = mask & dot[V @ gram % p @ powers]
    at = 0
    for lo, hi in _blocks((mask[1:].sum(axis=1) + 1) * P, fp.BLOCK_CELLS):
        lo, hi = lo + 1, hi + 1  # x = 0 has no pairs
        ymask = mask[lo:hi].copy()
        np.put_along_axis(ymask, times[lo:hi], False, axis=1)
        pairs = np.flatnonzero(ymask)
        rows, iy = np.divmod(pairs, P)
        ix = rows + lo
        if tensors is None:
            zmask = mask[iy]
        for k, t in enumerate(tensors or ()):
            # per x of the block, the index of w = (x T) y for every y
            xt = V[lo:hi] @ t.reshape(d, d * d) % p
            w = np.matmul(V, xt.reshape(-1, d, d)) % p @ powers
            rows_w = dot[np.take(w, pairs)]
            zmask = np.logical_and(zmask, rows_w, out=zmask) if k else rows_w
        # off span(x, y): every a x + b y
        span = np.take(add, (times[ix] * P)[:, :, None] + times[iy][:, None])
        zmask.ravel()[(np.arange(len(ix)) * P)[:, None]
                      + span.reshape(-1, p * p)] = False
        # int32 columns in zmask's row-major order: x and y once per z of
        # their pair, then the z themselves
        found = np.count_nonzero(zmask)
        piece, at = listing[at:at + found], at + found
        per_pair = np.count_nonzero(zmask, axis=1)
        piece[:, 0] = np.repeat(ix.astype(np.int32), per_pair)
        piece[:, 1] = np.repeat(iy.astype(np.int32), per_pair)
        piece[:, 2] = np.broadcast_to(every, zmask.shape)[zmask]
    assert at == len(listing), (at, len(listing))


def count_triples(d, p, grams, box, tensors=None, spaces=(),
                  want_list=False):
    """The triple scan over F_p^d.  `grams` are the Gram arrays of the pair
    mask (none: every pair admissible); `tensors` are the s3 triple tensors,
    whose vanishing on (x, y, z) replaces mask[y, z], and take no Gram
    array and no subspace.  Returns the count, the (x, y, z) index triples
    in lexicographic order as an (m, 3) int32 array when `want_list`, and
    per block of coordinates W, S in `spaces` a (d,) boolean mask of the
    coordinates it leaves free, the count N(W) of the triples whose x and z
    lie in it.

    The pair counts come from ranks (`_classes`, charged there), then the
    scan is charged in full.  Without tensors the counts are the per-y
    class sums of the module notes; with them, `_s3_count`.  A listing is
    then allocated at the count and filled by one `_walk`."""
    import numpy as np

    if tensors is not None and (len(grams) or len(spaces)):
        raise ValueError("the s3 triple tensors scan with no Gram array and "
                         "no subspace")
    classes = _classes(d, p, grams, box, spaces)
    pairs = sum(f * n for f, _h, n in classes[0])
    spend(box, pairs * p ** d * (1 if tensors is None else len(tensors)))
    if tensors is None:
        count, *on = [sum(n * f * (f - (p - 1) * h) for f, h, n in c)
                      for c in classes]
    else:
        count, on = _s3_count(d, p, tensors), []
    listing = None
    if want_list:
        listing = np.empty((count, 3), dtype=np.int32)
        _walk(d, p, grams, tensors, listing)
    return count, listing, on
