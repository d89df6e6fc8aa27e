"""The census triple scan over F_p^d: the pair mask, the admissible pairs
and the triple-counting kernel.

The pair mask is reflexive, mask[x, y] = mask[y, x]: every Gram array is
symmetric or skew-symmetric mod p, as a cup pairing is, and the scan
refuses any other.  So counts read off y alone.  Let h(y) be the vectors
of span(y) that pair to zero with y, p when mask[y, y] and else 1 (just 0),
and f(y) = rowsum(y) - h(y), with f(0) = 0: the vectors outside span(y)
that pair to zero with y, whether they stand as x or as z.  An admissible
pair (x, y) has x nonzero, y outside span(x) and mask[x, y]; a triple adds
a z outside span(x, y) with mask[y, z].  The z of span(x, y) outside
span(y) are the a (x + b y), a != 0, and mask[y, x + b y] = mask[y, b y]
for b != 0, so (p - 1) h(y) of them pair to zero with y, whatever x is:

    pairs = sum_y f(y),    triples = sum_y f(y) (f(y) - (p - 1) h(y)).

The same sum counts the triples whose x and z lie in a subspace W, y
anywhere.  Take the row sum over W's columns, and h_W(y) = p when mask[y, y]
and y is in W, else 1: the vectors of span(y) in W are all of span(y) when
y is in W and just 0 otherwise.  With x in W, a (x + b y) lies in W exactly
when b = 0 or y is in W, so (p - 1) h_W(y) of the z above lie in W and
pair to zero with y, and N(W) = sum_y f_W(y) (f_W(y) - (p - 1) h_W(y)).

These counts read the row sums and mask[y, y] off each block of rows as it
is built and never hold the whole mask (`pair_rows`).  A listing and the
s3 triple tensors need each pair, so they build the mask and walk the
nonzero x in blocks of whole rows, each holding about fp.BLOCK_CELLS array
cells, taking all admissible (x, y) pairs of a block at once; the p
indices of the line x + b y come from two small tables, one per half of
the coordinates (see `count_triples`).  The budget counts primitive form
evaluations (P per admissible pair and relator, P * P per pair-mask array)
and is charged in full before any block is walked.  The census imports
this module where a scan runs, and its functions import numpy where they
run, so a closed-form count loads neither."""

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


def _charged_space(d, p, grams, box):
    """F_p^d as `vectors_array`, after charging P * P per Gram array."""
    V = vectors_array(d, p)
    for _ in grams:
        spend(box, len(V) ** 2)
    return V


def pair_mask(d, p, grams, box):
    """The (P, P) boolean table over F_p^d, rows x and columns y, true when
    every Gram array pairs (x, y) to zero.  None if there is no array."""
    from .forms import zero_cup_table

    grams = _reflexive_grams(d, p, grams)
    if not grams:
        return None
    return zero_cup_table(grams, _charged_space(d, p, grams, box), p)


def _mask_rows(mask, P):
    """Per x, the row sum of the pair mask and its diagonal entry
    mask[x, x]; every entry is true when there is no mask."""
    import numpy as np

    if mask is None:
        return np.full(P, P, dtype=np.int64), np.ones(P, dtype=bool)
    return np.count_nonzero(mask, axis=1), mask.diagonal()


def pair_rows(d, p, grams, box, spaces=()):
    """Per y, the pair mask's row sums over the whole space and then over
    each subspace in `spaces` (boolean masks over F_p^d), as a
    (1 + len(spaces), P) array, and the diagonal mask[y, y].  They are read
    off one block of rows at a time as `forms.zero_cup_blocks` builds the
    mask, so the whole (P, P) table is never held.  Charged as
    `pair_mask`."""
    import numpy as np

    from .forms import zero_cup_blocks

    grams = _reflexive_grams(d, p, grams)
    P = p ** d
    if not grams:
        sums = [P, *map(np.count_nonzero, spaces)]
        return np.repeat(np.array(sums)[:, None], P, axis=1), np.ones(P, bool)
    columns = [slice(None), *map(np.flatnonzero, spaces)]
    sums = np.empty((len(columns), P), dtype=np.int64)
    diag = np.empty(P, dtype=bool)
    for lo, run in zero_cup_blocks(grams, _charged_space(d, p, grams, box),
                                   p):
        hi = lo + len(run)
        for row, at in zip(sums, columns):
            row[lo:hi] = np.count_nonzero(run[:, at], axis=1)
        diag[lo:hi] = run[:, lo:hi].diagonal()
    return sums, diag


def _free(p, sums, diag):
    """Per y, f(y), the vectors that pair to zero with y outside span(y),
    and h(y), the vectors of span(y) that do: p when mask[y, y], else 1
    (just 0); f(0) = 0.  By reflexivity f(y) counts both the x and the z
    that pair with y."""
    import numpy as np

    h = np.where(diag, p, 1)
    f = sums - h
    f[0] = 0
    return f, h


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


def _blocks(cells, cap):
    """Runs [lo, hi) of consecutive rows: a run takes rows while the cells
    before it stay under the cap, so it holds at most the cap plus one
    row's cells."""
    import numpy as np

    before = np.cumsum(cells) - cells
    edges = [0, *(np.flatnonzero(np.diff(before // cap)) + 1).tolist(),
             len(cells)]
    return zip(edges[:-1], edges[1:])


def count_pairs(d, p, grams, box):
    """Count the admissible (x, y) pairs: x nonzero, y outside span(x) and
    every Gram array pairing (x, y) to zero.  There are sum_y f(y) of them
    (`_free`).  Charges the pair mask, then (P - 1) * P evaluations."""
    (sums,), diag = pair_rows(d, p, grams, box)
    spend(box, (p ** d - 1) * p ** d)
    return int(_free(p, sums, diag)[0].sum())


def count_triples(d, p, grams, box, tensors=None, spaces=(),
                  want_list=False):
    """The triple scan over F_p^d.  `grams` are the Gram arrays of the pair
    mask (none: every pair admissible); `tensors` are the s3 triple tensors,
    whose vanishing on (x, y, z) replaces mask[y, z].  Returns the count,
    the (x, y, z) index triples in lexicographic order as an (m, 3) int32
    array when `want_list`, and per subspace W in `spaces` (boolean masks
    over F_p^d) the count N(W) of the triples whose x and z lie in W.

    Without tensors or a listing every count is the per-y sum of the module
    notes, read off the pair mask's rows as they are built.  Otherwise the
    whole mask is built and the nonzero x are walked in blocks of whole
    rows, for the whole space only: `spaces` must be empty.  A listing off
    the mask is allocated once at the per-y count and filled block by
    block; s3 pieces are joined once."""
    import numpy as np

    from .forms import zero_cup_table

    P = p ** d
    if tensors is None and not want_list:
        sums, diag = pair_rows(d, p, grams, box, spaces)
        free = [_free(p, row, diag & w)
                for row, w in zip(sums, [True, *spaces])]
        spend(box, int(free[0][0].sum()) * P)
        count, *on = (int(f @ (f - (p - 1) * h)) for f, h in free)
        return count, None, on
    mask = pair_mask(d, p, grams, box)
    f, h = _free(p, *_mask_rows(mask, P))  # f[x]: the admissible y of x
    spend(box, int(f.sum()) * P * (1 if tensors is None else len(tensors)))
    line_of = _line_finder(d, p)
    every = np.arange(P)
    lines = line_of(np.zeros(P, dtype=np.int64), every)  # (P, p): the b x
    if tensors is None:  # a listing as long as the per-y count
        listing, at = np.empty((int(f @ (f - (p - 1) * h)), 3),
                               dtype=np.int32), 0
    else:
        # z is admissible when it pairs to zero with w = x T y under the dot
        # product, for each trace tensor T: the row of w's index
        V = vectors_array(d, p)
        dot = zero_cup_table([np.eye(d, dtype=np.int64)], V, p)
        powers = p ** np.arange(d - 1, -1, -1)
        count, pieces = 0, [np.empty((0, 3), dtype=np.int32)]
    # per block: the y-mask rows, then a z-mask row per pair
    for lo, hi in _blocks((f[1:] + 1) * P, fp.BLOCK_CELLS):
        lo, hi = lo + 1, hi + 1  # x = 0 has no pairs
        ymask = (np.ones((hi - lo, P), dtype=bool) if mask is None
                 else mask[lo:hi].copy())
        np.put_along_axis(ymask, lines[lo:hi], False, axis=1)
        pairs = np.flatnonzero(ymask)
        rows, iy = np.divmod(pairs, P)
        ix = rows + lo
        if tensors is None:
            zmask = (np.ones((len(ix), P), dtype=bool) if mask is None
                     else mask[iy])
        else:
            zmask = np.ones((len(ix), P), dtype=bool)
            for t in tensors:
                # per x of the block, the index of w = (x T) y for every y
                xt = V[lo:hi] @ t.reshape(d, d * d) % p
                w = np.matmul(V, xt.reshape(-1, d, d)) % p @ powers
                zmask &= dot[np.take(w, pairs)]
        # off span(x, y): the multiples of the line and of y
        base = (np.arange(len(ix)) * P)[:, None]
        span = np.take(lines, line_of(ix, iy), axis=0).reshape(-1, p * p)
        zmask.ravel()[base + span] = False
        zmask.ravel()[base + np.take(lines, iy, axis=0)] = False
        found = np.count_nonzero(zmask)
        if tensors is None:
            piece, at = listing[at:at + found], at + found
        else:
            count += found
            if not want_list:
                continue
            piece = np.empty((found, 3), dtype=np.int32)
            pieces.append(piece)
        # int32 columns in zmask's row-major order: x and y once per z of
        # their pair, then the z themselves
        per_pair = np.count_nonzero(zmask, axis=1)
        piece[:, 0] = np.repeat(ix.astype(np.int32), per_pair)
        piece[:, 1] = np.repeat(iy.astype(np.int32), per_pair)
        piece[:, 2] = np.broadcast_to(every.astype(np.int32),
                                      zmask.shape)[zmask]
    if tensors is None:
        return len(listing), listing, []
    return count, np.concatenate(pieces) if want_list else None, []
