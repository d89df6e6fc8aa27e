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

Every scan first streams the row sums and mask[y, y] off each block of
rows as it is built, never holding the whole mask (`pair_rows`), and
charges the budget in full.  It then counts: by the per-y sums above, or,
for the s3 triple tensors, by one walk (`_walk`), which builds the whole
mask and walks the nonzero x in blocks of whole rows, each holding about
fp.BLOCK_CELLS array cells, taking all admissible (x, y) pairs of a block
at once; the p indices of the line x + b y come from two small tables, one
per half of the coordinates.  A listing is allocated once, at that count,
and filled by the walk.  The budget counts primitive form evaluations
(P per admissible pair and relator, P * P per Gram array) and is charged
before any block is walked.  The census imports this module where a scan
runs, and its functions import numpy where they run, so a closed-form
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


def pair_rows(d, p, grams, box, spaces=()):
    """Per y, the pair mask's row sums over the whole space and then over
    each subspace in `spaces` (boolean masks over F_p^d), as a
    (1 + len(spaces), P) array, and the diagonal mask[y, y].  They are read
    off one block of rows at a time as `forms.zero_cup_blocks` builds the
    mask, so the whole (P, P) table is never held.  Charges P * P per Gram
    array, the scan's only charge for the mask."""
    import numpy as np

    from .forms import zero_cup_blocks

    grams = _reflexive_grams(d, p, grams)
    P = p ** d
    if not grams:
        sums = np.array([P, *map(np.count_nonzero, spaces)])[:, None]
        return np.broadcast_to(sums, (len(sums), P)), np.ones(P, bool)
    for _ in grams:
        spend(box, P * P)
    columns = [slice(None), *map(np.flatnonzero, spaces)]
    sums = np.empty((len(columns), P), dtype=np.int64)
    diag = np.empty(P, dtype=bool)
    for lo, run in zero_cup_blocks(grams, vectors_array(d, p), p):
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


def _exact_dot(a, b):
    """a @ b as a Python int, for int64 arrays whose products lie in
    [0, len(a)^2], as f(y) (f(y) - (p - 1) h(y)) does (f(y) <= P, and the
    second factor lies in [0, f(y)] when f(y) > 0).  The sum may pass 2^63,
    so it is taken in int64 chunks of 2^62 // len(a)^2 products."""
    k = max(1, 2 ** 62 // len(a) ** 2)
    return sum(int(a[i:i + k] @ b[i:i + k]) for i in range(0, len(a), k))


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


def _walk(d, p, grams, tensors, f, spaces=(), listing=None):
    """Walk the nonzero x in blocks of whole rows, each holding about
    fp.BLOCK_CELLS array cells: take all admissible (x, y) pairs of a block
    at once and build a z-mask row per pair, mask[y, z], or the vanishing of
    every tensor in `tensors` on (x, y, z), off span(x, y).  `f` is f(x) of
    `_free`.  Returns the triple count and then N(W) per subspace W in
    `spaces`; fills `listing`, an (m, 3) int32 array as long as the count,
    with the (x, y, z) in lexicographic order.  Charges nothing: the whole
    mask it gathers from is the one `pair_rows` charged."""
    import numpy as np

    from .forms import zero_cup_table

    P = p ** d
    V = vectors_array(d, p)
    mask = zero_cup_table(grams, V, p)  # all true without a Gram array
    line_of = _line_finder(d, p)
    every = np.arange(P)
    lines = line_of(np.zeros(P, dtype=np.int64), every)  # (P, p): the b x
    if tensors is not None:
        # z is admissible when it pairs to zero with w = x T y under the dot
        # product, for each trace tensor T: the row of w's index
        dot = zero_cup_table([np.eye(d, dtype=np.int64)], V, p)
        powers = p ** np.arange(d - 1, -1, -1)
    counts, at = [0] * (1 + len(spaces)), 0
    for lo, hi in _blocks((f[1:] + 1) * P, fp.BLOCK_CELLS):
        lo, hi = lo + 1, hi + 1  # x = 0 has no pairs
        ymask = mask[lo:hi].copy()
        np.put_along_axis(ymask, lines[lo:hi], False, axis=1)
        pairs = np.flatnonzero(ymask)
        rows, iy = np.divmod(pairs, P)
        ix = rows + lo
        if tensors is None:
            zmask = mask[iy]
        for k, t in enumerate(tensors or ()):
            # per x of the block, the index of w = (x T) y for every y; the
            # first tensor's dot rows start the z-mask
            xt = V[lo:hi] @ t.reshape(d, d * d) % p
            w = np.matmul(V, xt.reshape(-1, d, d)) % p @ powers
            rows_w = dot[np.take(w, pairs)]
            zmask = np.logical_and(zmask, rows_w, out=zmask) if k else rows_w
        # off span(x, y): the multiples of the line and of y
        base = (np.arange(len(ix)) * P)[:, None]
        span = np.take(lines, line_of(ix, iy), axis=0).reshape(-1, p * p)
        zmask.ravel()[base + span] = False
        zmask.ravel()[base + np.take(lines, iy, axis=0)] = False
        found = np.count_nonzero(zmask)
        counts[0] += found
        for k, space in enumerate(spaces, 1):
            counts[k] += np.count_nonzero(zmask[space[ix]][:, space])
        if listing is None:
            continue
        # int32 columns in zmask's row-major order: x and y once per z of
        # their pair, then the z themselves
        piece, at = listing[at:at + found], at + found
        per_pair = np.count_nonzero(zmask, axis=1)
        piece[:, 0] = np.repeat(ix.astype(np.int32), per_pair)
        piece[:, 1] = np.repeat(iy.astype(np.int32), per_pair)
        piece[:, 2] = np.broadcast_to(every.astype(np.int32),
                                      zmask.shape)[zmask]
    return counts


def count_triples(d, p, grams, box, tensors=None, spaces=(),
                  want_list=False):
    """The triple scan over F_p^d.  `grams` are the Gram arrays of the pair
    mask (none: every pair admissible); `tensors` are the s3 triple tensors,
    whose vanishing on (x, y, z) replaces mask[y, z].  Returns the count,
    the (x, y, z) index triples in lexicographic order as an (m, 3) int32
    array when `want_list`, and per subspace W in `spaces` (boolean masks
    over F_p^d) the count N(W) of the triples whose x and z lie in W.

    The pair mask's rows are streamed and charged once (`pair_rows`), then
    the scan is charged in full.  Without tensors the counts are the per-y
    sums of the module notes; with them, one `_walk`.  A listing is then
    allocated at the count and filled by one more walk."""
    import numpy as np

    P = p ** d
    sums, diag = pair_rows(d, p, grams, box, spaces)
    free = [_free(p, row, diag & w) for row, w in zip(sums, [True, *spaces])]
    f = free[0][0]  # f[x]: the admissible y of x
    spend(box, int(f.sum()) * P * (1 if tensors is None else len(tensors)))
    if tensors is None:
        counts = [_exact_dot(f, f - (p - 1) * h) for f, h in free]
    else:
        counts = _walk(d, p, grams, tensors, f, spaces)
    listing = None
    if want_list:
        listing = np.empty((counts[0], 3), dtype=np.int32)
        _walk(d, p, grams, tensors, f, listing=listing)
    return counts[0], listing, counts[1:]
