"""The cup pairing and the triple form of a presentation, read off its
relators' corners in U_3(F_p) and U_4(F_p); chains of characters with
vanishing consecutive cups; the trace form of a deep-commutator relator
tensor spelled out term by term; symbol tables and the input-file loader."""

from __future__ import annotations

import json

from . import fp
from .fp import check_prime, rank_mod, vectors_array
from .unipotent import fp_ring, mul_recipe, walk_word
from .words import (
    Presentation,
    RamifiedRelatorData,
    exponent_sums,
    presentation_from_json,
    ramified_data_from_json,
)


def _corners(pres: Presentation, p: int, n: int) -> list:
    """One walk per relator in U_n(F_p), with an array per entry over the
    grid of cells (a_1, ..., a_{n-1}) in [0, d)^(n-1): generator g goes to
    the element with superdiagonal entry s equal to [a_s == g] and every
    other entry 0.  Returns each relator's corner, the (1, n) entry of its
    image, as a (d,)*(n-1) int64 array with entries in [0, p)."""
    import numpy as np

    grid = np.indices((pres.rank,) * (n - 1))
    above = [0] * ((n - 1) * (n - 2) // 2)  # the bands above the first
    images = [[(index == g).astype(np.int64) for index in grid] + above
              for g in range(pres.rank)]
    recipe, ring = mul_recipe(n), fp_ring(p)
    # a relator made of p-infinity powers walks to the plain int 0
    return [np.broadcast_to(walk_word(r, images, recipe, ring)[-1],
                            grid.shape[1:]).astype(np.int64)
            for r in pres.relators]


def cup_grams(pres: Presentation, p) -> list:
    """The cup pairing read off the relators: one d x d int64 array G per
    relator whose pairing is nonzero, entries in [0, p).  Characters x and y
    have zero cup product exactly when x G y^T = 0 mod p for every G.

    G is the relator's U_3(F_p) corner (`_corners`): in cell (a, b),
    generator g has (1,2) entry [a == g] and (2,3) entry [b == g].  A
    relator with an exponent sum nonzero mod p raises ValueError: its
    corner would read the central entries too."""
    p = check_prime(p)
    for r in pres.relators:
        if any(s % p for s in exponent_sums(r, pres.rank)):
            raise ValueError(
                f"relator {r!r} has an exponent sum nonzero mod p = {p}; "
                f"its U_3 corner is no cup product"
            )
    return [gram for gram in _corners(pres, p, 3) if gram.any()]


def triple_tensors(pres: Presentation, p) -> list:
    """The triple form read off the relators: one d x d x d int64 array T
    per relator, entries in [0, p), its U_4(F_p) corner (`_corners`).
    Characters x, y and z lift through the relator exactly when
    sum T[a, b, c] x_a y_b z_c = 0 mod p.

    The corner is that trilinear form only when the relators pair to zero
    under the cup product; otherwise it depends on the second band of the
    images, and this raises ValueError."""
    p = check_prime(p)
    if cup_grams(pres, p):
        raise ValueError(
            f"the relators have a nonzero cup pairing mod p = {p}; their "
            f"U_4 corners are no triple form"
        )
    return _corners(pres, p, 4)


def zero_cup_table(grams, U, p) -> np.ndarray:
    """The (len U, p^d) table of whether row U[i] and the vector of index j
    have zero cup product under every Gram array, built a run of rows at a
    time, about fp.BLOCK_CELLS cells each.

    Split each y into a head of d // 2 coordinates and a tail.  Then
    x G y^T = (x G)_head . y_head + (x G)_tail . y_tail, and the cup is zero
    exactly when the head's sum mod p equals minus the tail's.  The residues
    of up to 31 // p.bit_length() arrays pack into one int32 code, so a run
    of rows is one broadcast comparison of head codes against tail codes."""
    import numpy as np

    d = U.shape[1]
    h = d // 2
    head = vectors_array(h, p)
    tail = vectors_array(d - h, p)
    ok = np.ones((len(U), len(head), len(tail)), dtype=bool)
    rows = max(1, fp.BLOCK_CELLS // (len(head) * len(tail)))
    per = 31 // p.bit_length()  # p^per < 2^31
    grams = [np.asarray(g, dtype=np.int64) % p for g in grams]
    for lo in range(0, len(U), rows):
        block = ok[lo:lo + rows]
        for start in range(0, len(grams), per):
            a = b = 0
            for k, gram in enumerate(grams[start:start + per]):
                xg = U[lo:lo + rows] @ gram % p
                a = a + (xg[:, :h] @ head.T % p) * p ** k
                b = b + (-(xg[:, h:] @ tail.T) % p) * p ** k
            a, b = a.astype(np.int32)[:, :, None], b.astype(np.int32)[:, None, :]
            if start:
                block &= a == b
            else:
                np.equal(a, b, out=block)
    return ok.reshape(len(U), -1)


def cup_chain(grams, d: int, p: int, length: int):
    """The first chain, in vector-index order, of `length` linearly
    independent vectors of F_p^d whose neighbours pair to zero under every
    Gram array, as a (length, d) int64 array; None if there is none.

    Depth-first with backtracking: each step tries, in index order, the
    vectors that pair to zero with the chain's last vector and keep it
    independent.  Only the last vector's cup row is built, never the full
    (p^d, p^d) table."""
    import numpy as np

    if length < 1:
        raise ValueError("a chain needs length >= 1")
    if length > d:
        return None
    V = vectors_array(d, p).astype(np.int64)

    def extensions(chain):
        if not chain:
            return range(1, len(V))  # every nonzero vector
        ok = np.flatnonzero(zero_cup_table(grams, V[chain[-1:]], p)[0])
        stacks = np.concatenate(
            [np.broadcast_to(V[chain], (len(ok), len(chain), d)),
             V[ok][:, None, :]], axis=1)
        return ok[rank_mod(stacks, p) > len(chain)].tolist()

    def search(chain):  # recursion depth <= length <= d
        if len(chain) == length:
            return chain
        for j in extensions(chain):
            found = search(chain + [j])
            if found is not None:
                return found
        return None

    found = search([])
    return None if found is None else V[found]


def trilinear_trace(data: RamifiedRelatorData, p, a, b, c, m: int) -> int:
    """sum over i<j, k<=j of (a_i b_j c_k - a_j b_i c_k + a_k b_j c_i
    - a_k b_i c_j) e_{i,j,k,m}, as an int in [0, p): relator m's trace
    form, spelled out term by term."""
    p = check_prime(p)
    for v in (a, b, c):
        if v.dim != data.n:
            raise ValueError(f"vector dim {v.dim} != tensor size {data.n}")
        if v.p != p:
            raise ValueError("vector/tensor modulus mismatch")
    if not 1 <= m <= data.r:
        raise ValueError(f"relator index {m} outside 1..{data.r}")
    total = 0
    for (i, j, k, e) in data.terms(m):
        i, j, k = i - 1, j - 1, k - 1
        total += e * (
            a[i] * b[j] * c[k]
            - a[j] * b[i] * c[k]
            + a[k] * b[j] * c[i]
            - a[k] * b[i] * c[j]
        )
    return total % p


# --- Redei-symbol ingestion --------------------------------------------------


def ramified_from_redei(table) -> RamifiedRelatorData:
    """Turn a table of three-prime symbols (+1/-1) into relator exponents.

    Input shape: {"primes": [l1, ..., ln], "symbols": [{"triple": [i, j, k],
    "value": -1}, ...]} with 1-based indices into the primes list.  The
    exponent e_{i,j,k,m} is 1 exactly when relator m picks up the triple
    (rows checked top to bottom -- m=j with m!=k; m!=j with m=k; m=i with
    j=k; m=j=k -- all four rows consult the same symbol, so the order is
    immaterial) and that symbol is -1.  Symbols for every i < j, k <= j
    must be present.
    """
    if not isinstance(table, dict) or "primes" not in table:
        raise ValueError("symbol table must be an object with \"primes\"")
    primes = table["primes"]
    n = len(primes)
    if n < 2:
        raise ValueError("need at least two primes")
    symbols = {}
    for si, entry in enumerate(table.get("symbols", [])):
        where = f"symbols[{si}]"
        if not isinstance(entry, dict) or "triple" not in entry or "value" not in entry:
            raise ValueError(f"{where}: needs \"triple\" and \"value\"")
        triple = entry["triple"]
        if (
            not isinstance(triple, list)
            or len(triple) != 3
            or not all(type(x) is int and 1 <= x <= n for x in triple)
        ):
            raise ValueError(
                f"{where}: \"triple\" must be three 1-based indices <= {n}"
            )
        value = entry["value"]
        if type(value) is not int or value not in (1, -1):
            raise ValueError(f"{where}: \"value\" must be +1 or -1")
        symbols[tuple(triple)] = value

    e = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, j + 1):
                if (i, j, k) not in symbols:
                    raise ValueError(f"missing symbol for triple ({i},{j},{k})")
                if symbols[(i, j, k)] == -1:
                    # the four rows: m in {j, k}, or m in {i, j} when j = k
                    for m in sorted({j, i if j == k else k}):
                        e[(i, j, k, m)] = 1
    return RamifiedRelatorData(n, e, r=n)


def load_input_file(path: str):
    """Load a presentation, relator tensor, or symbol table from JSON.

    Returns a Presentation or a RamifiedRelatorData depending on the keys."""
    with open(path) as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    if isinstance(obj, dict) and "primes" in obj:
        return ramified_from_redei(obj)
    if isinstance(obj, dict) and "n" in obj and "rank" not in obj:
        return ramified_data_from_json(obj)
    return presentation_from_json(obj)
