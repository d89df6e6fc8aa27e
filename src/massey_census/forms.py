"""Cup-product Gram forms of the standard one-relator families,
consecutive-orthogonal bases, and the trilinear trace form attached to
deep-commutator relator tensors."""

from __future__ import annotations

import json

from .fp import FpMatrix, FpVector, GramForm, rank_mod
from .words import (
    Presentation,
    RamifiedRelatorData,
    demushkin_case,
    presentation_from_json,
    q_value,
    ramified_data_from_json,
)


def demushkin_gram(d: int, p: int, q, case: str) -> GramForm:
    """The d x d cup-product pairing matrix of a standard relator case.

    D1: pairs (v1,v2), (v3,v4), ...; zero diagonal.  D2: (v1,v1) = 1 plus
    pairs (v2,v3), (v4,v5), ...  D3 and D4: (v1,v1) = 1 plus the D1 pairs.
    A pair (v_a, v_b) = 1 has (v_b, v_a) = -1.
    """
    case = demushkin_case(d, q_value(q, p), case)
    m = [[0] * d for _ in range(d)]
    for a in range(2 if case == "D2" else 1, d, 2):
        m[a - 1][a] = 1
        m[a][a - 1] = p - 1
    if case == "D1":
        return GramForm(FpMatrix(m, p))
    m[0][0] = 1
    return GramForm(FpMatrix(m, p), "first_one")


def gram_from_demushkin(pres: Presentation) -> GramForm:
    """Read the cup-product Gram form off a standard one-relator presentation."""
    tag = pres.tag
    if tag.get("kind") != "demushkin":
        raise ValueError("presentation is not a standard one-relator family")
    return demushkin_gram(pres.rank, tag["p"], tag["q"], tag["case"])


def cup_blocks(pres: Presentation):
    """The cup pairing of a presentation as (offset, GramForm) blocks, one
    per one-relator factor.  A free product pairs two characters factor by
    factor, so their cup product vanishes only when every block's does;
    free factors and other relators pair to zero and get no block."""
    tag = pres.tag
    parts = tag["parts"] if tag.get("kind") == "free_product" else (pres,)
    blocks, off = [], 0
    for part in parts:
        if part.tag.get("kind") == "demushkin":
            blocks.append((off, gram_from_demushkin(part)))
        off += part.rank
    return blocks


def zero_cup_table(blocks, U, W, p) -> np.ndarray:
    """The (len U, len W) table of whether rows U[i] and W[j], coordinate
    arrays over the whole presentation, have zero cup product in every
    block of cup_blocks."""
    import numpy as np

    ok = np.ones((len(U), len(W)), dtype=bool)
    for off, gram in blocks:
        s = slice(off, off + gram.dim)
        cup = U[:, s] @ gram.matrix.array @ W[:, s].T
        cup %= p  # in place: one int64 table alive at a time
        ok &= cup == 0
    return ok


def _pairing(matrix, p):
    def pairing(u, v):
        return sum(ui * matrix[a][b] * vj
                   for a, ui in enumerate(u) if ui
                   for b, vj in enumerate(v) if vj) % p

    return pairing


def consecutive_orthogonal_basis(f: GramForm):
    """A basis w_1..w_d of F_p^d with (w_i, w_{i+1}) = 0 for every i.

    Alternate forms get a symplectic decomposition reordered so consecutive
    vectors never share a hyperbolic pair; non-alternate forms (p = 2 with a
    diagonal 1) are diagonalized outright, making every pair orthogonal.
    """
    d = f.dim
    if d < 3:
        raise ValueError("need dimension >= 3")
    p = f.p
    matrix = [[int(x) for x in row] for row in f.matrix.array]
    pairing = _pairing(matrix, p)
    basis = [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    if f.diagonal_profile == "all_zero":
        us, ws, radical = [], [], []
        pool = list(basis)
        while pool:
            u = pool.pop(0)
            partner = next((w for w in pool if pairing(u, w)), None)
            if partner is None:
                radical.append(u)
                continue
            pool.remove(partner)
            inv = pow(pairing(u, partner), p - 2, p)
            w = [c * inv % p for c in partner]
            projected = []
            for v in pool:
                cu, cw = pairing(v, w), pairing(v, u)
                projected.append(
                    [(vi - cu * ui + cw * wi) % p for vi, ui, wi in zip(v, u, w)]
                )
            pool = projected
            us.append(u)
            ws.append(w)
        r = len(us)
        if r == 0:
            ordered = radical
        elif r == 1:
            ordered = [us[0]] + radical + [ws[0]]
        else:
            ordered = us + ws + radical
    else:
        # p = 2 and the quadratic map v -> (v,v) is additive, so greedy
        # diagonalization works; leftover hyperbolic pairs are absorbed into
        # three diagonal vectors at a time
        ordered = []
        pool = list(basis)
        while pool:
            t = next((v for v in pool if pairing(v, v)), None)
            if t is not None:
                pool.remove(t)
                pool = [
                    [(vi + pairing(v, t) * ti) % 2 for vi, ti in zip(v, t)]
                    for v in pool
                ]
                ordered.append(t)
                continue
            hyper = None
            for a in range(len(pool)):
                for b in range(a + 1, len(pool)):
                    if pairing(pool[a], pool[b]):
                        hyper = (pool[a], pool[b])
                        break
                if hyper:
                    break
            if hyper is None:
                ordered.extend(pool)  # fully orthogonal leftovers
                break
            u, w = hyper
            pool = [
                [
                    (vi + pairing(v, w) * ui + pairing(v, u) * wi) % 2
                    for vi, ui, wi in zip(v, u, w)
                ]
                for v in pool
                if v is not u and v is not w
            ]
            t = ordered.pop()  # the first_one profile guarantees one exists
            g1 = [(a + b) % 2 for a, b in zip(u, t)]
            g2 = [(a + b) % 2 for a, b in zip(w, t)]
            g3 = [(a + b + c) % 2 for a, b, c in zip(u, w, t)]
            ordered.extend([g1, g2, g3])

    assert len(ordered) == d and rank_mod(ordered, p) == d
    for a, b in zip(ordered, ordered[1:]):
        assert pairing(a, b) == 0
    return [FpVector(v, p) for v in ordered]


class TrilinearForm:
    """The trace form of a deep-commutator relator tensor, over F_p."""

    __slots__ = ("data", "p")

    def __init__(self, data: RamifiedRelatorData, p):
        from .fp import check_prime

        if not isinstance(data, RamifiedRelatorData):
            raise TypeError("TrilinearForm wraps a RamifiedRelatorData")
        self.data = data
        self.p = check_prime(p)

    @property
    def n(self):
        return self.data.n

    @property
    def relator_count(self):
        return self.data.r


def trilinear_trace(t: TrilinearForm, a, b, c, m: int) -> int:
    """sum over i<j, k<=j of (a_i b_j c_k - a_j b_i c_k + a_k b_j c_i
    - a_k b_i c_j) e_{i,j,k,m}, as an int in [0, p)."""
    if not isinstance(t, TrilinearForm):
        raise TypeError("first argument must be a TrilinearForm")
    for v in (a, b, c):
        if v.dim != t.n:
            raise ValueError(f"vector dim {v.dim} != tensor size {t.n}")
        if v.p != t.p:
            raise ValueError("vector/tensor modulus mismatch")
    if not 1 <= m <= t.relator_count:
        raise ValueError(f"relator index {m} outside 1..{t.relator_count}")
    total = 0
    for (i, j, k, e) in t.data.terms(m):
        i, j, k = i - 1, j - 1, k - 1
        total += e * (
            a[i] * b[j] * c[k]
            - a[j] * b[i] * c[k]
            + a[k] * b[j] * c[i]
            - a[k] * b[i] * c[j]
        )
    return total % t.p


def trace_tensor(t: TrilinearForm, m: int) -> np.ndarray:
    """Coefficient array T with trace(a,b,c) = sum T[i,j,k] a_i b_j c_k mod p."""
    if not 1 <= m <= t.relator_count:
        raise ValueError(f"relator index {m} outside 1..{t.relator_count}")
    import numpy as np

    n = t.n
    T = np.zeros((n, n, n), dtype=np.int64)
    for (i, j, k, e) in t.data.terms(m):
        i, j, k = i - 1, j - 1, k - 1
        T[i, j, k] += e
        T[j, i, k] -= e
        T[k, j, i] += e
        T[k, i, j] -= e
    return T % t.p


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
                needed = False
                for m in range(1, n + 1):
                    applies = (
                        (m == j and m != k)
                        or (m != j and m == k)
                        or (m == i and j == k)
                        or (m == j == k)
                    )
                    if not applies:
                        continue
                    needed = True
                    if (i, j, k) not in symbols:
                        raise ValueError(
                            f"missing symbol for triple ({i},{j},{k})"
                        )
                    if symbols[(i, j, k)] == -1:
                        e[(i, j, k, m)] = 1
                assert needed  # every (i<j, k<=j) triple is consulted
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
