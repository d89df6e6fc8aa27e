"""Counting pathways: triple/pair enumeration under the cup conditions,
closed-form counts, cocycle counts, epimorphism counts, and the derived
Galois-extension counts."""

from __future__ import annotations

import functools
import itertools
import operator
import time
from collections.abc import Sequence

from .fp import FpVector, check_prime, vector_from_index
from .unipotent import aut_order
from .words import (
    RamifiedRelatorData,
    demushkin_case,
    demushkin_presentation,
    free_presentation,
    free_product,
    parse_q,
    preset_tensor,
    q_value,
    ramified_presentation,
)

DEFAULT_TMP_BUDGET = 10 ** 8


class GroupModel:
    """A parameter point for the census: one of the one-relator families, a
    free group, a free product of those, or a deep-commutator-relator model."""

    __slots__ = ("kind", "factors", "data", "name")

    def __init__(self, kind, factors=(), data=None, name=None):
        self.kind = kind
        self.factors = tuple(factors)
        self.data = data
        self.name = name

    @classmethod
    def demushkin(cls, d, q, case=None):
        d, q = int(d), parse_q(q)
        case = demushkin_case(d, q, case)
        return cls("demushkin", [("demushkin", d, q, case)])

    @classmethod
    def free(cls, d):
        d = int(d)
        if d < 1:
            raise ValueError("free rank must be >= 1")
        return cls("free", [("free", d, None, None)])

    @classmethod
    def df(cls, d, q, e, case=None):
        dem = cls.demushkin(d, q, case)
        e = int(e)
        if e < 1:
            raise ValueError("free rank e must be >= 1")
        return cls("df", [dem.factors[0], ("free", e, None, None)])

    @classmethod
    def dd(cls, d1, q1, d2, q2, case1=None, case2=None):
        f1 = cls.demushkin(d1, q1, case1).factors[0]
        f2 = cls.demushkin(d2, q2, case2).factors[0]
        return cls("dd", [f1, f2])

    @classmethod
    def s3(cls, data: RamifiedRelatorData, name=None):
        if not isinstance(data, RamifiedRelatorData):
            raise TypeError("s3 model wraps a RamifiedRelatorData")
        return cls("s3", [("s3", data.n, None, None)], data=data, name=name)

    @property
    def rank(self) -> int:
        return sum(f[1] for f in self.factors)

    def describe(self) -> str:
        if self.kind == "s3":
            label = self.name or f"n={self.data.n},r={self.data.r}"
            return f"s3({label})"
        parts = []
        for kind, d, q, case in self.factors:
            if kind == "free":
                parts.append(f"free(d={d})")
            else:
                qs = "inf" if q == 0 else q
                parts.append(f"demushkin(d={d},q={qs},{case})")
        return " * ".join(parts) if len(parts) > 1 else parts[0]

    def __eq__(self, other):
        return (
            isinstance(other, GroupModel)
            and self.kind == other.kind
            and self.factors == other.factors
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.kind, self.factors, self.data))

    def __repr__(self):
        return f"GroupModel({self.describe()})"


def preset_model(name: str) -> GroupModel:
    """The census model matching each named presentation preset."""
    if name == "ram01":
        return GroupModel.free(3)
    if name in ("borromean", "counterexample1"):
        return GroupModel.s3(preset_tensor(name), name=name)
    raise ValueError(f"unknown preset {name!r}")


def model_check(model: GroupModel, p: int) -> int:
    """Validate the model's q-invariants against a concrete prime."""
    p = check_prime(p)
    for kind, _d, q, _case in model.factors:
        if kind == "demushkin":
            q_value(q, p)  # raises unless q is 0 or a power of p
    return p


def model_presentation(model: GroupModel, p: int):
    """A concrete presentation for the oracle.  D2 and D3 take f = inf, D4
    the finite f = 2; the relator kernel in the supported targets does not
    depend on that choice."""
    model_check(model, p)
    if model.kind == "s3":
        return ramified_presentation(model.data, p)
    parts = []
    for kind, d, q, case in model.factors:
        if kind == "free":
            parts.append(free_presentation(d))
        else:
            f = {"D2": "inf", "D3": "inf", "D4": 2}.get(case)
            parts.append(demushkin_presentation(d, p, q, case, f=f))
    if len(parts) == 1:
        return parts[0]
    return free_product(parts)


class TmpTriple:
    """An ordered character triple (x, y, z) counted by the census."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: FpVector, y: FpVector, z: FpVector):
        self.x, self.y, self.z = x, y, z

    def __iter__(self):
        return iter((self.x, self.y, self.z))

    def __eq__(self, other):
        return isinstance(other, TmpTriple) and (
            (self.x, self.y, self.z) == (other.x, other.y, other.z)
        )

    def __repr__(self):
        return f"TmpTriple({self.x!r}, {self.y!r}, {self.z!r})"


class TmpTriples(Sequence):
    """A read-only listing of census triples: the scan's (m, 3) index array
    `indices`, each row decoded to a TmpTriple on access.  A vector is
    decoded when an index is first read and kept: FpVector is never mutated,
    so the triples share one vector per index.  A slice is a list."""

    def __init__(self, indices, d, p):
        indices.flags.writeable = False
        self.indices = indices
        self._shape = d, p
        self._vectors = {}

    def _vector(self, i):
        v = self._vectors.get(i)
        if v is None:
            v = self._vectors[i] = vector_from_index(i, *self._shape)
        return v

    def __len__(self):
        return len(self.indices)

    def _triple(self, row):
        return TmpTriple(*map(self._vector, row))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._triple(r) for r in self.indices[i].tolist()]
        return self._triple(self.indices[operator.index(i)].tolist())

    def __iter__(self):
        for lo in range(0, len(self), 4096):  # a bounded batch of python rows
            yield from map(self._triple, self.indices[lo:lo + 4096].tolist())


# --- the triple scan on a model ----------------------------------------------
#
# The scan itself is `scan`, imported where a scan runs, so a closed-form
# count neither loads numpy nor compiles it.  This side gives it a model's
# Gram arrays, triple tensors and central subspaces, and reads its subspace
# counts as image classes.


@functools.lru_cache(maxsize=64)
def _model_forms(model, p):
    """The model's cup pairing and, for an s3 model, its triple tensors, read
    off its relators once per (model, p).  Tensors are None for other models
    and for an s3 model none of whose relators survives mod p: it scans as
    the free group."""
    from .forms import cup_grams, triple_tensors

    pres = model_presentation(model, p)
    if model.kind == "s3":
        grams, tensors = [], triple_tensors(pres, p)
    else:
        grams, tensors = cup_grams(pres, p), []
    for array in grams + tensors:
        array.setflags(write=False)  # shared by every later scan
    return tuple(grams), tuple(tensors) or None


def _central_spaces(model):
    """Per one-relator factor, the mask of the coordinates off its block:
    the vectors zero off the mask are those zero on the block."""
    out, off = [], 0
    for kind, size, _q, _case in model.factors:
        if kind == "demushkin":
            out.append([not off <= i < off + size for i in range(model.rank)])
        off += size
    return out


def _classify_keys(model):
    """Image classes: central or noncentral on each one-relator factor, in
    factor order and joined by '+'; 'any' when the model has none."""
    bits = sum(kind == "demushkin" for kind, *_ in model.factors)
    if not bits:
        return ("any",)
    return tuple("+".join(c) for c in
                 itertools.product(("central", "noncentral"), repeat=bits))


def _scan_classes(model, p, budget):
    """The triples per image class, off the scan's subspace counts.

    A triple is central on the one-relator factors on whose blocks both x
    and z vanish.  Let W_S be the vectors zero on every block of a set S of
    factors: the scan's N(W_S), the triples with x and z in W_S, counts
    those central on at least S, so by inclusion-exclusion the class
    central on exactly C holds sum_{S >= C} (-1)^|S - C| N(W_S)."""
    from .scan import count_triples

    p = model_check(model, p)
    grams, tensors = _model_forms(model, p)
    zero = _central_spaces(model)
    # per factor, whether S holds it, in `_classify_keys` order: S empty last
    sets = list(itertools.product((True, False), repeat=len(zero)))
    # W_S leaves free the coordinates that every factor of S leaves free;
    # with none free, W_S = {0} and N(W_S) = 0 without a scan
    spaces = [list(map(all, zip(*itertools.compress(zero, S))))
              for S in sets[:-1]]
    count, _, on = count_triples(model.rank, p, grams, [0, budget], tensors,
                                 [W for W in spaces if any(W)])
    on = iter(on)
    N = dict(zip(sets, [next(on) if any(W) else 0 for W in spaces] + [count]))
    return {key: sum((-1) ** (sum(S) - sum(C)) * n for S, n in N.items()
                     if all(map(operator.ge, S, C)))
            for key, C in zip(_classify_keys(model), sets)}


def tmp_enumerate(model, p, budget=DEFAULT_TMP_BUDGET, want_list=False):
    """Count ordered triples (x, y, z) of rank 3 satisfying the model's
    membership conditions; optionally return them in lexicographic order,
    as a TmpTriples sequence.

    The budget counts primitive form evaluations; exceeding it raises a
    BudgetError suggesting the closed form, before any scanning.
    """
    from .scan import count_triples

    p = model_check(model, p)
    grams, tensors = _model_forms(model, p)
    count, listing, _ = count_triples(model.rank, p, grams, [0, budget],
                                      tensors, want_list=want_list)
    return count, (TmpTriples(listing, model.rank, p) if want_list else None)


def tmp_enumerate_forms(matrices, p, budget=DEFAULT_TMP_BUDGET):
    """Triple count for an explicit list of square int Gram arrays on one
    common space (the conditions (x,y) = (y,z) = 0 under every form, plus
    rank 3); used to confirm counts depend only on dimension, diagonal and
    nondegeneracy.  Hypothesis, as for a cup pairing: each array is
    symmetric or skew-symmetric mod p, so (x,y) = 0 exactly when (y,x) = 0;
    the scan refuses any other array, and non-integer entries, with a
    ValueError."""
    from .scan import count_triples

    if not len(matrices):
        raise ValueError("need at least one form")
    return count_triples(len(matrices[0]), p, matrices, [0, budget])[0]


# --- closed forms ------------------------------------------------------------


def _profile(q: int) -> str:
    return "first_one" if q == 2 else "all_zero"


def tmp_closed(model: GroupModel, p: int) -> int:
    """Closed-form triple counts for the supported model families."""
    p = model_check(model, p)
    if model.kind == "demushkin":
        _kind, d, q, _case = model.factors[0]
        if d < 3:
            raise ValueError("closed triple count needs rank d >= 3")
        if _profile(q) == "all_zero":
            return (p ** d - 1) * (p ** (d - 1) - p) * (p ** (d - 1) - p ** 2)
        return (2 ** (d - 1) - 1) * (2 ** (d - 1) - 2) * (2 ** d - 4)
    if model.kind == "df":
        (_k1, d, q, _c1), (_k2, e, _q2, _c2) = model.factors
        if _profile(q) == "all_zero":
            return (p ** d - 1) * p ** e * (p ** (d + e - 1) - p) * (
                p ** (d + e - 1) - p ** 2
            ) + (p ** e - 1) * (p ** (d + e) - p) * (p ** (d + e) - p ** 2)
        return (2 ** (d + e - 1) - 2) * (
            2 ** (2 * d + 2 * e - 1)
            + 3 * 2 ** (d + 2 * e - 1)
            - 9 * 2 ** (d + e - 1)
            + 4
        )
    if model.kind == "dd":
        (_k1, d, q1, _c1), (_k2, e, q2, _c2) = model.factors
        if _profile(q1) != "all_zero" or _profile(q2) != "all_zero":
            raise ValueError(
                "closed triple count for a double product needs both factors "
                "with all-zero diagonal (q != 2)"
            )
        return (p ** d + p ** e - 2) * (p ** (d + e - 1) - p) * (
            p ** (d + e - 1) - p ** 2
        ) + (p ** d - 1) * (p ** e - 1) * (p ** (d + e - 2) - p) * (
            p ** (d + e - 2) - p ** 2
        )
    raise ValueError(
        f"no closed triple count for a {model.kind} model; use enumeration"
    )


def _one_central(d: int, e: int, p: int) -> int:
    """Triples of a dd(d, e) model central on the rank-d factor only.

    Central there means x = (0, x2) and z = (0, z2) with x2, z2 independent
    in F_p^e.  Then y1 is free and y2 is B2-orthogonal to both x2 and z2, a
    space of dimension e - 2; from those y take away the ones in span(x, z):
    p^2 of them when B2(x2, z2) = 0, which holds for (p^e - 1)(p^(e-1) - p)
    of the pairs, and 1 otherwise."""
    return (p ** e - 1) * ((p ** e - p) * p ** (d + e - 2) - p ** (e + 1)
                           + p ** 3 - p ** e + p ** (e - 1))


def _closed_classes(model: GroupModel, p: int, budget) -> dict:
    """Closed triple counts per image class, keyed as the scan counts them;
    s3 models have no closed count and are scanned."""
    if model.kind == "s3":
        return {"any": tmp_enumerate(model, p, budget)[0]}
    if model.kind == "free":
        P = p ** model.rank
        return {"any": (P - 1) * (P - p) * (P - p ** 2)}
    n = tmp_closed(model, p)
    if model.kind == "demushkin":
        return {"central": 0, "noncentral": n}
    (_k1, d, _q1, _c1), (_k2, e, _q2, _c2) = model.factors
    if model.kind == "df":
        # x and z in the free factor, independent; y outside span(x, z)
        central = (p ** e - 1) * (p ** e - p) * (p ** (d + e) - p ** 2)
        return {"central": central, "noncentral": n - central}
    first, second = _one_central(d, e, p), _one_central(e, d, p)
    return {"central+central": 0, "central+noncentral": first,
            "noncentral+central": second,
            "noncentral+noncentral": n - first - second}


def z1_closed(model: GroupModel, p: int, image_class) -> int:
    """Twisted-cocycle space size for an image class: p^(3 * rank), less one
    power of p per one-relator factor on which the class is noncentral."""
    p = model_check(model, p)
    cls = _normalize_class(model, image_class)
    return p ** (3 * model.rank - cls.split("+").count("noncentral"))


def _normalize_class(model, image_class):
    keys = _classify_keys(model)
    if isinstance(image_class, (tuple, list)):
        image_class = "+".join(image_class)
    if keys == ("any",) and image_class in ("central", "noncentral", None):
        return "any"
    if image_class not in keys:
        raise ValueError(
            f"image class for {model.describe()} must be one of "
            f"{', '.join(keys)}; got {image_class!r}"
        )
    return image_class


def cp_count(model: GroupModel, p: int, method="closed", budget=DEFAULT_TMP_BUDGET) -> int:
    """Ordered independent pairs (x, y) with (x, y) = 0 under every factor form."""
    p = model_check(model, p)
    if method == "closed":
        if model.kind == "demushkin":
            d, q = model.factors[0][1], model.factors[0][2]
            if _profile(q) == "all_zero":
                return (p ** d - 1) * (p ** (d - 1) - p)
            return (2 ** (d - 1) - 1) * (2 ** (d - 1) - 2) + 2 ** (d - 1) * (
                2 ** (d - 1) - 1
            )
        if model.kind == "free":
            d = model.factors[0][1]
            return (p ** d - 1) * (p ** d - p)
        if model.kind == "s3":
            # relators sit too deep to constrain pairs: the pairing vanishes
            n = model.data.n
            return (p ** n - 1) * (p ** n - p)
        raise ValueError(
            f"no closed pair count for a {model.kind} model; use enumeration"
        )
    if method != "enumerate":
        raise ValueError(f"unknown method {method!r}")
    from .scan import count_pairs

    return count_pairs(model.rank, p, _model_forms(model, p)[0], [0, budget])


def un_quotient_decision(model: GroupModel, n: int) -> bool:
    """Whether the group maps onto U_n(F_p): exactly when n <= rank + 1,
    except that a lone rank-2 D1 factor stops at n = 2.  Its cup form is one
    hyperbolic plane, so no two independent characters have a zero cup and
    nothing maps onto U_3."""
    if model.kind == "s3":
        raise ValueError(
            "quotient decision is stated for free products of one-relator "
            "and free factors only"
        )
    n = int(n)
    if n < 2:
        raise ValueError("target size n must be >= 2")
    _kind, d, _q, case = model.factors[0]
    if model.kind == "demushkin" and (d, case) == (2, "D1"):
        return n <= 2
    return n <= model.rank + 1


# --- reports and the top-level counts ----------------------------------------


class CensusReport:
    """One census result: parameters, counts, method, elapsed time."""

    __slots__ = ("model", "p", "target", "tmp", "z1_breakdown", "epi", "nu",
                 "method", "ms")

    def __init__(self, model, p, target, epi, method, ms, tmp=None,
                 z1_breakdown=None, nu=None):
        self.model = model
        self.p = p
        self.target = target
        self.tmp = tmp
        self.z1_breakdown = z1_breakdown
        self.epi = epi
        self.nu = nu
        self.method = method
        self.ms = ms

    def to_json_dict(self) -> dict:
        # counts travel as decimal strings so they survive double-precision
        # JSON readers; small structural fields stay ints
        out = {"model": self.model, "p": self.p, "target": self.target}
        if self.tmp is not None:
            out["tmp"] = str(self.tmp)
        if self.z1_breakdown:
            out["z1"] = {
                cls: {"triples": str(n), "z1": str(z)}
                for cls, (n, z) in sorted(self.z1_breakdown.items())
            }
        out["epi"] = str(self.epi)
        if self.nu is not None:
            out["nu"] = str(self.nu)
        out["method"] = self.method
        out["ms"] = self.ms
        return out

    def __repr__(self):
        return f"CensusReport({self.to_json_dict()})"


CSV_FIELDS = ("model", "p", "target", "tmp", "epi", "nu", "method", "ms")


def reports_to_csv(reports) -> str:
    """One header line and one line per report, quoted as `csv` reads it
    back; a count that is None is an empty field."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    writer.writerows([getattr(r, f) for f in CSV_FIELDS] for r in reports)
    return out.getvalue()


METHODS = ("formula", "tmp_sum")


def epi_count(model: GroupModel, p: int, target: int = 4, method="formula",
              budget=DEFAULT_TMP_BUDGET) -> CensusReport:
    """Count surjections onto U_target(F_p) by the chosen pathway."""
    method = method.replace("-", "_")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    p = model_check(model, p)
    if target not in (2, 3, 4):
        raise ValueError("supported targets are U_2, U_3, U_4")
    t0 = time.monotonic()
    tmp = breakdown = None

    if target == 2:
        if method != "formula":
            raise ValueError("target U_2 is counted by formula only")
        epi = p ** model.rank - 1
    elif target == 3:
        cp_method = "closed" if method == "formula" else "enumerate"
        epi = cp_count(model, p, cp_method, budget) * p ** model.rank
    else:  # U_4: triples per image class times each class's cocycle count
        if method == "formula":
            classes = _closed_classes(model, p, budget)
        else:
            classes = _scan_classes(model, p, budget)
        tmp = sum(classes.values())
        breakdown = {cls: (n, z1_closed(model, p, cls))
                     for cls, n in classes.items() if n}
        epi = sum(n * z1 for n, z1 in breakdown.values())

    ms = int((time.monotonic() - t0) * 1000)
    return CensusReport(
        model.describe(), p, target, epi, method, ms, tmp=tmp,
        # formula reports carry no z1 key
        z1_breakdown=breakdown if method == "tmp_sum" else None,
    )


def nu_extensions(model: GroupModel, p: int, target: int = 4, method="formula",
                  budget=DEFAULT_TMP_BUDGET) -> CensusReport:
    """Galois-extension counts: surjections divided by target automorphisms."""
    return attach_nu(epi_count(model, p, target, method, budget))


def attach_nu(report: CensusReport) -> CensusReport:
    """Set report.nu to the surjection count over |Aut(U_target(F_p))|."""
    p, target = report.p, report.target
    divisor = p - 1 if target == 2 else aut_order(target, p)
    if report.epi % divisor:
        raise RuntimeError(
            f"internal consistency: surjection count {report.epi} is not "
            f"divisible by the automorphism count {divisor}"
        )
    report.nu = report.epi // divisor
    return report


def local_field_model(degree: int, p: int, q) -> GroupModel:
    """The census model of the maximal pro-p quotient for a p-adic field of
    the given degree containing the p-th roots of unity: rank degree + 2."""
    degree = int(degree)
    if degree < 1:
        raise ValueError("field degree must be >= 1")
    model = GroupModel.demushkin(degree + 2, q)
    model_check(model, p)
    return model


def nu_local_closed(degree: int, p: int, q, target: int = 4) -> int:
    """The three-branch closed extension counts for local fields."""
    n = int(degree)
    if n < 1:
        raise ValueError("field degree must be >= 1")
    p = check_prime(p)
    qv = q_value(q, p)
    if target == 2:
        num, den = p ** (n + 2) - 1, p - 1
    elif target == 3:
        if p != 2:
            num = p ** n * (p ** (n + 2) - 1) * (p ** n - 1)
            den = (p ** 2 - 1) * (p - 1)
        elif qv != 2:
            num, den = 2 ** n * (2 ** n - 1) * (2 ** (n + 2) - 1), 1
        else:
            num, den = 2 ** n * (2 ** (n + 1) - 1) ** 2, 1
    elif target == 4:
        if p != 2:
            num = (p ** (n + 2) - 1) * (p ** n - 1) * (p ** (n - 1) - 1) * p ** (3 * n)
            den = 2 * (p - 1) ** 3
        elif qv != 2:
            num = (2 ** (n + 2) - 1) * (2 ** n - 1) * (2 ** (n - 1) - 1) * 2 ** (3 * n + 1)
            den = 3
        else:
            num = (2 ** (n + 1) - 1) * (2 ** n - 1) ** 2 * 2 ** (3 * n + 1)
            den = 3
    else:
        raise ValueError("supported targets are U_2, U_3, U_4")
    if num % den:
        raise RuntimeError("internal consistency: closed branch not integral")
    return num // den
