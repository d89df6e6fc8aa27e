"""Group words, pro-p presentations, the four standard one-relator families,
and the preset presentations used throughout the test grid."""

from __future__ import annotations

from .fp import check_prime
from .unipotent import ExponentToken, P_INFINITY


class Gen:
    """Generator x_i (1-based index)."""

    __slots__ = ("index",)

    def __init__(self, index):
        index = int(index)
        if index < 1:
            raise ValueError(f"generator index must be >= 1, got {index}")
        self.index = index

    def __eq__(self, other):
        return isinstance(other, Gen) and self.index == other.index

    def __hash__(self):
        return hash(("Gen", self.index))

    def __repr__(self):
        return f"Gen({self.index})"


class Prod:
    """Product of words, left to right; the empty product is the identity."""

    __slots__ = ("factors",)

    def __init__(self, *factors):
        if len(factors) == 1 and isinstance(factors[0], (list, tuple)):
            factors = tuple(factors[0])
        for w in factors:
            _check_word(w)
        self.factors = tuple(factors)

    def __eq__(self, other):
        return isinstance(other, Prod) and self.factors == other.factors

    def __hash__(self):
        return hash(("Prod", self.factors))

    def __repr__(self):
        return f"Prod({', '.join(map(repr, self.factors))})"


class Pow:
    """word ** exponent; the exponent may be p-infinity (identity image)."""

    __slots__ = ("word", "exponent")

    def __init__(self, word, exponent):
        _check_word(word)
        if not isinstance(exponent, ExponentToken):
            exponent = ExponentToken(exponent)
        self.word = word
        self.exponent = exponent

    def __eq__(self, other):
        return (
            isinstance(other, Pow)
            and self.word == other.word
            and self.exponent == other.exponent
        )

    def __hash__(self):
        return hash(("Pow", self.word, self.exponent))

    def __repr__(self):
        return f"Pow({self.word!r}, {self.exponent!r})"


class Comm:
    """Commutator [a, b] = a^-1 b^-1 a b."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _check_word(left)
        _check_word(right)
        self.left = left
        self.right = right

    def __eq__(self, other):
        return (
            isinstance(other, Comm)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash(("Comm", self.left, self.right))

    def __repr__(self):
        return f"Comm({self.left!r}, {self.right!r})"


GroupWord = (Gen, Prod, Pow, Comm)


def _check_word(w):
    if not isinstance(w, GroupWord):
        raise TypeError(f"not a group word: {w!r}")


def max_generator(w) -> int:
    """Largest generator index appearing in the word (0 for the empty product)."""
    if isinstance(w, Gen):
        return w.index
    if isinstance(w, Prod):
        return max((max_generator(f) for f in w.factors), default=0)
    if isinstance(w, Pow):
        return max_generator(w.word)
    if isinstance(w, Comm):
        return max(max_generator(w.left), max_generator(w.right))
    raise TypeError(f"not a group word: {w!r}")


def exponent_sums(w, rank) -> list:
    """Exponent sum of each of x_1 .. x_rank in the word, its image in the
    abelianization: commutators and p-infinity powers contribute 0."""
    sums = [0] * rank
    stack = [(w, 1)]
    while stack:
        w, scale = stack.pop()
        if isinstance(w, Gen):
            sums[w.index - 1] += scale
        elif isinstance(w, Prod):
            stack.extend((f, scale) for f in w.factors)
        elif isinstance(w, Pow) and not w.exponent.is_infinite:
            stack.append((w.word, scale * w.exponent.value))
    return sums


_INFINITE = ("inf", "p-inf", "infinity")


def parse_int(value, name, expected="an integer") -> int:
    """int(value), or a ValueError naming `name` and what was expected."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} must be {expected}, got {value!r}"
        ) from None


def parse_q(q) -> int:
    """Read q ('inf' or None, an int, or a decimal string) as an int, 0
    meaning p-infinity."""
    if q is None or q in _INFINITE:
        return 0
    return parse_int(q, "q", "an integer or 'inf'")


def q_value(q, p) -> int:
    """parse_q, then check that a finite q is a power of p >= p."""
    q, p = parse_q(q), check_prime(p)
    if q == 0:
        return 0
    v = q
    while v % p == 0:
        v //= p
    if v != 1 or q < p:
        raise ValueError(f"q = {q} is not a positive power of p = {p}")
    return q


def _f_exponent(f, base_power: int) -> ExponentToken:
    """Turn an f argument (int >= 2, 'inf', or None) into the token for 2^f,
    shifted by base_power (0 or 2): base_power + 2^f, with 2^inf = 0."""
    if f is None:
        raise ValueError("this relator case needs f (an integer >= 2, or 'inf')")
    if f in _INFINITE or f == float("inf"):
        return ExponentToken(base_power) if base_power else P_INFINITY
    f = parse_int(f, "f", "an integer or 'inf'")
    if f < 2:
        raise ValueError(f"f must be >= 2, got {f}")
    return ExponentToken(base_power + 2 ** f)


class Presentation:
    """A generator rank and relator words."""

    __slots__ = ("rank", "relators")

    def __init__(self, rank, relators=()):
        rank = int(rank)
        if rank < 1:
            raise ValueError("rank must be >= 1")
        relators = tuple(relators)
        for r in relators:
            _check_word(r)
            if max_generator(r) > rank:
                raise ValueError(
                    f"relator uses generator {max_generator(r)} beyond rank {rank}"
                )
        self.rank = rank
        self.relators = relators

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and self.rank == other.rank
            and self.relators == other.relators
        )

    def __repr__(self):
        return f"Presentation(rank={self.rank}, relators={len(self.relators)})"


def free_presentation(d: int) -> Presentation:
    """The free pro-p presentation on d generators (no relators)."""
    return Presentation(d)


# case: (needs q = 2, rank parity, least rank), after Labute's classification
_CASE_RULES = {
    "D1": (False, 0, 2),
    "D2": (True, 1, 3),
    "D3": (True, 0, 2),
    "D4": (True, 0, 4),
}
DEMUSHKIN_CASES = tuple(_CASE_RULES)


def demushkin_case(d: int, q: int, case=None) -> str:
    """Check rank d and q (an int, 0 meaning p-infinity) against the standard
    one-relator case and return it; case None infers it from (d, q).

    D1: q != 2, even d >= 2.  D2: q = 2, odd d >= 3.  D3: q = 2, even
    d >= 2.  D4: q = 2, even d >= 4.  Inference picks D2 or D3 by parity
    when q = 2, and D1 otherwise.
    """
    if case is None:
        if q != 2 and d % 2:
            raise ValueError(
                f"no standard one-relator case with q != 2 and odd rank d = {d}"
            )
        case = "D1" if q != 2 else "D2" if d % 2 else "D3"
    if case not in _CASE_RULES:
        raise ValueError(f"unknown case {case!r}; expected one of {DEMUSHKIN_CASES}")
    needs_q2, parity, least = _CASE_RULES[case]
    if needs_q2 != (q == 2):
        raise ValueError(f"case {case} needs q {'=' if needs_q2 else '!='} 2")
    if d % 2 != parity or d < least:
        raise ValueError(
            f"case {case} needs {('even', 'odd')[parity]} rank d >= {least}"
        )
    return case


def _comm_pairs(start: int, d: int):
    """[x_start, x_{start+1}][x_{start+2}, x_{start+3}] ... up to x_d."""
    return [Comm(Gen(i), Gen(i + 1)) for i in range(start, d, 2)]


def demushkin_presentation(d, p, q, case, f=None) -> Presentation:
    """The standard one-relator presentation of the case (see demushkin_case;
    None infers it).  D2 and D3 take f >= 2 or 'inf', D4 a finite f >= 2."""
    d, p = int(d), int(p)
    qv = q_value(q, p)
    case = demushkin_case(d, qv, case)

    if case == "D1":
        q_token = P_INFINITY if qv == 0 else ExponentToken(qv)
        relator = Prod([Pow(Gen(1), q_token)] + _comm_pairs(1, d))
    elif case == "D2":
        relator = Prod(
            [Pow(Gen(1), 2), Pow(Gen(2), _f_exponent(f, 0))]
            + _comm_pairs(2, d)
        )
    elif case == "D3":
        relator = Prod([Pow(Gen(1), _f_exponent(f, 2))] + _comm_pairs(1, d))
    else:  # D4
        tok = _f_exponent(f, 0)
        if tok.is_infinite:
            raise ValueError("case D4 needs a finite f >= 2")
        relator = Prod(
            [Pow(Gen(1), 2), Comm(Gen(1), Gen(2)), Pow(Gen(3), tok)]
            + _comm_pairs(3, d)
        )
    return Presentation(d, [relator])


def free_product(parts) -> Presentation:
    """Concatenate presentations, shifting the later factors' generators."""
    parts = list(parts)
    if not parts:
        raise ValueError("free product needs at least one factor")
    relators = []
    offset = 0
    for part in parts:
        for r in part.relators:
            relators.append(_shift_word(r, offset))
        offset += part.rank
    return Presentation(offset, relators)


def _shift_word(w, offset):
    if isinstance(w, Gen):
        return Gen(w.index + offset)
    if isinstance(w, Prod):
        return Prod([_shift_word(f, offset) for f in w.factors])
    if isinstance(w, Pow):
        return Pow(_shift_word(w.word, offset), w.exponent)
    if isinstance(w, Comm):
        return Comm(_shift_word(w.left, offset), _shift_word(w.right, offset))
    raise TypeError(f"not a group word: {w!r}")


class RamifiedRelatorData:
    """Deep-commutator relator exponents: relator m is the product of
    [[x_i, x_j], x_k]^e over 1 <= i < j <= n, k <= j, for m = 1..r."""

    __slots__ = ("n", "r", "e")

    def __init__(self, n, e, r=None):
        n = int(n)
        if n < 2:
            raise ValueError("need at least 2 generators")
        cleaned = {}
        max_m = 0
        for (i, j, k, m), val in dict(e).items():
            if not (1 <= i < j <= n and 1 <= k <= j):
                raise ValueError(f"bad commutator indices (i,j,k) = ({i},{j},{k})")
            if m < 1:
                raise ValueError(f"bad relator index m = {m}")
            max_m = max(max_m, m)
            val = int(val)
            if val:
                cleaned[(i, j, k, m)] = val
        if r is None:
            r = max(max_m, 1)
        r = int(r)
        if max_m > r:
            raise ValueError(f"relator index {max_m} exceeds relator count {r}")
        self.n = n
        self.r = r
        self.e = cleaned

    def terms(self, m):
        """Sorted (i, j, k, exponent) terms of relator m."""
        return sorted(
            (i, j, k, v) for (i, j, k, mm), v in self.e.items() if mm == m
        )

    def __eq__(self, other):
        return (
            isinstance(other, RamifiedRelatorData)
            and (self.n, self.r, self.e) == (other.n, other.r, other.e)
        )

    def __hash__(self):
        return hash((self.n, self.r, frozenset(self.e.items())))

    def __repr__(self):
        return f"RamifiedRelatorData(n={self.n}, r={self.r}, terms={len(self.e)})"


def ramified_presentation(data: RamifiedRelatorData, p) -> Presentation:
    """Spell the exponent tensor out as explicit deep-commutator relators."""
    relators = []
    for m in range(1, data.r + 1):
        factors = []
        for (i, j, k, e) in data.terms(m):
            e = e % p
            if not e:
                continue
            comm = Comm(Comm(Gen(i), Gen(j)), Gen(k))
            factors.append(comm if e == 1 else Pow(comm, e))
        if len(factors) == 1:
            relators.append(factors[0])
        elif factors:
            relators.append(Prod(factors))
    return Presentation(data.n, relators)


_PRESET_NAMES = ("ram01", "borromean", "counterexample1")


def preset_tensor(name: str) -> RamifiedRelatorData:
    """The deep-commutator exponent tensor of each named preset."""
    if name == "ram01":
        return RamifiedRelatorData(3, {}, r=3)
    if name == "borromean":
        return RamifiedRelatorData(
            3, {(2, 3, 1, 1): 1, (1, 3, 2, 2): 1}, r=2
        )
    if name == "counterexample1":
        return RamifiedRelatorData(4, {(2, 3, 1, 1): 1}, r=1)
    raise ValueError(f"unknown preset {name!r}; expected one of {_PRESET_NAMES}")


def preset(name: str) -> Presentation:
    """Named presentations behind the worked examples and the k=4
    counterexample, spelled out from their tensors: ram01 is free of rank 3,
    borromean [[x2,x3],x1] and [[x1,x3],x2], counterexample1 [[x2,x3],x1]
    on four generators.  Every exponent is 1, so any p spells the same
    words."""
    return ramified_presentation(preset_tensor(name), 2)


# --- JSON wire format -------------------------------------------------------
#
# Words are nested arrays: ["gen", i], ["prod", w, ...], ["pow", w, e] with e
# an integer or the string "p-inf", ["comm", w1, w2].  A presentation file is
# {"rank": d, "relators": [word, ...]} or {"preset": name}.  Relator-tensor
# files are {"n": 3, "relators": [{"m": 1, "terms": [{"i":2,"j":3,"k":1,"e":1},
# ...]}, ...]}.


def word_from_json(obj, path="word"):
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{path}: expected a non-empty array")
    kind = obj[0]
    if kind == "gen":
        if len(obj) != 2 or type(obj[1]) is not int:  # true is no index
            raise ValueError(
                f"{path}: \"gen\" takes one integer index, got {obj[1:]!r}")
        if obj[1] < 1:
            raise ValueError(f"{path}: generator index must be >= 1")
        return Gen(obj[1])
    if kind == "prod":
        return Prod(
            [word_from_json(w, f"{path}.prod[{i}]") for i, w in enumerate(obj[1:])]
        )
    if kind == "pow":
        if len(obj) != 3:
            raise ValueError(f"{path}: \"pow\" takes a word and an exponent")
        e = obj[2]
        if e == "p-inf":
            token = P_INFINITY
        elif isinstance(e, int) and not isinstance(e, bool):
            token = ExponentToken(e)
        else:
            raise ValueError(
                f"{path}: exponent must be an integer or \"p-inf\", got {e!r}"
            )
        return Pow(word_from_json(obj[1], f"{path}.pow"), token)
    if kind == "comm":
        if len(obj) != 3:
            raise ValueError(f"{path}: \"comm\" takes exactly two words")
        return Comm(
            word_from_json(obj[1], f"{path}.comm[0]"),
            word_from_json(obj[2], f"{path}.comm[1]"),
        )
    raise ValueError(
        f"{path}: unknown word kind {kind!r} (expected gen/prod/pow/comm)"
    )


def _json_int(value, where) -> int:
    """An integer field of an input file: refuse, never truncate, 1.5 or
    true."""
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


def presentation_from_json(obj) -> Presentation:
    if not isinstance(obj, dict):
        raise ValueError("presentation file must be a JSON object")
    if "preset" in obj:
        return preset(obj["preset"])
    if "rank" not in obj:
        raise ValueError("presentation object needs \"rank\" (or \"preset\")")
    rank = obj["rank"]
    if type(rank) is not int or rank < 1:
        raise ValueError(f"\"rank\" must be a positive integer, got {rank!r}")
    relators = obj.get("relators", [])
    if not isinstance(relators, list):
        raise ValueError("\"relators\" must be an array of words")
    words = [
        word_from_json(w, f"relators[{i}]") for i, w in enumerate(relators)
    ]
    return Presentation(rank, words)


def ramified_data_from_json(obj) -> RamifiedRelatorData:
    if not isinstance(obj, dict) or "n" not in obj:
        raise ValueError("relator-tensor file must be an object with \"n\"")
    n = _json_int(obj["n"], "\"n\"")
    relators = obj.get("relators", [])
    e = {}
    max_m = 0
    for ri, rel in enumerate(relators):
        if not isinstance(rel, dict) or "m" not in rel:
            raise ValueError(f"relators[{ri}]: expected an object with \"m\"")
        m = _json_int(rel["m"], f"relators[{ri}].m")
        max_m = max(max_m, m)
        for ti, term in enumerate(rel.get("terms", [])):
            where = f"relators[{ri}].terms[{ti}]"
            try:
                i, j, k, ev = (_json_int(term[name], f"{where}.{name}")
                               for name in "ijke")
            except (TypeError, KeyError) as exc:
                raise ValueError(f"{where}: needs keys i, j, k, e") from exc
            key = (i, j, k, m)
            e[key] = e.get(key, 0) + ev
    return RamifiedRelatorData(n, e, r=max(max_m, len(relators), 1))
