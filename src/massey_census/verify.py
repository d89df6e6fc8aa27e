"""Self-check suites: every headline count recomputed two independent ways,
with one table row per check.  The desk suite runs in seconds; the extended
suite adds the multi-million-assignment oracle confirmations."""

from __future__ import annotations

import functools
import time
from typing import Callable, NamedTuple

from .census import (
    GroupModel,
    cp_count,
    epi_count,
    model_presentation,
    nu_extensions,
    nu_local_closed,
    preset_model,
    tmp_closed,
    tmp_enumerate,
    tmp_enumerate_forms,
    un_quotient_decision,
    z1_closed,
)
from .forms import cup_chain, cup_grams
from .fp import FpVector, rank_mod
from .oracle import (
    CHUNK,
    ORACLE_BUDGET,
    ORACLE_BUDGET_EXTENDED,
    count_epi_bruteforce,
    count_lifts_bruteforce,
    massey_system_exists,
)
from .words import demushkin_presentation, free_presentation, preset

SUITES = ("desk", "extended")


def _check_eq(label, *values):
    first = values[0]
    ok = all(v == first for v in values)
    return ok, f"{label}: " + (" = ".join(str(v) for v in values)
                               if ok else f"MISMATCH {values}")


# --- individual checks --------------------------------------------------------


def _local_q2_degree1(_threads):
    model = GroupModel.demushkin(3, 2)
    return _check_eq(
        "nu(U_4) at degree 1, q=2",
        nu_local_closed(1, 2, 2, 4),
        nu_extensions(model, 2).nu,
        16,
    )


def _oracle_d2_variants(threads):
    counts = [
        count_epi_bruteforce(demushkin_presentation(3, 2, 2, "D2", f=f), 4, 2,
                             threads=threads)
        for f in (2, "inf")
    ]
    return _check_eq("epi(U_4) one-relator d=3 q=2, f in {2, inf}",
                     counts[0], counts[1], 6144)


def _borromean(_threads):
    model = preset_model("borromean")
    tmp = tmp_enumerate(model, 2)[0]
    formula = epi_count(model, 2).epi
    brute = count_epi_bruteforce(preset("borromean"), 4, 2)
    nu = nu_extensions(model, 2).nu
    ok = (tmp, formula, brute, nu) == (6, 3072, 3072, 8)
    return ok, f"triples {tmp}, epi {formula}/{brute}, nu {nu}"


def _ram01(_threads):
    model = preset_model("ram01")
    nu = nu_extensions(model, 2).nu
    brute = count_epi_bruteforce(preset("ram01"), 4, 2)
    ok = (nu, brute) == (224, 86016)
    return ok, f"nu {nu}, oracle epi {brute}"


def _closed_grid(_threads):
    cells = [
        (GroupModel.demushkin(3, 2), 2),
        (GroupModel.demushkin(4, 2, case="D3"), 2),
        (GroupModel.demushkin(4, 2, case="D4"), 2),
        (GroupModel.demushkin(4, 4), 2),
        (GroupModel.demushkin(4, 3), 3),
        (GroupModel.demushkin(4, 9), 3),
        (GroupModel.demushkin(4, 5), 5),
        (GroupModel.df(3, 2, 1), 2),
        (GroupModel.df(3, 2, 2), 2),
        (GroupModel.dd(2, 4, 2, 4), 2),
    ]
    bad = []
    for model, p in cells:
        closed = tmp_closed(model, p)
        scanned = tmp_enumerate(model, p)[0]
        if closed != scanned:
            bad.append(f"{model.describe()} p={p}: {closed} != {scanned}")
    # d=3 with q != 2 admits no model at any p: the grid cell is vacuous
    try:
        GroupModel.demushkin(3, 3)
        bad.append("rank-3 q=3 model unexpectedly constructible")
    except ValueError:
        pass
    if bad:
        return False, "; ".join(bad)
    return True, f"{len(cells)} cells closed = scan, odd-rank q!=2 vacuous"


def _lifts_small(_threads):
    pres = demushkin_presentation(3, 2, 2, "D2", f="inf")
    model = GroupModel.demushkin(3, 2)
    _, triples = tmp_enumerate(model, 2, want_list=True)
    lift_counts = {count_lifts_bruteforce(pres, 2, t) for t in triples}
    want = z1_closed(model, 2, "noncentral")
    if lift_counts != {want}:
        return False, f"one-relator d=3 lifts {lift_counts} != {want}"

    free3 = free_presentation(3)
    _, ftriples = tmp_enumerate(GroupModel.free(3), 2, want_list=True)
    got = count_lifts_bruteforce(free3, 2, ftriples[0])
    if got != 512:
        return False, f"free lift count {got} != 512"

    _, ftriples3 = tmp_enumerate(GroupModel.free(3), 3, want_list=True)
    got3 = count_lifts_bruteforce(free_presentation(3), 3, ftriples3[0])
    if got3 != 3 ** 9:
        return False, f"free lift count over F_3 {got3} != {3 ** 9}"

    bad = count_lifts_bruteforce(
        pres, 2,
        (FpVector((1, 0, 0), 2), FpVector((0, 1, 0), 2), FpVector((0, 0, 1), 2)),
    )
    if bad != 0:
        return False, f"off-condition triple lifted {bad} times"
    return True, "d=3 lifts = cocycle counts; free = |M|^d; off-condition = 0"


def _u3_pathway(_threads):
    model = GroupModel.demushkin(3, 2)
    cp = cp_count(model, 2)
    nu3 = nu_extensions(model, 2, target=3).nu
    nu3_local = nu_local_closed(1, 2, 2, 3)
    brute = count_epi_bruteforce(
        demushkin_presentation(3, 2, 2, "D2", f="inf"), 3, 2
    )
    nu2 = nu_extensions(model, 2, target=2).nu
    ok = (cp, nu3, nu3_local, brute, nu2) == (18, 18, 18, 144, 7)
    return ok, f"cp {cp}, nu(U_3) {nu3}={nu3_local}, oracle {brute}, nu(U_2) {nu2}"


def _counterexample(_threads):
    pres = preset("counterexample1")
    chars = [
        FpVector(tuple(1 if j == i else 0 for j in range(4)), 2)
        for i in range(4)
    ]
    # all consecutive cup products vanish (the pairing here is zero), yet
    # no defining system exists in the 2^20-assignment search space
    exists = massey_system_exists(pres, chars, 2, budget=2 ** 20)
    return exists is False, f"4-fold system exists: {exists}"


def _quotient_ladder(_threads):
    # the closed rule must also agree with the cup chains: a surjection onto
    # U_n carries n - 1 independent characters with vanishing neighbour cups
    def chain_agrees(model, p, n):
        chain = cup_chain(cup_grams(model_presentation(model, p), p),
                          model.rank, p, n - 1)
        return (chain is not None) == un_quotient_decision(model, n)

    model = GroupModel.demushkin(3, 2)
    ladder = [un_quotient_decision(model, n) for n in (2, 3, 4, 5, 6)]
    if ladder != [True, True, True, False, False]:
        return False, f"degree-1 ladder wrong: {ladder}"
    if not all(chain_agrees(model, 2, n) for n in (2, 3, 4, 5, 6)):
        return False, "degree-1 ladder disagrees with its cup chains"
    for d in (1, 2, 3, 4):
        free = GroupModel.free(d)
        for n in (2, 3, 4, 5, 6):
            if (un_quotient_decision(free, n) != (n <= d + 1)
                    or not chain_agrees(free, 2, n)):
                return False, f"free({d}) vs n={n} inconsistent"
    # rank 2 onto U_3: a D1 cup form is one hyperbolic plane, so no
    # surjection exists; the D3 diagonal leaves room for some
    counts = []
    for model, p in ((GroupModel.free(1), 2), (GroupModel.free(2), 2),
                     (GroupModel.demushkin(2, 4), 2),
                     (GroupModel.demushkin(2, 3), 3),
                     (GroupModel.demushkin(2, "inf"), 3),
                     (GroupModel.demushkin(2, 2, case="D3"), 2)):
        epi = count_epi_bruteforce(model_presentation(model, p), 3, p)
        if un_quotient_decision(model, 3) != (epi > 0):
            return False, f"{model.describe()} p={p}: oracle {epi} U_3 images"
        if not chain_agrees(model, p, 3):
            return False, f"{model.describe()} p={p}: cup chain disagrees"
        counts.append(epi)
    return counts[0] == 0 and counts[-1] == 8, (
        "U_3 images by oracle, free(1), free(2), rank-2 D1 at (4,2), (3,3), "
        f"(inf,3), rank-2 D3: {', '.join(map(str, counts))}; cup chains agree")


def _determinism(threads):
    pres = demushkin_presentation(3, 2, 2, "D2", f="inf")
    serial = count_epi_bruteforce(pres, 4, 2)
    # 2^15 enumerated assignments in 2^11-blocks: enough blocks to split
    threaded = count_epi_bruteforce(pres, 4, 2, threads=max(threads, 2),
                                    chunk=2 ** 11)
    # odd p, in process: 3^6 enumerated assignments in blocks of 3^6, 3^4
    # and 3^2
    odd = {count_epi_bruteforce(free_presentation(3), 3, 3, chunk=chunk)
           for chunk in (CHUNK, 100, 3 ** 2)}
    scan = tmp_enumerate(GroupModel.demushkin(4, 3), 3)[0]
    ok = serial == threaded == 6144 and odd == {16848} and scan == 34560
    return ok, (f"oracle {serial}/{threaded}, odd-p chunks "
                f"{'/'.join(map(str, sorted(odd)))}, scan {scan}")


def _d1_oracle(threads):
    model = GroupModel.demushkin(4, 4)
    formula = epi_count(model, 2).epi
    brute = count_epi_bruteforce(
        demushkin_presentation(4, 2, 4, "D1"), 4, 2, threads=threads
    )
    nu = nu_extensions(model, 2).nu
    nu_local = nu_local_closed(2, 2, 4, 4)
    ok = formula == brute == 737280 and nu == nu_local == 1920
    return ok, f"epi {formula}/{brute}, nu {nu}={nu_local}"


def _lifts_rank4(threads):
    details = []
    for case, q in (("D1", 4), ("D3", 2), ("D4", 2)):
        model = GroupModel.demushkin(4, q, case=case)
        pres = model_presentation(model, 2)
        count, triples = tmp_enumerate(model, 2, want_list=True)
        want = z1_closed(model, 2, "noncentral")
        lift_counts = {count_lifts_bruteforce(pres, 2, t) for t in triples}
        if lift_counts != {want}:
            return False, f"{case}: lifts {lift_counts} != {want}"
        total = count * want
        brute = count_epi_bruteforce(pres, 4, 2, threads=threads)
        if total != brute:
            return False, f"{case}: sum {total} != oracle {brute}"
        details.append(f"{case}: {count}x{want}={brute}")
    return True, "; ".join(details)


def _sum_identity_d3(_threads):
    pres = demushkin_presentation(3, 2, 2, "D2", f="inf")
    _, triples = tmp_enumerate(GroupModel.demushkin(3, 2), 2, want_list=True)
    total = sum(count_lifts_bruteforce(pres, 2, t) for t in triples)
    brute = count_epi_bruteforce(pres, 4, 2)
    return total == brute, f"sum of lifts {total}, oracle {brute}"


def _three_engines(model, p, frozen, threads):
    return _check_eq(
        "formula = tmp_sum = oracle = frozen",
        epi_count(model, p).epi,
        epi_count(model, p, method="tmp_sum").epi,
        count_epi_bruteforce(model_presentation(model, p), 4, p,
                             budget=ORACLE_BUDGET_EXTENDED, threads=threads),
        frozen,
    )


def _formula_vs_scan(model, p, frozen, _threads):
    return _check_eq("formula = tmp_sum = frozen", epi_count(model, p).epi,
                     epi_count(model, p, method="tmp_sum").epi, frozen)


def _scan_reach(_threads):
    """The scan's largest cells, P = p^6 vectors at p = 5 and 7.  The
    counts rank the stacked y G_i at one point per line through 0,
    (P - 1) / (p - 1) of them, and build no pair mask; tmp_sum reads its
    class subspaces off the same ranks.  Charges stay nominal, over the
    default budget: demushkin(6,5) 7.6e11 form evaluations, dd(4,5,2,5)
    1.8e11, demushkin(6,7) 2.3e14 and dd(4,7,2,7) 3.7e13."""
    frozen = {
        5: (151115328000, 115291845703125000000000, 1952848828125000000000,
            {"central+noncentral": 299520,
             "noncentral+central": 239616000,
             "noncentral+noncentral": 11598612480}),
        7: (33121959091200, 7705178367649099654146278400,
            47203552630877937146496000,
            {"central+noncentral": 4838400,
             "noncentral+central": 13750732800,
             "noncentral+noncentral": 1324095897600}),
    }
    rows = []
    for p, (tmp, dem_epi, dd_epi, classes) in frozen.items():
        dem, dd = GroupModel.demushkin(6, p), GroupModel.dd(4, p, 2, p)
        scanned = epi_count(dd, p, method="tmp_sum", budget=10 ** 15)
        got = {cls: n for cls, (n, _) in scanned.z1_breakdown.items()}
        rows += [
            _check_eq(f"demushkin(6,{p}) tmp_enumerate = tmp_closed = frozen",
                      tmp_enumerate(dem, p, budget=10 ** 15)[0],
                      tmp_closed(dem, p), tmp),
            _check_eq("tmp_sum = formula = frozen",
                      epi_count(dem, p, method="tmp_sum",
                                budget=10 ** 15).epi,
                      epi_count(dem, p).epi, dem_epi),
            _check_eq(f"dd(4,{p},2,{p}) tmp_sum = formula = frozen",
                      scanned.epi, epi_count(dd, p).epi, dd_epi),
            (got == classes, "classes " + ", ".join(
                f"{cls} {n}" for cls, n in got.items())),
        ]
    return all(ok for ok, _ in rows), "; ".join(detail for _, detail in rows)


def _wide_oracle(model, frozen, budget, threads):
    formula = epi_count(model, 2).epi
    brute = count_epi_bruteforce(model_presentation(model, 2), 4, 2,
                                 budget=budget, threads=threads)
    return _check_eq("formula = oracle = frozen", formula, brute, frozen)


def _basis_invariance(_threads):
    """The scan on each model's Gram arrays after a seeded change of basis
    A (G -> A G A^T mod p) counts what the model's own scan counts."""
    import random

    import numpy as np

    rng = random.Random(20140809)
    counts = []
    for model, p in ((GroupModel.dd(2, 4, 2, 4), 2),
                     (GroupModel.demushkin(4, 3), 3),
                     (GroupModel.dd(2, 3, 2, 3), 3)):
        d = model.rank
        while True:
            A = np.array([[rng.randrange(p) for _ in range(d)]
                          for _ in range(d)])
            if rank_mod(A, p) == d:
                break
        grams = [A @ g @ A.T % p
                 for g in cup_grams(model_presentation(model, p), p)]
        counts.append((tmp_enumerate_forms(grams, p),
                       tmp_enumerate(model, p)[0]))
    ok = all(a == b for a, b in counts)
    return ok, "changed basis = model: " + ", ".join(
        f"{a} = {b}" for a, b in counts)


class Check(NamedTuple):
    """One row of the battery: check(threads) returns (ok, detail)."""

    name: str
    check: Callable
    suite: str  # the smallest suite that runs it


CHECKS = (
    Check("local-field degree 1 (q=2): nu(U_4) = 16", _local_q2_degree1,
          "desk"),
    Check("oracle d=3 q=2 relator variants agree", _oracle_d2_variants,
          "desk"),
    Check("borromean preset: 6 triples, epi 3072, nu 8", _borromean, "desk"),
    Check("three-generator free preset: nu 224", _ram01, "desk"),
    Check("closed triple counts = scans on the grid", _closed_grid, "desk"),
    Check("lift counts = cocycle counts (rank 3, free)", _lifts_small,
          "desk"),
    Check("U_3/U_2 pathway: 18 and 7", _u3_pathway, "desk"),
    Check("4-fold system absent for the rank-4 counterexample",
          _counterexample, "desk"),
    Check("quotient ladder matches surjection feasibility", _quotient_ladder,
          "desk"),
    Check("serial = threaded counts", _determinism, "desk"),
    Check("sum of lifts = oracle (rank 3)", _sum_identity_d3, "desk"),
    Check("rank-4 symplectic oracle: epi 737280, nu 1920", _d1_oracle,
          "extended"),
    Check("rank-4 lifts constant; sums = oracle", _lifts_rank4, "extended"),
    Check("product with free factor: formula = oracle 1327104",
          functools.partial(_wide_oracle, GroupModel.df(3, 2, 1), 1327104,
                            ORACLE_BUDGET), "extended"),
    Check("rank-2 double product: formula = tmp_sum = oracle 184320",
          functools.partial(_three_engines, GroupModel.dd(2, 4, 2, 4), 2,
                            184320), "extended"),
    Check("rank 2 has no U_4 surjections (formula = oracle = 0)",
          functools.partial(_three_engines, GroupModel.free(2), 3, 0),
          "extended"),
    Check("triple counts are invariant under a change of basis",
          _basis_invariance, "extended"),
    Check("P=p^6 p=5,7 scans = closed: demushkin(6,p), dd(4,p,2,p)",
          _scan_reach, "extended"),
) + tuple(
    # rank 5: 2^30 nominal assignments, within the extended budget; rank 6:
    # 2^36, past it, so those rows name their budget (2^30 are enumerated)
    Check(f"rank {model.rank} {model.describe()}: epi {frozen}",
          functools.partial(_wide_oracle, model, frozen, budget), "extended")
    for model, frozen, budget in (
        (GroupModel.free(5), 853278720, ORACLE_BUDGET_EXTENDED),
        (GroupModel.demushkin(5, 2), 96337920, ORACLE_BUDGET_EXTENDED),
        (GroupModel.df(3, 2, 2), 132120576, ORACLE_BUDGET_EXTENDED),
        (GroupModel.df(4, 4, 1), 96337920, ORACLE_BUDGET_EXTENDED),
        (GroupModel.free(6), 61436067840, 2 ** 36),
        (GroupModel.df(4, 4, 2), 8115978240, 2 ** 36),
        (GroupModel.dd(2, 4, 4, 4), 1680998400, 2 ** 36),
    )
) + tuple(
    Check(f"{model.describe()} p={p}: formula = tmp_sum {frozen}",
          functools.partial(_formula_vs_scan, model, p, frozen), "extended")
    for model, p, frozen in (
        (GroupModel.dd(4, 4, 4, 4), 2, 5585302978560),
        (GroupModel.dd(2, 3, 2, 3), 3, 498845952),
    )
) + tuple(
    # odd p against the oracle: rank 3 at p = 3 is 3^18 nominal assignments,
    # within the extended budget
    Check(f"{model.describe()} p=3: formula = tmp_sum = oracle {frozen}",
          functools.partial(_three_engines, model, 3, frozen), "extended")
    for model, frozen in (
        (GroupModel.free(3), 221079456),
        (GroupModel.df(2, 3, 1), 5668704),
        (preset_model("borromean"), 21730032),
    )
)


def run_check(check: Check, threads: int = 1) -> dict:
    """Run one check and return its table row."""
    t0 = time.monotonic()
    try:
        ok, detail = check.check(threads)
    except Exception as exc:  # surface, never hide, a broken check
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return {
        "name": check.name,
        "ok": bool(ok),
        "exploratory": False,  # kept in the JSON schema; every row asserts
        "detail": detail,
        "ms": int((time.monotonic() - t0) * 1000),
    }


def run_suite(suite: str = "desk", threads: int = 1) -> list:
    """Run the named suite and return its table rows."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    threads = max(1, int(threads))
    wanted = SUITES[:SUITES.index(suite) + 1]
    return [run_check(c, threads) for c in CHECKS if c.suite in wanted]


def suite_passed(rows) -> bool:
    return all(r["ok"] for r in rows)


def format_table(rows) -> str:
    width = max(len(r["name"]) for r in rows)
    lines = [
        f"[{'ok ' if r['ok'] else 'FAIL'}] {r['name']:<{width}}  {r['detail']} "
        f"({r['ms']} ms)"
        for r in rows
    ]
    good = sum(1 for r in rows if r["ok"])
    lines.append(f"{good}/{len(rows)} checks passed")
    return "\n".join(lines)
