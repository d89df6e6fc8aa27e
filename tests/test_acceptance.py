"""Acceptance criteria, one test per criterion.

Each criterion runs its rows of the self-check battery (`verify.CHECKS`) by
name and asserts that they pass; the counts live in those rows.  What no row
checks stays here: wall-time bounds, worker counts, and a few cells that
compute no count a row already computes.

Each test prints one `criterion N: PASS/FAIL` line (visible with -s, and on
any failure); the test names themselves mirror the criteria so the -v run
reads as the acceptance table.
"""

from functools import lru_cache

import pytest

from massey_census import verify
from massey_census.census import (
    GroupModel,
    local_field_model,
    nu_local_closed,
    un_quotient_decision,
)
from massey_census.fp import FpVector
from massey_census.oracle import count_epi_bruteforce, massey_system_exists
from massey_census.words import demushkin_presentation, preset

D1_ORACLE = "rank-4 symplectic oracle: epi 737280, nu 1920"
LIFTS_RANK4 = "rank-4 lifts constant; sums = oracle"


def report(n, detail):
    print(f"criterion {n}: PASS — {detail}")


class Fail:
    """Context that stamps the criterion line on the way out of a failure."""

    def __init__(self, n):
        self.n = n

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            print(f"criterion {self.n}: FAIL — {exc}")
        return False


@lru_cache(maxsize=None)
def row(name, threads=1):
    """The battery row of that name, run once per thread count."""
    check = {c.name: c for c in verify.CHECKS}[name]
    return verify.run_check(check, threads)


def passed(name, threads=1):
    r = row(name, threads)
    assert r["ok"], f"{name}: {r['detail']}"
    return r


def test_criterion_01_local_degree1_nu16():
    with Fail(1):
        local = passed("local-field degree 1 (q=2): nu(U_4) = 16")
        oracle = passed("oracle d=3 q=2 relator variants agree")
        # the row counts the model of the degree-1 field
        assert local_field_model(1, 2, 2) == GroupModel.demushkin(3, 2)
        elapsed = (local["ms"] + oracle["ms"]) / 1000
        assert elapsed <= 60, f"took {elapsed:.1f}s"
    report(1, f"{local['detail']}; {oracle['detail']} in {elapsed:.1f}s")


def test_criterion_02_rank4_symplectic_oracle():
    with Fail(2):
        single = passed(D1_ORACLE)
        t_single = single["ms"] / 1000
        assert t_single <= 600, f"single-threaded took {t_single:.1f}s"
        workers8 = passed(D1_ORACLE, threads=8)
        t_multi = workers8["ms"] / 1000
        assert t_multi <= 120, f"8 workers took {t_multi:.1f}s"
    report(2, f"{single['detail']} ({t_single:.1f}s single, {t_multi:.1f}s "
              f"with 8 workers); nu = local closed form")


def test_criterion_03_borromean():
    with Fail(3):
        r = passed("borromean preset: 6 triples, epi 3072, nu 8")
    report(3, r["detail"])


def test_criterion_04_ram01():
    with Fail(4):
        r = passed("three-generator free preset: nu 224")
    report(4, r["detail"])


def test_criterion_05_closed_equals_scan_grid():
    with Fail(5):
        r = passed("closed triple counts = scans on the grid")
        # rank 3 with q != 2 admits no model; the row covers p = 3
        with pytest.raises(ValueError):
            GroupModel.demushkin(3, 5)
    report(5, f"{r['detail']}; rank-3 cells at p in {{3,5}} are vacuous")


def test_criterion_06_lifts_equal_cocycle_counts():
    with Fail(6):
        small = passed("lift counts = cocycle counts (rank 3, free)")
        rank4 = passed(LIFTS_RANK4)
        # the p=3 one-relator cells are vacuous: no rank-3 model exists
        with pytest.raises(ValueError):
            GroupModel.demushkin(3, 3)
    report(6, f"{small['detail']}; {rank4['detail']}; "
              f"p=3 one-relator cell vacuous")


def test_criterion_07_sum_of_lifts_equals_oracle():
    with Fail(7):
        rank3 = passed("sum of lifts = oracle (rank 3)")
        rank4 = passed(LIFTS_RANK4)
    report(7, f"{rank3['detail']}; {rank4['detail']}")


def test_criterion_08_u3_and_u2_pathways():
    with Fail(8):
        r = passed("U_3/U_2 pathway: 18 and 7")
        assert nu_local_closed(1, 2, 2, 2) == 7
    report(8, f"{r['detail']}; nu(U_2) local closed form 7")


def test_criterion_09_counterexample_search():
    with Fail(9):
        pres = preset("counterexample1")
        chars = [
            FpVector(tuple(1 if j == i else 0 for j in range(4)), 2)
            for i in range(4)
        ]
        # a 3-fold system exists iff the two consecutive cups vanish, so
        # these two existence checks certify all three consecutive cups
        assert massey_system_exists(pres, chars[:3], 2) is True
        assert massey_system_exists(pres, chars[1:], 2) is True
        r = passed("4-fold system absent for the rank-4 counterexample")
        elapsed = r["ms"] / 1000
        assert elapsed <= 60, f"took {elapsed:.1f}s"
    report(9, f"consecutive cups vanish (3-fold systems exist) but no "
              f"4-fold system over all 2^20 assignments ({elapsed:.1f}s)")


def test_criterion_10_quotient_ladder():
    with Fail(10):
        r = passed("quotient ladder matches surjection feasibility")
        d4 = GroupModel.demushkin(4, 4)
        for n in (2, 3, 4, 5, 6):
            assert un_quotient_decision(d4, n) is (n <= 5)
    report(10, f"U_n quotients exist exactly for n <= rank + 1 "
               f"(Q_2 ladder: yes for 2,3,4; no for 5,6); {r['detail']}")


def test_criterion_11_free_product_formulas():
    with Fail(11):
        df = passed("product with free factor: formula = oracle 1327104")
        dd = passed("rank-2 double product: formula = tmp_sum = oracle 184320")
    report(11, f"{df['detail']}; rank-2 double product: {dd['detail']}")


def test_criterion_12_thread_determinism():
    with Fail(12):
        r = passed("serial = threaded counts")
        pres = demushkin_presentation(3, 2, 2, "D2", f="inf")
        assert count_epi_bruteforce(pres, 4, 2, threads=3,
                                    chunk=2 ** 12) == 6144
        passed(D1_ORACLE)
        passed(D1_ORACLE, threads=2)
    report(12, f"{r['detail']}; 3 workers at chunk 2^12 give 6144; "
               f"rank-4 oracle 737280 with 1 and 2 workers")


def test_odd_p_u4_oracle_rows():
    # the first nonzero U_4 counts at an odd prime checked against the oracle
    for name in ("free(d=3) p=3: formula = tmp_sum = oracle 221079456",
                 "demushkin(d=2,q=3,D1) * free(d=1) p=3: formula = tmp_sum "
                 "= oracle 5668704",
                 "s3(borromean) p=3: formula = tmp_sum = oracle 21730032"):
        passed(name)


def test_basis_invariance_row():
    # tmp_enumerate_forms on A G A^T equals the model's own scan
    r = passed("triple counts are invariant under a change of basis")
    assert r["detail"] == ("changed basis = model: 144 = 144, "
                           "34560 = 34560, 6912 = 6912")


def test_scan_reach_row():
    # P = 5^6 and 7^6: the count and tmp_sum's class counts rank one point
    # per line through 0 and never build the pair mask
    passed("P=p^6 p=5,7 scans = closed: demushkin(6,p), dd(4,p,2,p)")
