#!/usr/bin/env python3
"""Triple linking of primes, and why cup products alone cannot decide."""

from massey_census import (
    FpVector,
    count_epi_bruteforce,
    epi_count,
    massey_system_exists,
    nu_extensions,
    preset,
    preset_model,
    tmp_enumerate,
)


def main():
    # Three odd primes that pairwise link trivially mod 2 but carry nonzero
    # triple linking behave like the Borromean rings: the associated pro-2
    # group is free on three generators with relators that record the mod-2
    # triple linking numbers as a trilinear form.
    model = preset_model("borromean")
    pres = preset("borromean")
    print(f"model: {model.describe()}, rank {model.rank}, "
          f"{len(pres.relators)} relators")

    count, triples = tmp_enumerate(model, 2, want_list=True)
    print(f"\ncharacter triples killing the linking form: {count}")
    for t in triples:
        print(f"    x={t.x.entries} y={t.y.entries} z={t.z.entries}")

    report = epi_count(model, 2)
    brute = count_epi_bruteforce(pres, 4, 2)
    assert report.epi == brute
    print(f"\nsurjections onto U_4(F_2): {report.epi} "
          f"(= {count} triples * 2^9 lifts), oracle agrees: {brute}")
    print(f"Galois extensions with that group: "
          f"{nu_extensions(model, 2).nu}")

    # A three-prime set with one nontrivial pairwise symbol instead gives a
    # free rank-3 model and a much larger count.
    ram = preset_model("ram01")
    print(f"\nfor comparison, the one-ramified-pair preset "
          f"({ram.describe()}) gives nu = {nu_extensions(ram, 2).nu}")

    # Vanishing consecutive cup products lets a fourfold Massey product be
    # written down, but does not force a defining system to exist.  The
    # rank-4 one-relator preset below is exactly such a counterexample.
    cx = preset("counterexample1")
    basis = [
        FpVector(tuple(1 if j == i else 0 for j in range(4)), 2)
        for i in range(4)
    ]
    lower = massey_system_exists(cx, basis[:3], 2)
    upper = massey_system_exists(cx, basis[1:], 2)
    full = massey_system_exists(cx, basis, 2)
    print(f"\ncounterexample presentation (rank 4, one relator):")
    print(f"    3-fold system for (x1,x2,x3): {lower}")
    print(f"    3-fold system for (x2,x3,x4): {upper}")
    print(f"    4-fold system for (x1,x2,x3,x4): {full}")
    print(f"\nevery cup product vanishes here, yet a 4-fold defining system "
          f"{'exists' if full else 'does not exist'}")


if __name__ == "__main__":
    main()
