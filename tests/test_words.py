"""Tests for words, presentations, and the standard relator families."""

import json
import re

import numpy as np
import pytest

from massey_census import words
from massey_census.forms import load_input_file
from massey_census.unipotent import (
    P_INFINITY,
    fp_ring,
    mul_recipe,
    triangle_pairs,
    walk_word,
)
from massey_census.words import (
    Comm,
    Gen,
    Pow,
    Presentation,
    Prod,
    RamifiedRelatorData,
    demushkin_presentation,
    free_presentation,
    free_product,
    max_generator,
    preset,
    preset_tensor,
    presentation_from_json,
    q_value,
    ramified_data_from_json,
    ramified_presentation,
    word_from_json,
)


def test_word_equality_and_validation():
    w = Comm(Comm(Gen(2), Gen(3)), Gen(1))
    assert w == Comm(Comm(Gen(2), Gen(3)), Gen(1))
    assert w != Comm(Gen(2), Gen(3))
    assert max_generator(w) == 3
    assert max_generator(Prod()) == 0
    with pytest.raises(ValueError):
        Gen(0)
    with pytest.raises(TypeError):
        Prod(Gen(1), "x2")


def stored(mapping):
    """U_4 entries in triangle order from a {(i, j): value} dict."""
    return [mapping.get(pq, 0) for pq in triangle_pairs(4)]


def evaluate(w, images, p):
    return walk_word(w, [stored(im) for im in images], mul_recipe(4),
                     fp_ring(p))


def test_evaluate_commutator_hand_value():
    # [x1, x2] = x1^-1 x2^-1 x1 x2.  With x1 = I + E12 and x2 = I + E23 it
    # is I + E13, and [x2, x1] is I - E13 (I + 2 E13 at p = 3).  With
    # x2 = I + E23 + E34 it is still I + E13, where x1 x2 x1^-1 x2^-1
    # would be I + E13 - E14
    x1, x2, y2 = {(1, 2): 1}, {(2, 3): 1}, {(2, 3): 1, (3, 4): 1}
    ident = stored({})
    for p in (2, 3):
        assert evaluate(Comm(Gen(1), Gen(2)), [x1, x2], p) == stored(
            {(1, 3): 1})
        assert evaluate(Comm(Gen(2), Gen(1)), [x1, x2], p) == stored(
            {(1, 3): p - 1})
        assert evaluate(Comm(Gen(1), Gen(2)), [x1, y2], p) == stored(
            {(1, 3): 1})
        assert evaluate(Comm(Gen(1), Gen(2)), [{}, {}], p) == ident
        assert evaluate(Pow(Gen(1), P_INFINITY), [x1], p) == ident
        assert evaluate(Prod(), [x1], p) == ident


def test_q_value():
    assert q_value(4, 2) == 4
    assert q_value(0, 2) == 0
    assert q_value("inf", 5) == 0
    with pytest.raises(ValueError):
        q_value(6, 2)
    with pytest.raises(ValueError):
        q_value(1, 2)
    with pytest.raises(ValueError):
        q_value(9, 3) and q_value(3, 2)
    with pytest.raises(ValueError):
        q_value(4, 1)  # p must be prime


def test_demushkin_d1():
    pres = demushkin_presentation(4, 2, 4, "D1")
    assert pres.rank == 4
    assert pres.relators == (
        Prod(
            Pow(Gen(1), 4),
            Comm(Gen(1), Gen(2)),
            Comm(Gen(3), Gen(4)),
        ),
    )
    # infinite q gives an identity power factor
    pinf = demushkin_presentation(2, 3, "inf", "D1")
    assert pinf.relators[0].factors[0] == Pow(Gen(1), P_INFINITY)


def test_demushkin_d2():
    pres = demushkin_presentation(3, 2, 2, "D2", f="inf")
    # x1^2 x2^{2^inf} [x2,x3]: the x2 factor is a p-infinity power
    assert pres.relators == (
        Prod(
            Pow(Gen(1), 2),
            Pow(Gen(2), P_INFINITY),
            Comm(Gen(2), Gen(3)),
        ),
    )
    p2 = demushkin_presentation(3, 2, 2, "D2", f=2)
    assert p2.relators[0].factors[1] == Pow(Gen(2), 4)
    p5 = demushkin_presentation(5, 2, 2, "D2", f=3)
    assert p5.relators[0].factors[2:] == (
        Comm(Gen(2), Gen(3)),
        Comm(Gen(4), Gen(5)),
    )


def test_demushkin_d3_d4():
    p3 = demushkin_presentation(4, 2, 2, "D3", f=2)
    assert p3.relators[0].factors[0] == Pow(Gen(1), 6)  # 2 + 2^2
    p3i = demushkin_presentation(4, 2, 2, "D3", f="inf")
    assert p3i.relators[0].factors[0] == Pow(Gen(1), 2)  # 2 + 0
    p4 = demushkin_presentation(4, 2, 2, "D4", f=2)
    assert p4.relators == (
        Prod(
            Pow(Gen(1), 2),
            Comm(Gen(1), Gen(2)),
            Pow(Gen(3), 4),
            Comm(Gen(3), Gen(4)),
        ),
    )


def test_demushkin_constraint_errors():
    with pytest.raises(ValueError):
        demushkin_presentation(3, 3, 3, "D1")  # d odd
    with pytest.raises(ValueError):
        demushkin_presentation(4, 2, 2, "D1")  # q = 2 not allowed in D1
    with pytest.raises(ValueError):
        demushkin_presentation(4, 2, 2, "D2")  # d must be odd
    with pytest.raises(ValueError):
        demushkin_presentation(3, 3, 3, "D2")  # p must be 2
    with pytest.raises(ValueError):
        demushkin_presentation(3, 2, 2, "D2", f=1)  # f >= 2
    with pytest.raises(ValueError):
        demushkin_presentation(3, 2, 2, "D2")  # f required
    with pytest.raises(ValueError):
        demushkin_presentation(4, 2, 2, "D4", f="inf")  # f finite in D4
    with pytest.raises(ValueError):
        demushkin_presentation(2, 2, 2, "D4", f=2)  # d >= 4
    with pytest.raises(ValueError):
        demushkin_presentation(4, 2, 4, "D9")


def test_relator_f_independence_in_u4_f2():
    # with f >= 2, 2^f = 0 mod 4, and every element of U_4(F_2) has order
    # dividing 4 -- so the relator kernel cannot depend on the finite f.
    # Exhaustive check at d=3 via the vectorized evaluator would be overkill
    # here; sampled word evaluation plus the exponent argument covers it.
    rng = np.random.default_rng(12)
    variants = [
        demushkin_presentation(3, 2, 2, "D2", f=f) for f in (2, 3, "inf")
    ]
    recipe, ring = mul_recipe(4), fp_ring(2)
    for _ in range(200):
        images = rng.integers(0, 2, size=(3, 6)).tolist()
        values = {
            tuple(walk_word(v.relators[0], images, recipe, ring))
            for v in variants
        }
        assert len(values) == 1


def test_free_product_shifts():
    dem = demushkin_presentation(3, 2, 2, "D2", f="inf")
    combo = free_product([dem, free_presentation(2)])
    assert combo.rank == 5
    assert len(combo.relators) == 1
    assert max_generator(combo.relators[0]) == 3
    combo2 = free_product([free_presentation(2), dem])
    # the relator now lives in generators 3..5
    assert combo2.relators[0] == words._shift_word(dem.relators[0], 2)
    assert max_generator(combo2.relators[0]) == 5


def test_presets():
    b = preset("borromean")
    assert b.rank == 3 and len(b.relators) == 2
    assert b.relators[0] == Comm(Comm(Gen(2), Gen(3)), Gen(1))
    assert b.relators[1] == Comm(Comm(Gen(1), Gen(3)), Gen(2))
    r = preset("ram01")
    assert r.rank == 3 and len(r.relators) == 0
    c = preset("counterexample1")
    assert c.rank == 4 and len(c.relators) == 1
    with pytest.raises(ValueError):
        preset("nope")


def test_preset_tensors_match_presets():
    # each preset is its tensor spelled out; every exponent is 1, so every
    # prime spells the same words
    borromean = Presentation(3, [Comm(Comm(Gen(2), Gen(3)), Gen(1)),
                                 Comm(Comm(Gen(1), Gen(3)), Gen(2))])
    counterexample = Presentation(4, [Comm(Comm(Gen(2), Gen(3)), Gen(1))])
    assert preset("borromean") == borromean
    assert preset("counterexample1") == counterexample
    assert preset("ram01") == free_presentation(3)
    for p in (2, 3, 5, 7):
        assert ramified_presentation(preset_tensor("borromean"), p) == borromean
        assert (ramified_presentation(preset_tensor("counterexample1"), p)
                == counterexample)
    assert preset_tensor("ram01").e == {}
    with pytest.raises(ValueError, match="unknown preset"):
        preset_tensor("nope")


def test_ramified_data_validation():
    with pytest.raises(ValueError):
        RamifiedRelatorData(3, {(2, 1, 1, 1): 1})  # needs i < j
    with pytest.raises(ValueError):
        RamifiedRelatorData(3, {(1, 2, 3, 1): 1})  # k <= j
    with pytest.raises(ValueError):
        RamifiedRelatorData(3, {(1, 2, 1, 2): 1}, r=1)  # m beyond r
    data = RamifiedRelatorData(3, {(1, 3, 2, 1): 2, (1, 2, 1, 1): 0})
    assert data.terms(1) == [(1, 3, 2, 2)]
    # exponents reduce mod p at presentation time
    pres = ramified_presentation(data, 2)
    assert pres.relators == ()
    pres3 = ramified_presentation(data, 3)
    assert pres3.relators == (
        Pow(Comm(Comm(Gen(1), Gen(3)), Gen(2)), 2),
    )


def test_word_from_json_literals():
    assert word_from_json(["gen", 2]) == Gen(2)
    assert word_from_json(["pow", ["gen", 1], 4]) == Pow(Gen(1), 4)
    assert word_from_json(["pow", ["gen", 1], -1]) == Pow(Gen(1), -1)
    assert word_from_json(["pow", ["gen", 2], "p-inf"]) == Pow(Gen(2),
                                                                P_INFINITY)
    assert word_from_json(["comm", ["gen", 1], ["gen", 2]]) == Comm(Gen(1),
                                                                    Gen(2))
    assert word_from_json(["prod"]) == Prod()
    assert word_from_json(
        ["prod", ["pow", ["gen", 1], 4],
         ["comm", ["comm", ["gen", 2], ["gen", 3]], ["gen", 1]],
         ["pow", ["gen", 2], "p-inf"]]
    ) == Prod(Pow(Gen(1), 4), Comm(Comm(Gen(2), Gen(3)), Gen(1)),
              Pow(Gen(2), P_INFINITY))


def test_word_json_errors():
    with pytest.raises(ValueError, match="gen"):
        word_from_json(["gen", "one"])
    # a bool is no generator index, although Python counts True as 1
    with pytest.raises(ValueError, match=r"integer index, got \[True\]"):
        word_from_json(["gen", True])
    with pytest.raises(ValueError, match=r"relator\b|word"):
        word_from_json([])
    with pytest.raises(ValueError, match=r"word\.comm\[1\]"):
        word_from_json(["comm", ["gen", 1], ["zen", 2]])
    with pytest.raises(ValueError, match="p-inf"):
        word_from_json(["pow", ["gen", 1], 1.5])


def test_presentation_file_loading(tmp_path):
    f = tmp_path / "pres.json"
    f.write_text(
        json.dumps(
            {
                "rank": 3,
                "relators": [
                    ["comm", ["comm", ["gen", 2], ["gen", 3]], ["gen", 1]],
                    ["comm", ["comm", ["gen", 1], ["gen", 3]], ["gen", 2]],
                ],
            }
        )
    )
    pres = load_input_file(str(f))
    assert isinstance(pres, Presentation)
    assert pres.relators == preset("borromean").relators

    g = tmp_path / "preset.json"
    g.write_text(json.dumps({"preset": "ram01"}))
    assert load_input_file(str(g)).rank == 3

    t = tmp_path / "tensor.json"
    t.write_text(
        json.dumps(
            {
                "n": 3,
                "relators": [
                    {"m": 1, "terms": [{"i": 2, "j": 3, "k": 1, "e": 1}]},
                    {"m": 2, "terms": [{"i": 1, "j": 3, "k": 2, "e": 1}]},
                ],
            }
        )
    )
    data = load_input_file(str(t))
    assert isinstance(data, RamifiedRelatorData)
    assert data == preset_tensor("borromean")

    bad = tmp_path / "bad.json"
    bad.write_text("{\"rank\": 3,,}")
    with pytest.raises(ValueError, match="line 1"):
        load_input_file(str(bad))

    badrel = tmp_path / "badrel.json"
    badrel.write_text(json.dumps({"rank": 2, "relators": [["gen", 5]]}))
    with pytest.raises(ValueError, match="beyond rank"):
        load_input_file(str(badrel))


@pytest.mark.parametrize("field, value", [
    ("e", 1.5), ("e", True), ("i", 2.0), ("m", True), ("n", 3.0),
])
def test_tensor_fields_refuse_non_integers(field, value):
    # int() would read 1.5 and true as 1 and count a different tensor
    term = {"i": 2, "j": 3, "k": 1, "e": 1}
    rel = {"m": 1, "terms": [term]}
    obj = {"n": 3, "relators": [rel]}
    {"n": obj, "m": rel}.get(field, term)[field] = value
    where = {"n": '"n"', "m": "relators[0].m"}.get(
        field, f"relators[0].terms[0].{field}")
    with pytest.raises(ValueError,
                       match=re.escape(f"{where} must be an integer")):
        ramified_data_from_json(obj)


def test_presentation_rank_refuses_bool():
    with pytest.raises(ValueError, match='"rank" must be a positive integer'):
        presentation_from_json({"rank": True, "relators": []})


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(0)
    with pytest.raises(ValueError):
        Presentation(2, [Gen(3)])
    assert Presentation(2, [Comm(Gen(1), Gen(2))]).relators == (
        Comm(Gen(1), Gen(2)),)
