import gc
import random
import tracemalloc

import numpy as np
import pytest

from brute_force import rec_act_on_vertex, rec_state_sets, reference_disagreement_level
from selfsim import (
    RecEquation,
    RecSystem,
    b_letter,
    build_conjugator,
    conjugation_disagreement_level,
    gen_a,
    gen_b,
    identity,
    level_perm,
    multiply,
    parse_word,
    power,
    rec_level_perm,
)
from selfsim import recsys
from selfsim.errors import EvenQ, LevelTooLarge, NoDihedralWitness, SpecMismatch


def test_build_conjugator_frozen(ge):
    r = build_conjugator(ge, 3)
    assert rec_act_on_vertex(r, "00") == "01"
    assert rec_act_on_vertex(r, "0000") == "0111"
    assert rec_level_perm(r, 2).images.tolist() == [1, 0, 2, 3]
    assert rec_level_perm(r, 3).images.tolist() == [3, 2, 1, 0, 5, 4, 6, 7]
    with pytest.raises(ValueError):
        rec_act_on_vertex(r, "02")


def test_conjugator_errors(ge, grig, fg):
    with pytest.raises(EvenQ):
        build_conjugator(ge, 4)
    with pytest.raises(ValueError):
        build_conjugator(ge, 1)
    with pytest.raises(NoDihedralWitness):
        build_conjugator(grig, 3)
    with pytest.raises(NoDihedralWitness):
        build_conjugator(fg, 3)


def test_conjugation_carries_line_pair(ge):
    a = gen_a(ge)
    b = b_letter(ge, (1, 1))
    for q in (3, 5):
        r = build_conjugator(ge, q)
        big = multiply(power(multiply(a, b), q), b)
        assert conjugation_disagreement_level(r, big, a, depth=8) is None
        for x in (gen_b(ge, 0), gen_b(ge, 1), b):
            assert conjugation_disagreement_level(r, x, x, depth=8) is None


def test_conjugation_disagreement(ge, grig):
    r = build_conjugator(ge, 3)
    a = gen_a(ge)
    # the root levels agree, the claim first breaks at level 2
    assert conjugation_disagreement_level(r, a, a, depth=6) == 2
    assert conjugation_disagreement_level(r, identity(ge), identity(ge)) is None
    with pytest.raises(SpecMismatch):
        conjugation_disagreement_level(r, gen_a(grig), a)


def test_conjugation_depth_over_cap_refused_up_front(ge, monkeypatch):
    # 2^21 exceeds the enumeration cap: refused before level 1 is built
    r = build_conjugator(ge, 3)

    def no_level(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(recsys, "rec_level_perm", no_level)
    with pytest.raises(LevelTooLarge):
        conjugation_disagreement_level(r, gen_a(ge), gen_a(ge), depth=21)


def test_rec_level_perm_input_checks(ge):
    # refused up front, as level_perm refuses them: no array is built
    r = build_conjugator(ge, 3)
    for f, x in ((rec_level_perm, r), (level_perm, gen_a(ge))):
        with pytest.raises(ValueError):
            f(x, -1)
        with pytest.raises(LevelTooLarge):
            f(x, 21)


def test_level_builds_free_their_memo(ge):
    # with the cyclic collector off, a memo kept alive by a reference
    # cycle would still hold all of its (state, depth) blocks on return
    r = build_conjugator(ge, 5)
    a, b = gen_a(ge), b_letter(ge, (1, 1))
    word = multiply(power(multiply(a, b), 5), b)
    gc.disable()
    tracemalloc.start()
    try:
        for build, x in ((rec_level_perm, r), (level_perm, word)):
            before = tracemalloc.get_traced_memory()[0]
            images = build(x, 14).images
            held = tracemalloc.get_traced_memory()[0] - before
            assert held < 2 * images.nbytes, (build.__name__, held)
            del images
    finally:
        tracemalloc.stop()
        gc.enable()


def test_state_sets_stay_small(ge):
    for q in (3, 5, 7, 9):
        r = build_conjugator(ge, q)
        sizes = [len(s) for s in rec_state_sets(r, 10)]
        assert max(sizes) <= q
        assert sizes[6:] == [q] * len(sizes[6:])


def test_vertex_action_matches_level_perm(ge):
    rng = random.Random(41)
    for q in (3, 5):
        r = build_conjugator(ge, q)
        for n in (1, 3, 6):
            perm = rec_level_perm(r, n)
            for _ in range(10):
                v = "".join(str(rng.randrange(2)) for _ in range(n))
                img = rec_act_on_vertex(r, v)
                assert perm.images[int(v, 2)] == int(img, 2)


def test_rec_system_encodes_group_elements(ge):
    # sanity anchor: systems that spell out a and the witness letter give
    # exactly the level permutations of those elements
    one = identity(ge)
    eq_i = RecEquation(0, (one, one), ("I", "I"))
    eq_a = RecEquation(1, (one, one), ("I", "I"))
    sys_a = RecSystem(ge, {"I": eq_i, "A": eq_a}, "A")
    eq_b = RecEquation(0, (gen_a(ge), one), ("I", "B"))
    sys_b = RecSystem(ge, {"I": eq_i, "B": eq_b}, "B")
    for n in range(1, 7):
        assert np.array_equal(
            rec_level_perm(sys_a, n).images, level_perm(gen_a(ge), n).images
        )
        assert np.array_equal(
            rec_level_perm(sys_b, n).images,
            level_perm(b_letter(ge, (1, 1)), n).images,
        )


def test_rec_system_validation(ge, grig):
    one = identity(ge)
    good = RecEquation(0, (one, one), ("S", "S"))
    with pytest.raises(ValueError):
        RecSystem(ge, {"S": RecEquation(0, (one,), ("S",))}, "S")
    with pytest.raises(ValueError):
        RecSystem(ge, {"S": RecEquation(0, (one, one), ("S", "T"))}, "S")
    with pytest.raises(ValueError):
        RecSystem(ge, {"S": good}, "T")
    with pytest.raises(SpecMismatch):
        RecSystem(
            ge, {"S": RecEquation(0, (identity(grig), one), ("S", "S"))}, "S"
        )


def test_disagreement_level_matches_reference(ge):
    # the real conjugator, one with its sections swapped and one built for
    # the wrong q: the one-level check and the per-level loop must refute
    # (or accept) each identity at the same level
    a, b = gen_a(ge), b_letter(ge, (1, 1))
    for q in (3, 5, 7):
        real = build_conjugator(ge, q)
        eq = real.equations["G0"]
        swapped = RecSystem(
            ge,
            {"G0": RecEquation(0, eq.section_words[::-1], eq.section_symbols)},
            "G0",
        )
        wrong_q = build_conjugator(ge, q + 2)
        big = multiply(power(multiply(a, b), q), b)
        pairs = [(big, a), (gen_b(ge, 0),) * 2, (gen_b(ge, 1),) * 2, (b, b), (a, a),
                 (gen_b(ge, 0), gen_b(ge, 1))]
        seen = set()
        for r in (real, swapped, wrong_q):
            for x, y in pairs:
                for depth in (1, 4, 8, 12):
                    got = conjugation_disagreement_level(r, x, y, depth)
                    assert got == reference_disagreement_level(r, x, y, depth), (q, x, y, depth)
                    seen.add(got)
        # both verdicts occur, and refutations at more than one level
        assert None in seen and len(seen) >= 3
