import random
from itertools import product

import pytest

from brute_force import reference_find_cd, reference_wreath_letters
from selfsim import (
    AbelImage,
    Element,
    ExceedsBound,
    Finite,
    abelianize,
    act_on_vertex,
    b_length,
    b_letter,
    basis_gens,
    commutator,
    conjugate,
    equal_elements,
    find_cd,
    gen_a,
    gen_b,
    generating_set,
    identity,
    invert,
    is_trivial,
    level_perm,
    make_spec,
    multiply,
    order_probe,
    parse_word,
    phi_lift,
    power,
    root_exponent,
    section_at,
    theta,
    theta_stabilize,
    word_str,
    wreath,
)
from selfsim.elements import _trivial_rec, _wreath_letters
from selfsim.errors import (
    NotInDerivedSubgroup,
    SpecMismatch,
    WordSyntaxError,
    WrongCharacteristic,
)


def random_word(spec, rng, length):
    gens = generating_set(spec)
    x = identity(spec)
    for _ in range(length):
        g = rng.choice(gens)
        if rng.random() < 0.5:
            g = invert(g)
        x = multiply(x, g)
    return x


def test_constructors(ge, fg):
    assert identity(ge).letters == ()
    assert gen_a(ge).letters == (-1,)
    assert gen_a(ge, 2).letters == ()
    assert gen_a(fg, 2).letters == (-2,)
    assert gen_a(fg, 4).letters == (-1,)
    assert gen_b(ge, 0).letters == (1,)
    assert gen_b(ge, 1).letters == (2,)
    assert b_letter(ge, (1, 1)).letters == (3,)
    assert b_letter(ge, (0, 0)).letters == ()
    with pytest.raises(ValueError):
        gen_b(ge, 2)
    assert len(generating_set(ge)) == 3
    assert len(basis_gens(fg)) == 1


def test_reduction_and_inverse(ge, fg):
    a = gen_a(ge)
    b0 = gen_b(ge, 0)
    b1 = gen_b(ge, 1)
    assert multiply(a, a).letters == ()
    assert multiply(b0, b1).letters == (3,)
    assert multiply(multiply(a, b0), multiply(b0, a)).letters == ()
    # letters cancel through a chain of merges
    w = parse_word(ge, "ab0a b1 a b1 a b0 a")
    assert multiply(w, invert(w)).letters == ()
    a3 = gen_a(fg)
    assert invert(a3).letters == (-2,)
    assert multiply(a3, invert(a3)).letters == ()


def test_spec_mismatch(ge, grig):
    with pytest.raises(SpecMismatch):
        multiply(gen_a(ge), gen_a(grig))


def test_wreath_frozen(ge, grig, fg):
    # x^2 + 1 pair: first basis letter has sections (1, b1), second (a, b0)
    w = wreath(gen_b(ge, 0))
    assert w.root == 0
    assert w.sections[0].letters == ()
    assert w.sections[1].letters == (2,)
    w = wreath(gen_b(ge, 1))
    assert w.root == 0
    assert w.sections[0].letters == (-1,)
    assert w.sections[1].letters == (1,)
    # x^2 + x + 1: codes 1 -> (1, 2), 2 -> (a, 3), 3 -> (a, 1)
    for code, root0, tail in ((1, (), (2,)), (2, (-1,), (3,)), (3, (-1,), (1,))):
        w = wreath(Element(grig, (code,)))
        assert w.sections[0].letters == root0
        assert w.sections[1].letters == tail
    # p = 3, f = x + 2: sections (a, 1, b)
    w = wreath(gen_b(fg, 0))
    assert w.root == 0
    assert [s.letters for s in w.sections] == [(-1,), (), (1,)]
    # the a generator carries everything into the root exponent
    w = wreath(gen_a(fg, 2))
    assert w.root == 2
    assert all(s.letters == () for s in w.sections)


def test_wreath_of_product(ge):
    x = parse_word(ge, "(ab1)^2")
    assert x.letters == (-1, 2, -1, 2)
    w = wreath(x)
    assert w.root == 0
    assert w.sections[0].letters == (1, -1)
    assert w.sections[1].letters == (-1, 1)


def test_section_at(ge):
    x = parse_word(ge, "(ab1)^2")
    assert section_at(x, "0").letters == (1, -1)
    assert section_at(x, "1").letters == (-1, 1)
    assert section_at(x, (1,)).letters == (-1, 1)
    assert section_at(x, "").letters == x.letters
    with pytest.raises(ValueError):
        section_at(x, "2")


def test_act_on_vertex_frozen(ge, grig, fg):
    assert act_on_vertex(gen_a(ge), "01") == "11"
    assert act_on_vertex(gen_b(ge, 1), "00") == "01"
    assert act_on_vertex(gen_b(ge, 0), "00") == "00"
    assert act_on_vertex(parse_word(ge, "(ab1)^2"), "10") == "11"
    # first basis letter of the (2, x^2+x+1) group relabels deep below 11
    assert act_on_vertex(gen_b(grig, 0), "1100") == "1101"
    assert act_on_vertex(gen_b(grig, 0), "0000") == "0000"
    assert act_on_vertex(gen_a(fg, 2), "12") == "02"
    assert act_on_vertex(gen_b(fg, 0), "02") == "00"
    # below the middle subtree the section is trivial
    assert act_on_vertex(gen_b(fg, 0), (1, 2)) == (1, 2)
    assert act_on_vertex(gen_b(fg, 0), (2, 0, 1)) == (2, 0, 2)


def test_action_is_composition(ge, grig):
    rng = random.Random(11)
    for spec in (ge, grig):
        for _ in range(40):
            x = random_word(spec, rng, rng.randrange(1, 12))
            y = random_word(spec, rng, rng.randrange(1, 12))
            v = "".join(str(rng.randrange(spec.p)) for _ in range(6))
            assert act_on_vertex(multiply(x, y), v) == act_on_vertex(
                x, act_on_vertex(y, v)
            )


def test_sections_compose(ge, grig):
    # section of a product at v is (section of x at y(v)) * (section of y at v)
    rng = random.Random(12)
    for spec in (ge, grig):
        for _ in range(40):
            x = random_word(spec, rng, rng.randrange(1, 10))
            y = random_word(spec, rng, rng.randrange(1, 10))
            v = str(rng.randrange(spec.p))
            lhs = section_at(multiply(x, y), v)
            rhs = multiply(section_at(x, act_on_vertex(y, v)), section_at(y, v))
            assert equal_elements(lhs, rhs)


def test_contraction_bound(ge, grig, fg):
    rng = random.Random(13)
    for spec in (ge, grig, fg):
        for _ in range(60):
            x = random_word(spec, rng, rng.randrange(2, 24))
            n = len(x.letters)
            cap = (n + 2) // 2
            for s in wreath(x).sections:
                assert len(s.letters) <= max(cap, 1)


def test_root_exponent_b_length_abelianize(ge, fg):
    x = parse_word(ge, "ab0ab1")
    assert root_exponent(x) == 0
    assert b_length(x) == 2
    img = abelianize(x)
    assert img == AbelImage(0, abelianize(parse_word(ge, "b0b1")).b_sum)
    assert abelianize(parse_word(ge, "ab0ab0")).is_zero
    assert not abelianize(gen_a(ge)).is_zero
    assert root_exponent(parse_word(fg, "a^2 b0 a^2")) == 1


def test_abelianize_additive(ge, fg):
    rng = random.Random(14)
    for spec in (ge, fg):
        for _ in range(40):
            x = random_word(spec, rng, rng.randrange(0, 14))
            y = random_word(spec, rng, rng.randrange(0, 14))
            xy = abelianize(multiply(x, y))
            assert xy.a_exp == (abelianize(x).a_exp + abelianize(y).a_exp) % spec.p
            assert xy.b_sum == (abelianize(x).b_sum + abelianize(y).b_sum).reduced(
                spec.p
            )


def test_power_and_associativity(ge, fg):
    rng = random.Random(15)
    for spec in (ge, fg):
        for _ in range(30):
            x = random_word(spec, rng, rng.randrange(0, 8))
            y = random_word(spec, rng, rng.randrange(0, 8))
            z = random_word(spec, rng, rng.randrange(0, 8))
            assert (
                multiply(multiply(x, y), z).letters
                == multiply(x, multiply(y, z)).letters
            )
            i = rng.randrange(-5, 6)
            j = rng.randrange(-5, 6)
            assert (
                multiply(power(x, i), power(x, j)).letters == power(x, i + j).letters
            )
        assert power(gen_a(spec), spec.p).letters == ()


def test_word_problem_frozen(ge, grig):
    assert is_trivial(identity(ge))
    assert not is_trivial(gen_a(ge))
    assert not is_trivial(gen_b(ge, 0))
    for spec in (ge, grig):
        for g in generating_set(spec):
            assert is_trivial(power(g, 2))
        b, c = basis_gens(spec)
        assert is_trivial(commutator(b, c))
    # (a b0)^4 = 1 but (a b0)^2 != 1 for x^2 + 1
    x = parse_word(ge, "ab0")
    assert not is_trivial(power(x, 2))
    assert is_trivial(power(x, 4))
    # the (2, x^2+x+1) group: orders 4, 8, 16 for a times codes 1, 3, 2
    assert order_probe(parse_word(grig, "ab0"), 64) == Finite(4)
    assert order_probe(parse_word(grig, "aB<1,1>"), 64) == Finite(8)
    assert order_probe(parse_word(grig, "ab1"), 64) == Finite(16)
    assert order_probe(parse_word(grig, "ab1"), 8) == ExceedsBound(8)
    # x^2 + 1 is not torsion: a times the witness letter has infinite order,
    # while a b1 only has order 8
    assert order_probe(parse_word(ge, "ab1"), 64) == Finite(8)
    assert order_probe(parse_word(ge, "aB<1,1>"), 1 << 10) == ExceedsBound(1 << 10)
    with pytest.raises(ValueError):
        order_probe(gen_a(ge), 0)


def test_is_trivial_matches_level_action(ge, grig, fg):
    # the word problem against the level action, at p = 2, 3 and 5; a
    # word x with one nontrivial section commutes with its conjugate by a,
    # which gives trivial words whose normal form is not empty, and words
    # with root exponent 0 but a nonzero B-sum must be told apart by their
    # sections alone
    rng = random.Random(16)
    for spec, top in ((ge, 8), (grig, 8), (fg, 6), (make_spec(5, [1, 1]), 4)):
        words = [random_word(spec, rng, rng.randrange(0, 10)) for _ in range(60)]
        found = 0
        while found < 3:
            x = random_word(spec, rng, rng.randrange(2, 12))
            w = wreath(x)
            if w.root or sum(1 for sec in w.sections if sec.letters) != 1:
                continue
            found += 1
            c = commutator(x, conjugate(x, gen_a(spec)))
            g = random_word(spec, rng, 6)
            words += [c, conjugate(c, g), multiply(c, g)]
        outcomes = set()
        for x in words:
            by_levels = all(level_perm(x, n).is_identity for n in range(1, top + 1))
            assert is_trivial(x) == by_levels
            outcomes.add((by_levels, bool(x.letters)))
        assert (True, True) in outcomes and (False, True) in outcomes
        unbalanced = 0
        for _ in range(40):
            x = random_word(spec, rng, rng.randrange(2, 12))
            x = multiply(x, gen_a(spec, -root_exponent(x)))
            if len(x.letters) < 2 or abelianize(x).b_sum.is_zero:
                continue
            unbalanced += 1
            assert not is_trivial(x)
            assert not all(level_perm(x, n).is_identity for n in range(1, top + 1))
        assert unbalanced >= 10


def _raw_p2_word(spec, rng, pieces):
    """Unreduced letters at p = 2: a's, B-letters, and pieces that cancel
    (a a, x x, or B-letters x y (x + y) that sum to 0)."""
    raw = []
    for _ in range(pieces):
        x, y = rng.randrange(1, spec.pm), rng.randrange(1, spec.pm)
        raw += rng.choice(([-1], [x], [-1, -1], [x, x], [x, y, x ^ y]))
    return tuple(raw)


def test_run_form_matches_contraction(ge, grig, dih):
    # the p = 2 run-form decision against the reduced-section recursion,
    # which stays the odd-p path: single letters, reduced and unreduced
    # words, powers x^(2^j), commutators, and conjugates of the relators
    # (ad)^4 and (adacac)^4, alone and times a random word
    rng = random.Random(24)
    specs = (ge, grig, dih, make_spec(2, [1, 0, 0]), make_spec(2, [1, 1, 0]),
             make_spec(2, [1, 0, 0, 0]))
    for spec in specs:
        words = [(), (-1,)] + [(c,) for c in range(1, spec.pm)]
        for _ in range(30):
            x = random_word(spec, rng, rng.randrange(1, 24))
            y = random_word(spec, rng, rng.randrange(1, 8))
            words += [
                x.letters,
                power(x, 2 ** rng.randrange(1, 5)).letters,
                commutator(x, y).letters,
                _raw_p2_word(spec, rng, rng.randrange(1, 30)),
                x.letters + invert(x).letters,
            ]
        relators = []
        if spec.m >= 2:
            a = gen_a(spec)
            c, d = (b_letter(spec, v) for v in find_cd(spec))
            ad, ac = multiply(a, d), multiply(a, c)
            for r in (power(ad, 4), power(multiply(ad, multiply(ac, ac)), 4)):
                for _ in range(10):
                    g = random_word(spec, rng, rng.randrange(1, 12))
                    relators.append(conjugate(r, g).letters)
                    words.append(multiply(conjugate(r, g), g).letters)
        answers = set()
        for w in words + relators:
            want = _trivial_rec(spec, w)
            assert is_trivial(Element(spec, w)) == want, (spec, w)
            answers.add(want)
        assert answers == {True, False}
        assert all(_trivial_rec(spec, w) for w in relators)


def test_run_form_decides_long_words(ge):
    # a trivial word of over 10^6 letters: the run form splits it to a
    # depth of about log2 of its a-count, so no RecursionError
    rng = random.Random(25)
    a = gen_a(ge)
    c, d = (b_letter(ge, v) for v in find_cd(ge))
    r = power(multiply(multiply(a, d), power(multiply(a, c), 2)), 4)
    x = conjugate(power(r, 2**16), random_word(ge, rng, 9))
    assert len(x.letters) >= 10**6
    assert is_trivial(x)
    assert not is_trivial(multiply(x, gen_b(ge, 0)))


def test_p2_decision_makes_no_wreath_pass(ge, fg, monkeypatch):
    import selfsim.elements

    wreath_letters = selfsim.elements._wreath_letters
    passes = []

    def spy(spec, letters):
        passes.append(spec.p)
        return wreath_letters(spec, letters)

    monkeypatch.setattr(selfsim.elements, "_wreath_letters", spy)
    assert is_trivial(power(parse_word(ge, "ab0"), 4))
    assert not is_trivial(parse_word(ge, "ab0ab1"))
    assert passes == []
    assert not is_trivial(parse_word(fg, "ab0a^2"))
    assert passes and set(passes) == {3}


def test_wreath_letters_match_reference(ge, grig, fg, dih):
    # the flat letter loop against the nested pass it replaced, through
    # all sections, on reduced words and on raw letter tuples with
    # adjacent a-powers, adjacent B-letters and letters that cancel
    rng = random.Random(17)
    specs = (ge, grig, fg, dih, make_spec(5, [1, 1]), make_spec(3, [1, 0, 1]))
    for spec in specs:
        p = spec.p
        words = [random_word(spec, rng, rng.randrange(0, 40)).letters for _ in range(40)]
        for _ in range(40):
            raw = []
            for _ in range(rng.randrange(0, 40)):
                if raw and rng.random() < 0.3:
                    l = raw[-1]
                    raw.append(-(p + l) if l < 0 else spec.neg_code[l])
                elif rng.random() < 0.5:
                    raw.append(-rng.randrange(1, p))
                else:
                    raw.append(rng.randrange(1, spec.pm))
            words.append(tuple(raw))
        for letters in words:
            todo = [letters]
            while todo:
                w = todo.pop()
                got = _wreath_letters(spec, w)
                assert got == reference_wreath_letters(spec, w), (spec, w)
                todo.extend(sec for sec in got[1] if len(sec) >= 2)


def test_equal_elements(ge):
    x = parse_word(ge, "ab0ab0ab0")
    y = parse_word(ge, "b0ab0a ab0a  a")
    assert equal_elements(x, y)
    assert not equal_elements(x, invert(x))


def test_theta_frozen(ge):
    # (a b1)^2 already has the two-letter shape
    z = parse_word(ge, "(ab1)^2")
    trace, cls = theta_stabilize(z)
    assert trace == []
    assert cls.kind == "b_length_2"
    assert cls.x.coords == (0, 1)
    assert cls.iterations == 0
    # theta sends it to the conjugate shape with the other basis letter
    img = theta(z)
    assert img.letters == (-1, 1, -1, 1)


def test_theta_stable_forms(ge):
    wit = b_letter(ge, (1, 1))
    a = gen_a(ge)
    ba4 = power(multiply(wit, a), 4)
    trace, cls = theta_stabilize(ba4)
    assert (trace, cls.kind, cls.l) == ([], "ba_form", 2)
    assert theta(ba4).letters == ba4.letters
    axa = parse_word(ge, "a b0 a (B<1,1>a)^2 b0")
    trace, cls = theta_stabilize(axa)
    assert cls.kind == "axa_form"
    assert cls.x.coords == (1, 0)
    assert cls.l == 1
    # theta keeps the shape but cycles the outer letter; for x^2 + 1 the
    # cycling map is an involution, so two steps return the exact word
    img = theta(axa)
    _, cls2 = theta_stabilize(img)
    assert (cls2.kind, cls2.x.coords, cls2.l) == ("axa_form", (0, 1), 1)
    assert theta(img).letters == axa.letters


def test_theta_random_commutators_stabilize(ge):
    rng = random.Random(17)
    gens = generating_set(ge)
    for _ in range(25):
        z = identity(ge)
        for _ in range(rng.randrange(1, 4)):
            x = rng.choice(gens)
            y = rng.choice(gens)
            t = random_word(ge, rng, rng.randrange(0, 5))
            z = multiply(z, conjugate(commutator(x, y), t))
        trace, cls = theta_stabilize(z, max_iter=64)
        assert cls.kind != "unstabilized"
        assert not cls.budget_exceeded
        assert len(trace) == cls.iterations


def test_theta_domain_errors(ge, fg):
    with pytest.raises(WrongCharacteristic):
        theta(gen_b(fg, 0))
    with pytest.raises(NotInDerivedSubgroup):
        theta(gen_a(ge))
    with pytest.raises(NotInDerivedSubgroup):
        theta_stabilize(parse_word(ge, "b0"))


def test_find_cd_frozen(ge, grig):
    c, d = find_cd(ge)
    assert (c.coords, d.coords) == ((0, 1), (1, 0))
    c, d = find_cd(grig)
    assert (c.coords, d.coords) == ((1, 1), (1, 0))


def test_find_cd_matches_search():
    # the closed form d = e_0, c = rho^-1(e_0) against the least tuple of
    # ker(omega) minus rho(ker omega), on every p = 2 spec with m <= 8
    # (a_0 = 1, so 2^(m-1) specs of each degree, 254 in all)
    seen = 0
    for m in range(2, 9):
        for rest in product((0, 1), repeat=m - 1):
            spec = make_spec(2, (1,) + rest)
            c, d = find_cd(spec)
            assert (c.coords, d.coords) == reference_find_cd(spec), spec.coeffs
            seen += 1
    assert seen == 254


def test_phi_lift_shape(ge, grig):
    rng = random.Random(18)
    for spec in (ge, grig):
        d_code = spec.code_of(find_cd(spec)[1].coords)
        for _ in range(30):
            x = random_word(spec, rng, rng.randrange(0, 12))
            lifted = phi_lift(x)
            w = wreath(lifted)
            assert w.root == 0
            assert equal_elements(w.sections[1], x)
            assert all(l == -1 or l == d_code for l in w.sections[0].letters)


def test_phi_lift_homomorphic(ge):
    rng = random.Random(19)
    for _ in range(25):
        x = random_word(ge, rng, rng.randrange(0, 10))
        y = random_word(ge, rng, rng.randrange(0, 10))
        assert equal_elements(
            phi_lift(multiply(x, y)), multiply(phi_lift(x), phi_lift(y))
        )


def test_parse_word_roundtrip(ge, fg):
    rng = random.Random(20)
    for spec in (ge, fg):
        for _ in range(40):
            x = random_word(spec, rng, rng.randrange(0, 15))
            assert parse_word(spec, word_str(x)).letters == x.letters
    assert word_str(identity(ge)) == "1"
    assert word_str(parse_word(ge, "aB<1,1>")) == "aB<1,1>"
    assert word_str(parse_word(fg, "a^2b0")) == "a^2b0"


def test_parse_word_syntax(ge, fg):
    assert parse_word(ge, "[a,b1]").letters == (-1, 2, -1, 2)
    assert parse_word(ge, "b0^a").letters == (-1, 1, -1)
    assert parse_word(ge, "(a b1)^-2").letters == invert(
        parse_word(ge, "(ab1)^2"
    )).letters
    assert parse_word(ge, " 1 ").letters == ()
    assert parse_word(fg, "a^4").letters == (-1,)


def test_parse_word_errors(ge):
    for bad in ("x", "b", "b7", "B<1>", "a^", "(ab0", "[a,b0", "B<1,2", "ab0)"):
        with pytest.raises(WordSyntaxError):
            parse_word(ge, bad)
    try:
        parse_word(ge, "ab0 q")
    except WordSyntaxError as err:
        assert "position 4" in str(err)
    else:
        raise AssertionError("expected a syntax error")
