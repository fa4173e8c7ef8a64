import random

import pytest

from brute_force import basis_leaves, kernel_generators
from selfsim import (
    SubgroupDesc,
    b_letter,
    chain_from,
    classify,
    commutator,
    count_finite_index_maximals,
    density_check,
    equal_elements,
    gen_a,
    gen_b,
    generating_set,
    group_chain,
    hq,
    hq_stab_gens,
    identity,
    identity_suite,
    invert,
    lambda_form,
    line_screen,
    make_spec,
    multiply,
    parse_word,
    power,
    reduction_trace,
    root_exponent,
    section_at,
    subdirect_lift,
    z_action,
)
from selfsim.analysis import (
    IDENTITY_SUITE_VERSION,
    suite_records,
)
from selfsim.errors import (
    EvenQ,
    NoDihedralWitness,
    NotLevelOneStabilized,
    ScreenInconclusive,
)

ITEM_NAMES = [
    "rooted_order",
    "directed_order",
    "directed_commute",
    "directed_sections",
    "commutator_chain",
    "commutator_last",
    "line_pair_square",
    "stab_gen_sections",
    "theta_fixes_line_squares",
    "cd_sections",
    "lift_section",
    "lift_zero_letters",
    "subdirect_lift_roundtrip",
    "line_translation",
]


def line_word(spec, rng, length):
    a = gen_a(spec)
    b = b_letter(spec, (1, 1))
    x = identity(spec)
    for _ in range(length):
        x = multiply(x, rng.choice((a, b)))
    return x


def test_hq_frozen(ge, grig, fg):
    desc = hq(ge, 3)
    assert desc.q == 3
    assert desc.witness == (1, 1)
    assert desc.generators[0].letters == (-1, 3, -1, 3, -1, 3)
    assert desc.generators[1].letters == (1,)
    assert desc.generators[2].letters == (2,)
    with pytest.raises(EvenQ):
        hq(ge, 2)
    with pytest.raises(ValueError):
        hq(ge, -1)
    with pytest.raises(NoDihedralWitness):
        hq(grig, 3)
    # p != 2 has no dihedral pair at all
    with pytest.raises(NoDihedralWitness):
        hq(fg, 3)


def test_h1_is_everything(ge):
    desc = hq(ge, 1)
    sub = SubgroupDesc("H1", list(desc.generators))
    for n in range(1, 5):
        assert density_check(ge, sub, n)


def test_hq_dense_at_levels(ge):
    # proper subgroups whose finite quotient images are still full
    for q in (3, 5):
        sub = SubgroupDesc(f"H{q}", list(hq(ge, q).generators))
        for n in range(1, 6):
            assert density_check(ge, sub, n)


def test_hq_stab_gens(ge):
    for q in (3, 5):
        gens = hq_stab_gens(ge, q)
        assert len(gens) == 2 * ge.m
        for s in gens:
            assert root_exponent(s) == 0
            # members must never be screened out
            assert line_screen(ge, q, s)
    with pytest.raises(EvenQ):
        hq_stab_gens(ge, 2)
    with pytest.raises(ValueError):
        hq_stab_gens(ge, -1)


def test_line_screen_frozen(ge):
    a = gen_a(ge)
    b = b_letter(ge, (1, 1))
    ab = multiply(a, b)
    assert not line_screen(ge, 3, a)
    assert not line_screen(ge, 3, ab)
    assert not line_screen(ge, 3, power(ab, 5))
    assert line_screen(ge, 3, power(ab, 3))
    assert line_screen(ge, 3, b)
    assert line_screen(ge, 3, identity(ge))


def test_line_screen_sound_on_members(ge):
    rng = random.Random(51)
    for q in (3, 5):
        gens = list(hq(ge, q).generators)
        for _ in range(20):
            x = identity(ge)
            for _ in range(rng.randrange(0, 6)):
                g = rng.choice(gens)
                if rng.random() < 0.5:
                    g = invert(g)
                x = multiply(x, g)
            assert line_screen(ge, q, x)


def test_subdirect_lift(ge):
    rng = random.Random(52)
    a = gen_a(ge)
    b = b_letter(ge, (1, 1))
    ab = multiply(a, b)
    cases = [identity(ge), a, ab, parse_word(ge, "ab0"), parse_word(ge, "b1ab0a")]
    for _ in range(10):
        cases.append(line_word(ge, rng, rng.randrange(0, 9)))
    for q in (3, 5):
        for g in cases:
            lift = subdirect_lift(ge, q, g)
            assert root_exponent(lift.s) == 0
            assert equal_elements(section_at(lift.s, (1,)), lift.h1)
            assert equal_elements(lift.h1, power(ab, q * lift.n))
            assert equal_elements(
                section_at(lift.s, (0,)), multiply(g, lift.h0)
            )
            assert line_screen(ge, q, lift.h0)
            assert line_screen(ge, q, lift.h1)
    with pytest.raises(EvenQ):
        subdirect_lift(ge, 2, a)
    with pytest.raises(ValueError):
        subdirect_lift(ge, -1, a)


def test_lambda_form_frozen(ge):
    x = parse_word(ge, "(B<1,1>a)^2 b0 (aB<1,1>)^4")
    form = lambda_form(x)
    assert form.lambda_hat == 1
    assert form.core.letters == (1,)
    joined = multiply(multiply(form.prefix, form.core), form.suffix)
    assert joined.letters == x.letters
    assert lambda_form(parse_word(ge, "(B<1,1>a)^4")).lambda_hat == 0
    assert lambda_form(parse_word(ge, "b0 a b1 a")).lambda_hat == 2
    with pytest.raises(NotLevelOneStabilized):
        lambda_form(gen_a(ge))
    with pytest.raises(NotLevelOneStabilized):
        lambda_form(parse_word(ge, "ab0"))


def test_lambda_form_reassembles(ge):
    rng = random.Random(53)
    n = 0
    while n < 25:
        x = line_word(ge, rng, rng.randrange(0, 10))
        y = multiply(multiply(x, parse_word(ge, "b0ab1a")), invert(x))
        if root_exponent(y) != 0:
            continue
        n += 1
        form = lambda_form(y)
        joined = multiply(multiply(form.prefix, form.core), form.suffix)
        assert joined.letters == y.letters
        assert root_exponent(form.prefix) == 0
        assert root_exponent(form.suffix) == 0


def test_reduction_trace_member_rejected(ge):
    with pytest.raises(ScreenInconclusive):
        reduction_trace(ge, 3, power(multiply(gen_a(ge), b_letter(ge, (1, 1))), 3))
    with pytest.raises(EvenQ):
        reduction_trace(ge, 2, gen_a(ge))
    with pytest.raises(ValueError):
        reduction_trace(ge, 1, gen_a(ge))


def test_reduction_trace_descends(ge):
    rng = random.Random(54)
    a = gen_a(ge)
    b = b_letter(ge, (1, 1))
    cases = [multiply(a, b)]
    while len(cases) < 8:
        g = line_word(ge, rng, rng.randrange(1, 14))
        if not line_screen(ge, 3, g):
            cases.append(g)
    for g in cases:
        trace = reduction_trace(ge, 3, g)
        assert trace.success
        assert trace.final.lambda_hat <= 3
        for s1, s2 in zip(trace.steps, trace.steps[1:]):
            assert s2.lambda_hat <= (s1.lambda_hat + 3 + 1) // 2
            assert s2.depth == s1.depth + 1
            assert s1.certified_out and s2.certified_out


def test_classify_frozen(ge, grig, fg, dih):
    rep = classify(grig)
    assert (rep.torsion, rep.witness, rep.maximal_count) == (True, None, 7)
    assert not rep.divisible and rep.faithful and not rep.degenerate
    rep = classify(ge)
    assert (rep.torsion, rep.witness, rep.maximal_count) == (False, (1, 1), 7)
    assert rep.divisible
    rep = classify(fg)
    assert (rep.torsion, rep.witness, rep.maximal_count) == (False, None, 4)
    rep = classify(dih)
    assert rep.degenerate
    assert (rep.torsion, rep.maximal_count) == (False, None)
    assert rep.witness == (1,)


def test_witness_iff_divisible(ge):
    rng = random.Random(55)
    from selfsim import make_spec
    from selfsim.errors import SelfsimError

    tried = 0
    while tried < 25:
        m = rng.randrange(1, 5)
        coeffs = [1] + [rng.randrange(2) for _ in range(m - 1)]
        try:
            spec = make_spec(2, coeffs)
        except SelfsimError:
            continue
        tried += 1
        rep = classify(spec)
        assert (rep.witness is not None) == rep.divisible


def test_maximal_descriptors(ge, fg):
    for spec, expected in ((ge, 7), (fg, 4)):
        mc = count_finite_index_maximals(spec)
        assert mc.count == expected
        assert len(mc.descriptors) == expected
        functionals = {d.functional for d in mc.descriptors}
        assert len(functionals) == expected
        assert all(next(v for v in f if v) == 1 for f in functionals)
        for d in mc.descriptors:
            assert d.index == spec.p
            gens = kernel_generators(spec, d.functional)
            assert len(gens) == spec.m + 1
            for g in gens:
                from selfsim import abelianize

                img = abelianize(g)
                vec = (img.a_exp,) + img.b_sum.reduced(spec.p).coords
                dot = sum(f * v for f, v in zip(d.functional, vec)) % spec.p
                assert dot == 0


def test_maximals_are_distinct_hyperplanes(ge, grig, fg):
    # the oracle for the count: each descriptor's subgroup (the kernel
    # generators of its functional with the generator commutators, closed
    # as a normal subgroup) built at level m + 1, where G/G' is seen whole;
    # the images must have index p and be pairwise distinct, one per
    # hyperplane
    for spec in (fg, make_spec(5, (1, 1)), make_spec(3, (1, 1)), ge, grig):
        p, n = spec.p, spec.m + 1
        gens = generating_set(spec)
        comms = [commutator(x, y) for i, x in enumerate(gens) for y in gens[i + 1 :]]
        whole = group_chain(spec, n).order
        images = []
        for d in count_finite_index_maximals(spec).descriptors:
            kernel = kernel_generators(spec, d.functional) + comms
            sub = chain_from(SubgroupDesc("M", kernel, True), n)
            assert sub.order * p == whole, (spec, d.functional)
            images.append(sub)
        distinct = []
        for sub in images:
            rows = basis_leaves(sub)
            if not any(all(other.member(r) for r in rows) for other in distinct):
                distinct.append(sub)
        assert len(distinct) == len(images) == (p ** (spec.m + 1) - 1) // (p - 1)


def test_maximal_count_visits_normalized_functionals_only(monkeypatch):
    # a normalized functional starts with lambda_a = 0 or 1, so at most
    # 2 p^m are read, whatever p is, and in the order of all of them
    from selfsim.core import GroupSpec

    coords_of = GroupSpec.coords_of
    reads = []

    def spy(self, code):
        reads.append(code)
        return coords_of(self, code)

    for p, coeffs in ((2, (1, 0)), (3, (1,)), (5, (1, 1)), (7, (1,))):
        spec = make_spec(p, coeffs)
        every = [(la,) + coords_of(spec, c) for la in range(p) for c in range(spec.pm)]
        want = [f for f in every if any(f) and next(v for v in f if v) == 1]
        monkeypatch.setattr(GroupSpec, "coords_of", spy)
        reads.clear()
        count = count_finite_index_maximals(spec)
        monkeypatch.undo()
        assert len(reads) <= 2 * p**spec.m, (p, coeffs)
        assert [d.functional for d in count.descriptors] == want, (p, coeffs)


def test_directed_sections_read_one_wreath_per_letter(monkeypatch):
    # the item reads the p sections of each basis letter off one wreath
    # pass; at odd p no other item of the suite makes one, so the suite
    # makes m passes whatever p is
    import selfsim.elements

    wreath_letters = selfsim.elements._wreath_letters
    passes = []

    def spy(spec, letters):
        passes.append(letters)
        return wreath_letters(spec, letters)

    monkeypatch.setattr(selfsim.elements, "_wreath_letters", spy)
    for coeffs in ((1,), (1, 1)):
        for p in (3, 5, 7, 11):
            passes.clear()
            assert identity_suite(make_spec(p, coeffs)).passed
            assert len(passes) == len(coeffs), (p, coeffs)


def test_faithful_action(ge, grig, fg, dih):
    for spec in (ge, grig, fg, dih):
        assert classify(spec).faithful


def test_identity_suite(ge, grig, fg, dih):
    for spec in (ge, grig, fg, dih):
        report = identity_suite(spec)
        assert report.version == IDENTITY_SUITE_VERSION
        assert report.passed
        assert [it.item for it in report.items] == ITEM_NAMES
        for it in report.items:
            assert it.status in ("pass", "skip")
    ge_report = identity_suite(ge)
    assert all(it.status == "pass" for it in ge_report.items)
    skipped = {it.item for it in identity_suite(grig).items if it.status == "skip"}
    assert "line_pair_square" in skipped
    assert "rooted_order" not in skipped


def test_suite_records_format(ge):
    import re

    lines = suite_records("identity", identity_suite(ge))
    assert len(lines) == len(ITEM_NAMES)
    pat = re.compile(r"^suite=identity item=\w+ status=(pass|skip|fail) witness=\S+$")
    for line in lines:
        assert pat.match(line)
