"""Full-scope checks of the package's headline guarantees.

Each test covers one guarantee end to end, at the widest scope the
toolkit promises to handle, and prints a single summary line with its
runtime against a pinned wall-clock budget.  Run with ``pytest -s`` to
see the lines as they complete; without ``-s`` they appear in captured
output on failure.
"""

import random
import time

from brute_force import closure_order, reference_stab_in_derived_check
from selfsim import (
    SubgroupDesc,
    all_ones,
    b_length,
    b_letter,
    basis_gens,
    branch_pair_check,
    build_conjugator,
    classify,
    commutator,
    conjugate,
    conjugation_disagreement_level,
    density_check,
    equal_elements,
    find_cd,
    gen_a,
    gen_b,
    generating_set,
    group_chain,
    hq,
    hq_properness_certificate,
    identity,
    invert,
    is_trivial,
    level_perm,
    multiply,
    phi_lift,
    power,
    reduction_trace,
    schreier_ball,
    stab_in_derived_check,
    theta_stabilize,
    wreath,
    z_action,
    zeta,
    zeta_inv,
)
from selfsim.boundary import certificate_sample


def _timed(name, budget, body):
    t0 = time.perf_counter()
    ok = False
    try:
        body()
        ok = True
    finally:
        dt = time.perf_counter() - t0
        verdict = "PASS" if ok and dt <= budget else "FAIL"
        print(f"[{name}] {verdict} time={dt:.2f}s budget={budget:.0f}s")
    assert dt <= budget, f"{name} took {dt:.2f}s, budget {budget:.0f}s"


def _random_word(spec, rng, length):
    gens = generating_set(spec)
    x = identity(spec)
    for _ in range(length):
        g = rng.choice(gens)
        if rng.random() < 0.5:
            g = invert(g)
        x = multiply(x, g)
    return x


def _line_word(spec, rng, length):
    a = gen_a(spec)
    b = b_letter(spec, (1, 1))
    x = identity(spec)
    for _ in range(length):
        x = multiply(x, rng.choice((a, b)))
    return x


def test_classification_table(ge, grig, fg):
    def body():
        rep = classify(grig)
        assert (rep.torsion, rep.witness, rep.maximal_count) == (True, None, 7)
        rep = classify(ge)
        assert (rep.torsion, rep.witness, rep.maximal_count) == (False, (1, 1), 7)
        rep = classify(fg)
        assert (rep.torsion, rep.witness, rep.maximal_count) == (False, None, 4)
        # the involutive directed letter exists exactly when 1 is a root
        # of the defining polynomial mod 2
        for spec in (ge, grig):
            root_at_one = (1 + sum(spec.coeffs)) % 2 == 0
            assert (classify(spec).witness is not None) == root_at_one

    _timed("classification_table", 1.0, body)


def test_word_problem_matches_level_oracle(ge, grig):
    def body():
        rng = random.Random(4021)
        for spec in (ge, grig):
            for _ in range(1000):
                x = _random_word(spec, rng, rng.randrange(0, 31))
                by_levels = all(
                    level_perm(x, n).is_identity for n in range(1, 13)
                )
                assert is_trivial(x) == by_levels
            a = gen_a(spec)
            letters = [gen_b(spec, i) for i in range(spec.m)]
            assert is_trivial(power(a, 2))
            for i, bi in enumerate(letters):
                assert is_trivial(power(bi, 2))
                for bj in letters[i + 1 :]:
                    assert is_trivial(commutator(bi, bj))
        assert is_trivial(power(multiply(gen_a(ge), gen_b(ge, 0)), 4))

    _timed("word_problem_oracle", 60.0, body)


def test_level_orders_match_brute_force(ge, grig, fg):
    def body():
        for spec, top in ((ge, 3), (grig, 3), (fg, 2)):
            for n in range(1, top + 1):
                perms = [level_perm(g, n) for g in generating_set(spec)]
                assert group_chain(spec, n).order == closure_order(perms)

    _timed("level_order_oracle", 30.0, body)


def test_line_subgroups_are_level_dense(ge):
    def body():
        for q in (3, 5, 7):
            desc = SubgroupDesc(f"H{q}", list(hq(ge, q).generators))
            for n in range(1, 11):
                assert density_check(ge, desc, n), (q, n)

    _timed("line_subgroup_density", 300.0, body)


def test_line_subgroups_proper_certificates(ge):
    def body():
        a = gen_a(ge)
        b = b_letter(ge, (1, 1))
        ab = multiply(a, b)
        for q in (3, 5, 7, 9, 11):
            rep = hq_properness_certificate(ge, q)
            assert rep.status == "PASS" and rep.passed
            assert all(c.passed for c in rep.checks)
            abq = power(ab, q)
            for m in certificate_sample(q):
                assert z_action(abq, m) == m + q
                assert z_action(b, m) == -m
        assert z_action(ab, 0) == 1

    _timed("line_subgroup_properness", 10.0, body)


def test_conjugator_carries_line_pair(ge):
    def body():
        a = gen_a(ge)
        b = b_letter(ge, (1, 1))
        for q in (3, 5):
            r = build_conjugator(ge, q)
            target = multiply(power(multiply(a, b), q), b)
            assert conjugation_disagreement_level(r, target, a, depth=12) is None
            for x in basis_gens(ge):
                assert conjugation_disagreement_level(r, x, x, depth=12) is None

    _timed("recursive_conjugator", 60.0, body)


def test_stabilizer_lift_shape(ge):
    def body():
        rng = random.Random(4077)
        d_code = ge.code_of(find_cd(ge)[1].coords)
        for _ in range(100):
            x = _random_word(ge, rng, rng.randrange(0, 31))
            y = _random_word(ge, rng, rng.randrange(0, 31))
            lifted = phi_lift(x)
            assert equal_elements(
                phi_lift(multiply(x, y)), multiply(lifted, phi_lift(y))
            )
            w = wreath(lifted)
            assert w.root == 0
            assert equal_elements(w.sections[1], x)
            assert all(l == -1 or l == d_code for l in w.sections[0].letters)

    _timed("stabilizer_lift", 60.0, body)


def test_stabilizer_images_in_derived(fg):
    # at p = 2 the only entry is proved; test_stab_in_derived_matches_reference
    # compares those cases with the level-n oracle field by field
    def body():
        rep = stab_in_derived_check(fg, 5)
        assert rep == reference_stab_in_derived_check(fg, 5)
        assert rep.passed and len(rep.entries) == 2

    _timed("stabilizer_in_derived", 300.0, body)


def test_branch_pair_embeddings(ge, grig, fg):
    def body():
        for spec, top in ((ge, 8), (grig, 8), (fg, 4)):
            for n in range(1, top + 1):
                assert branch_pair_check(spec, n), (spec.coeffs, n)

    _timed("branch_pair_embeddings", 300.0, body)


def test_boundary_ball_and_parametrization(ge):
    def body():
        ball = schreier_ball(ge, all_ones(ge), 50)
        assert len(ball.vertices) == 51
        loops = [e for e in ball.edges if e[0] == e[1]]
        assert loops == [(0, 0, "b")]
        path = sorted(e for e in ball.edges if e[0] != e[1])
        assert [(i, j) for i, j, _ in path] == [(i, i + 1) for i in range(50)]
        assert [lab for _, _, lab in path] == [
            "a" if i % 2 == 0 else "b" for i in range(50)
        ]
        index = {v: i for i, v in enumerate(ball.vertices)}
        for n in range(1, 26):
            assert ball.distances[index[zeta(ge, n)]] == 2 * n - 1
        for n in range(-25, 1):
            assert ball.distances[index[zeta(ge, n)]] == -2 * n
        for n in range(-50, 51):
            assert zeta_inv(ge, zeta(ge, n)) == n

    _timed("boundary_ball", 10.0, body)


def test_theta_reduction_taxonomy(ge):
    def body():
        rng = random.Random(4111)
        gens = generating_set(ge)
        stable_kinds = {"trivial", "b_length_2", "axa_form", "ba_form"}
        for _ in range(200):
            z = identity(ge)
            for _ in range(rng.randrange(1, 7)):
                x = rng.choice(gens)
                y = rng.choice(gens)
                t = _random_word(ge, rng, rng.randrange(0, 6))
                z = multiply(z, conjugate(commutator(x, y), t))
            trace, cls = theta_stabilize(z, max_iter=64)
            assert cls.kind in stable_kinds
            assert not cls.budget_exceeded
            lens = [b_length(z)] + [b_length(w) for w in trace]
            assert all(l2 <= l1 for l1, l2 in zip(lens, lens[1:]))

    _timed("theta_taxonomy", 120.0, body)


def test_projection_shadow_descends(ge):
    def body():
        rng = random.Random(4123)
        a = gen_a(ge)
        b = b_letter(ge, (1, 1))
        cases = [multiply(a, b)]
        while len(cases) < 20:
            g = _line_word(ge, rng, rng.randrange(1, 16))
            if z_action(g, 0) % 3 != 0:
                cases.append(g)
        for g in cases:
            tr = reduction_trace(ge, 3, g)
            assert tr.success
            assert tr.final.lambda_hat <= 3
            for s1, s2 in zip(tr.steps, tr.steps[1:]):
                assert s2.lambda_hat <= (s1.lambda_hat + 3 + 1) // 2

    _timed("projection_shadow", 120.0, body)
