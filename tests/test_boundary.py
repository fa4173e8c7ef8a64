import random

import pytest

from brute_force import iterative_zeta, transducer_act_ray
from selfsim import (
    Element,
    Ray,
    act_on_vertex,
    act_ray,
    all_ones,
    b_letter,
    dot_export,
    gen_a,
    gen_b,
    generating_set,
    hq_properness_certificate,
    identity,
    invert,
    make_ray,
    make_spec,
    multiply,
    parse_word,
    ray_str,
    schreier_ball,
    z_action,
    zeta,
    zeta_inv,
)
from selfsim.boundary import certificate_sample, witness_pair
from selfsim.errors import EvenQ, NoDihedralWitness, NotInOrbit


def test_make_ray_canonical():
    assert make_ray("", "0101") == Ray((), (0, 1))
    assert make_ray("0", "10") == Ray((), (0, 1))
    assert make_ray("1", "1") == Ray((), (1,))
    assert make_ray("011", "1") == Ray((0,), (1,))
    assert make_ray("01", "10") == Ray((0, 1), (1, 0))
    assert ray_str(make_ray("01", "10")) == "01(10)"
    assert ray_str(all_ones(make_spec_cache())) == "(1)"
    with pytest.raises(ValueError):
        make_ray("0", "")


def make_spec_cache():
    from selfsim import make_spec

    return make_spec(2, [1, 0])


def test_act_ray_frozen(ge):
    ones = all_ones(ge)
    b = b_letter(ge, (1, 1))
    assert act_ray(b, ones) == ones
    assert ray_str(act_ray(gen_a(ge), ones)) == "0(1)"
    assert ray_str(act_ray(b, make_ray("0", "1"))) == "00(1)"
    # the second basis letter agrees with the witness on this ray
    assert ray_str(act_ray(gen_b(ge, 1), make_ray("0", "1"))) == "00(1)"
    # the first basis letter acts by a sign on the orbit line: it fixes
    # rays it exits in the zero-output state and negates the others
    b0 = gen_b(ge, 0)
    for n in range(-6, 7):
        assert act_ray(b0, zeta(ge, n)) in (zeta(ge, n), zeta(ge, -n))
    assert act_ray(b0, zeta(ge, 1)) == zeta(ge, 1)
    assert act_ray(b0, zeta(ge, 2)) == zeta(ge, -2)
    for x in (gen_a(ge), identity(ge)):
        with pytest.raises(ValueError):
            act_ray(x, make_ray("2", "1"))


def test_act_ray_composition(ge, grig, fg):
    rng = random.Random(21)
    for spec in (ge, grig, fg):
        gens = generating_set(spec)
        for _ in range(40):
            x = identity(spec)
            y = identity(spec)
            for _ in range(rng.randrange(0, 8)):
                x = multiply(x, rng.choice(gens))
            for _ in range(rng.randrange(0, 8)):
                y = multiply(y, rng.choice(gens))
            pre = [rng.randrange(spec.p) for _ in range(rng.randrange(0, 4))]
            per = [rng.randrange(spec.p) for _ in range(rng.randrange(1, 4))]
            r = make_ray(pre, per)
            img = act_ray(multiply(x, y), r)
            assert img == act_ray(x, act_ray(y, r))
            # images come out canonical
            assert make_ray(img.pre, img.per) == img
            # and the inverse undoes the action
            assert act_ray(invert(x), act_ray(x, r)) == r


def test_act_ray_matches_transducer(ge, grig, fg, dih):
    """The windowed action against the letter-by-letter transducer, on
    alternating words of 0-400 letters and rays with (p-1)-tails or mixed
    periods of length 1-5 after preperiods of length 0-12."""
    rng = random.Random(4)
    for spec in (ge, grig, fg, dih, make_spec(2, (1, 0, 0))):
        p = spec.p
        for case in range(120):
            length = rng.choice((0, 1, 2, 3, 5, 8, 13, 40, 120, 400))
            kind = rng.randrange(2)
            letters = []
            for i in range(length):
                if (i + kind) % 2:
                    letters.append(-rng.randrange(1, p))
                else:
                    letters.append(rng.randrange(1, spec.pm))
            x = Element(spec, tuple(letters))
            pre = [rng.randrange(p) for _ in range(rng.randrange(0, 13))]
            if case % 3 == 0:
                per = [p - 1]
            else:
                per = [rng.randrange(p) for _ in range(rng.randrange(1, 6))]
            r = make_ray(pre, per)
            assert act_ray(x, r) == transducer_act_ray(x, r), (x, r)


def test_zeta_frozen(ge):
    table = {0: "(1)", 1: "0(1)", -1: "00(1)", 2: "10(1)", -2: "100(1)", 3: "000(1)"}
    for n, s in table.items():
        assert ray_str(zeta(ge, n)) == s
    for n in range(-12, 13):
        assert zeta_inv(ge, zeta(ge, n)) == n


def test_z_action_frozen(ge):
    a = gen_a(ge)
    b = b_letter(ge, (1, 1))
    ab = multiply(a, b)
    for n in range(-8, 9):
        assert z_action(ab, n) == n + 1
        assert z_action(b, n) == -n
        assert z_action(a, n) == 1 - n
    assert z_action(parse_word(ge, "(aB<1,1>)^3"), 0) == 3


def test_zeta_requires_witness(grig, fg):
    for spec in (grig, fg):
        with pytest.raises(NoDihedralWitness):
            zeta(spec, 1)
        with pytest.raises(NoDihedralWitness):
            zeta_inv(spec, all_ones(spec))


def test_not_in_orbit(ge):
    for pre, per in (("", "0"), ("", "01"), ("2", "1")):
        with pytest.raises(NotInOrbit):
            zeta_inv(ge, make_ray(pre, per))


def test_zeta_closed_form_vs_iterative(ge, dih):
    for spec, bound in ((ge, 10**4), (dih, 1000), (make_spec(2, (1, 0, 0)), 1000)):
        for n, r in iterative_zeta(spec, bound).items():
            assert zeta(spec, n) == r
            assert zeta_inv(spec, r) == n


def test_line_coordinates_past_old_search_bound(ge):
    assert z_action(parse_word(ge, "(aB<1,1>)^3"), 9999) == 10002
    assert z_action(parse_word(ge, "aB<1,1>"), 10**9) == 10**9 + 1
    assert zeta_inv(ge, zeta(ge, -10**12)) == -10**12


def test_ball_is_path(ge):
    for radius in (1, 2, 5, 8):
        ball = schreier_ball(ge, all_ones(ge), radius)
        assert len(ball.vertices) == radius + 1
        assert ball.distances == list(range(radius + 1))
        loops = [e for e in ball.edges if e[0] == e[1]]
        assert loops == [(0, 0, "b")]
        path = sorted(e for e in ball.edges if e[0] != e[1])
        assert [(i, j) for i, j, _ in path] == [(i, i + 1) for i in range(radius)]
        assert [label for _, _, label in path] == [
            "a" if i % 2 == 0 else "b" for i in range(radius)
        ]
        # BFS order interleaves the two ends of the parametrized line
        for k in range(1, radius // 2 + 1):
            assert ball.vertices[2 * k - 1] == zeta(ge, k)
            assert ball.vertices[2 * k] == zeta(ge, -k)


def test_ball_distances_match_parametrization(ge):
    ball = schreier_ball(ge, all_ones(ge), 16)
    index = {v: i for i, v in enumerate(ball.vertices)}
    for n in range(1, 9):
        assert ball.distances[index[zeta(ge, n)]] == 2 * n - 1
    for n in range(-8, 1):
        assert ball.distances[index[zeta(ge, n)]] == -2 * n
    with pytest.raises(ValueError):
        schreier_ball(ge, all_ones(ge), -1)


def test_dot_export_frozen(ge):
    ball = schreier_ball(ge, all_ones(ge), 2)
    assert dot_export(ball) == (
        "graph schreier {\n"
        '  n0 [label="(1)"];\n'
        '  n1 [label="0(1)"];\n'
        '  n2 [label="00(1)"];\n'
        "  n0 -- n1 [label=\"a\"];\n"
        "  n0 -- n0 [label=\"b\"];\n"
        "  n1 -- n2 [label=\"b\"];\n"
        "}\n"
    )


def test_ball_without_witness(grig):
    # no dihedral witness: BFS runs over a and every nonzero B-letter
    ball = schreier_ball(grig, all_ones(grig), 1)
    assert len(ball.vertices) == 2
    labels = {label for i, j, label in ball.edges if i == j == 0}
    assert labels == {"b0", "b1", "B<1,1>"}


def test_certificate_sample():
    s = certificate_sample(3)
    assert s[0] == 0
    assert len(s) == 19
    assert set(s) == set(range(-9, 10))


def test_properness_certificate(ge, grig):
    for q in (3, 5):
        rep = hq_properness_certificate(ge, q)
        assert rep.status == "PASS"
        assert rep.passed
        assert all(c.passed for c in rep.checks)
    rep1 = hq_properness_certificate(ge, 1)
    assert rep1.status == "NOT_PROPER_H1"
    assert not rep1.passed
    with pytest.raises(EvenQ):
        hq_properness_certificate(ge, 4)
    # -3 is odd: refused as out of range, not as even
    with pytest.raises(ValueError):
        hq_properness_certificate(ge, -3)
    with pytest.raises(NoDihedralWitness):
        hq_properness_certificate(grig, 3)


def test_b_letters_act_as_one_or_witness():
    # the lemma in witness_pair: on every vertex each nonzero B-letter acts
    # as the identity or exactly as the witness b
    verts = [""] + [format(i, f"0{n}b") for n in range(1, 11) for i in range(2**n)]
    for coeffs in ((1, 0), (1, 0, 0), (1, 0, 0, 0, 0), (1,)):
        spec = make_spec(2, coeffs)
        b = witness_pair(spec)[1]
        b_imgs = [act_on_vertex(b, u) for u in verts]
        for code in range(1, spec.pm):
            x = Element(spec, (code,))
            for u, bu in zip(verts, b_imgs):
                assert act_on_vertex(x, u) in (u, bu), (spec, code, u)


def test_b_letter_sign_rule_on_the_line():
    # x sends n to -n exactly when omega(rho^k x) = 1 for k = v_2(n), the
    # number of leading 1s of zeta(n); checked against z_action
    for coeffs in ((1, 0), (1, 0, 0)):
        spec = make_spec(2, coeffs)
        for n in range(-2000, 2001):
            k = (n & -n).bit_length() - 1 if n else 0
            r = zeta(spec, n)
            if n:
                assert (r.pre + (0,)).index(0) == k, n
            for code in range(1, spec.pm):
                c = code
                for _ in range(k):
                    c = spec.rho_code[c]
                want = -n if spec.omega_code[c] else n
                assert z_action(Element(spec, (code,)), n) == want, (coeffs, code, n)


def test_certificate_samples_nothing(ge, monkeypatch):
    import selfsim.boundary as boundary

    calls = {"z_action": 0}
    real = boundary.z_action

    def counted(x, n):
        calls["z_action"] += 1
        return real(x, n)

    def no_sample(q):
        raise AssertionError("certificate_sample was called")

    monkeypatch.setattr(boundary, "z_action", counted)
    monkeypatch.setattr(boundary, "certificate_sample", no_sample)
    rep = hq_properness_certificate(ge, 101)
    assert rep.status == "PASS"
    assert calls["z_action"] <= 2


def test_certificate_fails_without_a_witness(ge, monkeypatch):
    # b0 is no witness on ge (its section at 1 is b1), so the certificate
    # must refute witness_negates and end in FAIL
    import selfsim.boundary as boundary

    monkeypatch.setattr(boundary, "witness_pair", lambda spec: (gen_a(spec), gen_b(spec, 0)))
    rep = hq_properness_certificate(ge, 3)
    assert rep.status == "FAIL" and not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert {"witness_negates", "orbit_of_0_in_qZ"} <= failed
    # a generator that is not a B-letter fails its sign check
    monkeypatch.undo()
    monkeypatch.setattr(boundary, "basis_gens", lambda spec: [gen_b(spec, 0), gen_a(spec)])
    rep = hq_properness_certificate(ge, 3)
    assert rep.status == "FAIL"
    assert [c.name for c in rep.checks if not c.passed] == ["basis_a_sign", "orbit_of_0_in_qZ"]
