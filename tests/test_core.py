import itertools
import random

import pytest

from brute_force import reference_code_tables
from selfsim import (
    BVec,
    dihedral_witness,
    divisible_by_x_plus_1,
    is_torsion,
    make_spec,
    parse_spec_file,
)
from selfsim.core import GroupSpec
from selfsim.errors import (
    DegenerateCase,
    EmptyPolynomial,
    LevelTooLarge,
    NonInvertiblePolynomial,
    NonPrimeP,
    SpecFileError,
    WrongCharacteristic,
)


def test_make_spec_validation():
    with pytest.raises(NonPrimeP):
        make_spec(4, [1])
    with pytest.raises(NonPrimeP):
        make_spec(1, [1])
    with pytest.raises(EmptyPolynomial):
        make_spec(2, [])
    with pytest.raises(NonInvertiblePolynomial):
        make_spec(2, [0, 1])
    with pytest.raises(LevelTooLarge):
        make_spec(2, [1] * 21)


def test_spec_identity_and_reduction():
    s1 = make_spec(2, [1, 0])
    s2 = make_spec(2, [3, -2])  # same polynomial mod 2
    assert s1 == s2
    assert hash(s1) == hash(s2)
    assert s1 != make_spec(2, [1, 1])
    assert s1.m == 2 and s1.pm == 4


def test_companion_tables(ge, grig, fg):
    # code = c0 + p*c1 + ...
    assert list(ge.rho_code) == [0, 2, 1, 3]
    assert list(grig.rho_code) == [0, 2, 3, 1]
    assert list(fg.rho_code) == [0, 1, 2]
    assert list(ge.omega_code) == [0, 0, 1, 1]
    assert list(grig.omega_code) == [0, 0, 1, 1]
    assert list(fg.omega_code) == [0, 1, 2]


def test_rho_is_linear_bijection():
    rng = random.Random(11)
    for _ in range(25):
        p = rng.choice([2, 3, 5])
        m = rng.randrange(1, 4)
        coeffs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(m - 1)]
        spec = make_spec(p, coeffs)
        assert sorted(spec.rho_code) == list(range(spec.pm))
        for _ in range(10):
            u = rng.randrange(spec.pm)
            v = rng.randrange(spec.pm)
            s = spec.code_add(u, v)
            assert spec.rho_code[s] == spec.code_add(spec.rho_code[u], spec.rho_code[v])
            assert spec.omega_code[s] == (spec.omega_code[u] + spec.omega_code[v]) % p


def test_degenerate_flag(ge, grig, fg, dih):
    assert dih.is_degenerate
    assert not ge.is_degenerate
    assert not grig.is_degenerate
    assert not fg.is_degenerate


def test_torsion(ge, grig, fg, dih):
    assert is_torsion(grig) is True
    assert is_torsion(ge) is False
    assert is_torsion(fg) is False
    with pytest.raises(DegenerateCase):
        is_torsion(dih)


def test_dihedral_witness(ge, grig, fg, dih):
    assert dihedral_witness(ge) == BVec((1, 1))
    assert dihedral_witness(grig) is None
    assert dihedral_witness(dih) == BVec((1,))
    with pytest.raises(WrongCharacteristic):
        dihedral_witness(fg)


def test_witness_iff_divisible_p2():
    # over F_2 a fixed vector with last coordinate 1 exists iff f(1) = 0
    rng = random.Random(23)
    for _ in range(40):
        m = rng.randrange(1, 6)
        coeffs = [1] + [rng.randrange(2) for _ in range(m - 1)]
        spec = make_spec(2, coeffs)
        assert (dihedral_witness(spec) is not None) == divisible_by_x_plus_1(spec)


def test_divisible(ge, grig, fg, dih):
    assert divisible_by_x_plus_1(ge)
    assert not divisible_by_x_plus_1(grig)
    assert divisible_by_x_plus_1(fg)  # f(1) = 1 + 2 = 0 mod 3
    assert divisible_by_x_plus_1(dih)


def test_rho_image_of_kernel_is_unit_span(ge, grig, fg):
    # {rho(v) : omega(v) = 0}, read off the tables, is the span of
    # e_1, ..., e_{m-1}: exactly the codes whose lowest digit is 0
    for spec in (ge, grig, fg, make_spec(3, (1, 2, 1)), make_spec(5, (2, 0, 3))):
        image = {spec.rho_code[c] for c in range(spec.pm) if spec.omega_code[c] == 0}
        assert image == set(range(0, spec.pm, spec.p))


def _small_specs():
    """Every valid spec with p = 2 (m <= 8), p = 3 (m <= 4), p = 5, 7
    (m <= 3)."""
    for p, max_m in ((2, 8), (3, 4), (5, 3), (7, 3)):
        for m in range(1, max_m + 1):
            for coeffs in itertools.product(range(p), repeat=m):
                if coeffs[0]:
                    yield make_spec(p, coeffs)


def test_code_tables_match_companion_matrix():
    # the tables built straight from f equal the matrix construction, and
    # the three lemmas in the GroupSpec docstring hold on every code
    count = 0
    for spec in _small_specs():
        count += 1
        m, pm = spec.m, spec.pm
        tables = (spec.rho_code, spec.rho_inv_code, spec.omega_code, spec.neg_code)
        assert tables == reference_code_tables(spec), spec
        rho = spec.rho_code
        assert sorted(rho) == list(range(pm)), spec
        for code in range(pm):
            # f(rho) v = rho^m v + a_{m-1} rho^{m-1} v + ... + a_0 v
            powers = [code]
            for _ in range(m):
                powers.append(rho[powers[-1]])
            acc = powers[m]
            for a_k, v in zip(spec.coeffs, powers):
                for _ in range(a_k):
                    acc = spec.code_add(acc, v)
            assert acc == 0, (spec, code)
        # the largest rho-invariant subset of ker omega
        stuck = {c for c in range(pm) if spec.omega_code[c] == 0}
        while True:
            nxt = {c for c in stuck if rho[c] in stuck}
            if nxt == stuck:
                break
            stuck = nxt
        assert stuck == {0}, spec
    assert count == 801


def test_bvec_arithmetic():
    u = BVec((1, 2))
    v = BVec((2, 2))
    assert (u + v).reduced(3) == BVec((0, 1))
    assert BVec((0, 0)).is_zero
    assert not u.is_zero


def test_parse_spec_file_roundtrip(ge):
    text = """
    # comment line
    p = 2

    f = 1, 0   # trailing comment
    """
    assert parse_spec_file(text) == ge


def test_parse_spec_file_errors():
    with pytest.raises(SpecFileError):
        parse_spec_file("f = 1, 1\n")  # no p
    with pytest.raises(SpecFileError):
        parse_spec_file("p = 2\n")  # no f
    with pytest.raises(SpecFileError):
        parse_spec_file("p = 2\nf = 1\nq = 3\n")
    with pytest.raises(SpecFileError):
        parse_spec_file("p = two\nf = 1\n")
    with pytest.raises(NonPrimeP):
        parse_spec_file("p = 6\nf = 1\n")


def test_parse_spec_file_refuses_repeated_keys():
    # a repeated key is refused, naming its line, instead of the last one
    # silently winning
    with pytest.raises(SpecFileError, match="line 3: repeated key 'p'"):
        parse_spec_file("p = 2\nf = 1, 0\np = 3\nf = 2\n")
    with pytest.raises(SpecFileError, match="line 4: repeated key 'f'"):
        parse_spec_file("p = 2\nf = 1, 0\n# comment\nf = 1, 1\n")


def test_code_coords_inverse(fg):
    for code in range(fg.pm):
        assert fg.code_of(fg.coords_of(code)) == code


def test_code_add_matches_coordinates():
    # every pair of codes while p^m <= 125, a seeded sample beyond
    rng = random.Random(18)
    for p in (2, 3, 5, 7):
        for m in (1, 2, 3):
            spec = make_spec(p, [1] * m)
            if spec.pm <= 125:
                pairs = [(u, v) for u in range(spec.pm) for v in range(spec.pm)]
            else:
                pairs = [(0, 0)] + [
                    (rng.randrange(spec.pm), rng.randrange(spec.pm)) for _ in range(2000)
                ]
                pairs += [(0, v) for v, _ in pairs] + [(u, 0) for u, _ in pairs]
            for u, v in pairs:
                want = spec.code_of(
                    [a + b for a, b in zip(spec.coords_of(u), spec.coords_of(v))]
                )
                assert spec.code_add(u, v) == want, (p, m, u, v)
