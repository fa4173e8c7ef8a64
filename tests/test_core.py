import random

import pytest

from selfsim import (
    BVec,
    dihedral_witness,
    divisible_by_x_plus_1,
    is_torsion,
    make_spec,
    parse_spec_file,
    subspace_Bi,
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


def test_subspace_chain(ge, grig, fg):
    # B_0 is the kernel of the output functional; B_i is its i-th translate
    # under the cycling map, so every one has dimension m - 1.
    assert subspace_Bi(ge, 0).dim == 1
    assert subspace_Bi(ge, 0).contains(BVec((1, 0)))
    assert subspace_Bi(ge, 1).dim == 1
    assert subspace_Bi(ge, 1).contains(BVec((0, 1)))
    assert not subspace_Bi(ge, 1).contains(BVec((1, 0)))
    # the cycling map of x^2 + 1 is an involution
    assert subspace_Bi(ge, 2).basis == subspace_Bi(ge, 0).basis
    assert subspace_Bi(ge, -1).basis == subspace_Bi(ge, 1).basis
    assert subspace_Bi(grig, 1).dim == 1
    assert subspace_Bi(grig, 1).contains(BVec((0, 1)))
    # x^2 + x + 1 cycles ker omega with period 3
    assert subspace_Bi(grig, 3).basis == subspace_Bi(grig, 0).basis
    assert subspace_Bi(grig, 2).basis != subspace_Bi(grig, 0).basis
    assert subspace_Bi(fg, 0).dim == 0
    assert subspace_Bi(fg, 5).dim == 0
    for spec in (ge, grig):
        for i in range(-3, 4):
            assert subspace_Bi(spec, i).dim == spec.m - 1


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
