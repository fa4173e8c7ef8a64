"""Group specs: a prime p and a monic invertible polynomial f over F_p.

The pair (p, f) defines a self-similar group acting on the p-regular rooted
tree.  It is generated by the rooted cycle `a` (cyclically permuting the
subtrees below the root) together with an elementary abelian group
B = (Z/pZ)^m of "spinal" letters, where m = deg f.  A letter v of B acts by
the wreath recursion

    v  =  (a^{omega(v)}, 1, ..., 1, rho(v))

with rho the companion action of f and omega the last-coordinate functional.
This module holds the finite-field side of the story: validation of (p, f),
the rho/omega code tables, the torsion test, and the search for a letter b
with recursion b = (a, b) (the "dihedral witness", so called because
<a, b> is then an infinite dihedral group).

Vectors of B are handled in two forms: the public `BVec` (a coordinate
tuple) and an internal integer code sum(v_i * p^i) used for table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    DegenerateCase,
    EmptyPolynomial,
    LevelTooLarge,
    NonInvertiblePolynomial,
    NonPrimeP,
    SpecFileError,
    WrongCharacteristic,
)

ENUMERATION_CAP = 1 << 20


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _digit_table(p: int, maps: Sequence[Sequence[int]]) -> list[int]:
    """For every code in order, the code of its image under the digitwise
    map that sends digit j of the vector to maps[j][digit]."""
    table = [0]
    scale = 1
    for digit_map in maps:
        table = [x + scale * digit_map[u] for u in range(p) for x in table]
        scale *= p
    return table


@dataclass(frozen=True)
class BVec:
    """A vector of B in the canonical letter basis, coordinates mod p."""

    coords: tuple[int, ...]

    def __add__(self, other: "BVec") -> "BVec":
        if len(self.coords) != len(other.coords):
            raise ValueError("length mismatch")
        return BVec(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def reduced(self, p: int) -> "BVec":
        return BVec(tuple(c % p for c in self.coords))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)


class GroupSpec:
    """Validated, immutable definition of one group.

    Attributes:
        p: tree arity (prime).
        m: degree of f.
        coeffs: (a_0, ..., a_{m-1}) with f = x^m + a_{m-1} x^{m-1} + ... + a_0.

    Construction builds lookup tables indexed by vector codes
    (code = sum v_i p^i) straight from the coefficients, so that element
    arithmetic never redoes the linear algebra: `rho_code`, `rho_inv_code`,
    `omega_code`, `neg_code`, for

        rho(v)   = (0, v_0, ..., v_{m-2}) - v_{m-1} (a_0, ..., a_{m-1}),
        omega(v) = v_{m-1}.

    Every spec that passes validation (p prime, a_0 != 0) has the three
    properties the group theory needs, so none is re-checked:

    - Faithful: by the recursion, the letter v acts trivially on the whole
      tree iff omega(rho^k v) = 0 for every k.  Now rho e_i = e_{i+1} for
      i < m - 1, so omega(rho^k e_j) is 0 when j + k < m - 1 and 1 when
      j + k = m - 1.  The m x m matrix (omega(rho^k e_j)) is
      anti-triangular with a unit anti-diagonal, so that common kernel is
      0: no nonzero letter acts trivially.
    - Invertible: rho is the companion matrix of f, so det rho = +-a_0,
      which is nonzero.
    - f(rho) = 0: f is the characteristic polynomial of rho (Cayley-
      Hamilton).  Directly, rho^k e_0 = e_k for k < m and rho^m e_0 = -a,
      so f(rho) e_0 = 0; f(rho) commutes with rho and e_0 is cyclic.
    """

    __slots__ = (
        "p",
        "m",
        "coeffs",
        "pm",
        "rho_code",
        "rho_inv_code",
        "omega_code",
        "neg_code",
    )

    def __init__(self, p: int, coeffs: Sequence[int]):
        if not _is_prime(p):
            raise NonPrimeP(f"p = {p} is not prime")
        coeffs = tuple(int(c) % p for c in coeffs)
        if len(coeffs) == 0:
            raise EmptyPolynomial("f needs at least one coefficient")
        if coeffs[0] == 0:
            raise NonInvertiblePolynomial("constant term a_0 must be nonzero")
        m = len(coeffs)
        if p**m > ENUMERATION_CAP:
            raise LevelTooLarge(f"p^m = {p**m} exceeds the cap {ENUMERATION_CAP}")
        self.p = p
        self.m = m
        self.coeffs = coeffs
        self.pm = p**m
        self._build_tables()

    # -- vector code helpers -------------------------------------------------

    def code_of(self, coords: Sequence[int]) -> int:
        p = self.p
        if len(coords) != self.m:
            raise ValueError(f"expected {self.m} coordinates")
        code = 0
        for i, c in enumerate(coords):
            code += (int(c) % p) * p**i
        return code

    def coords_of(self, code: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.m):
            out.append(code % p)
            code //= p
        return tuple(out)

    def code_add(self, c1: int, c2: int) -> int:
        p = self.p
        if p == 2:
            return c1 ^ c2
        out = 0
        scale = 1
        while c1 or c2:
            c1, d1 = divmod(c1, p)
            c2, d2 = divmod(c2, p)
            out += (d1 + d2) % p * scale
            scale *= p
        return out

    def _build_tables(self) -> None:
        p, m, coeffs = self.p, self.m, self.coeffs
        block = self.pm // p
        digits = range(p)
        # A code is c + block t with c < block = p^(m-1) and t = v_{m-1};
        # rho shifts c's digits up one place and adds d = -t (a_0, ..., a_{m-1}).
        rho_code = []
        for t in digits:
            d = [(-t * a) % p for a in coeffs]
            shifted = _digit_table(p, [[(u + e) % p for u in digits] for e in d[1:]])
            rho_code += [d[0] + p * x for x in shifted]
        rho_inv_code = [0] * self.pm
        for code, img in enumerate(rho_code):
            rho_inv_code[img] = code
        self.rho_code = tuple(rho_code)
        self.rho_inv_code = tuple(rho_inv_code)
        self.omega_code = tuple(t for t in digits for _ in range(block))
        self.neg_code = tuple(_digit_table(p, [[(-u) % p for u in digits]] * m))

    # -- equality / hashing --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupSpec)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"GroupSpec(p={self.p}, coeffs={list(self.coeffs)})"

    @property
    def is_degenerate(self) -> bool:
        """True for (p, m) = (2, 1): the infinite dihedral group."""
        return self.p == 2 and self.m == 1


def make_spec(p: int, coeffs: Sequence[int]) -> GroupSpec:
    """Validate (p, f) and build a GroupSpec with its code tables."""
    return GroupSpec(p, coeffs)


def is_torsion(spec: GroupSpec) -> bool:
    """Whether the group is a torsion (in fact p-) group.

    Criterion: every nontrivial rho-orbit on B meets ker omega.  For m = 1
    the kernel is zero, so every spec with m = 1 comes out non-torsion,
    which is the correct reading (the degenerate (2, 1) spec is refused).
    """
    if spec.is_degenerate:
        raise DegenerateCase("(p, m) = (2, 1) is the infinite dihedral group")
    seen = [False] * spec.pm
    seen[0] = True
    for start in range(1, spec.pm):
        if seen[start]:
            continue
        orbit_hits_kernel = False
        c = start
        while not seen[c]:
            seen[c] = True
            if spec.omega_code[c] == 0:
                orbit_hits_kernel = True
            c = spec.rho_code[c]
        if not orbit_hits_kernel:
            return False
    return True


def dihedral_witness(spec: GroupSpec) -> Optional[BVec]:
    """The lex-least b with rho(b) = b and omega(b) = 1, or None.

    Such a letter satisfies the wreath recursion b = (a, b), making <a, b>
    infinite dihedral.  It exists iff x + 1 divides f over F_2.
    """
    if spec.p != 2:
        raise WrongCharacteristic("dihedral witness is a p = 2 notion")
    candidates = []
    for code in range(1, spec.pm):
        if spec.rho_code[code] == code and spec.omega_code[code] == 1:
            candidates.append(spec.coords_of(code))
    if not candidates:
        return None
    return BVec(min(candidates))


def divisible_by_x_plus_1(spec: GroupSpec) -> bool:
    """Whether f(1) = 0 over F_p (for p = 2: x + 1 divides f)."""
    total = 1 + sum(spec.coeffs)
    return total % spec.p == 0


def parse_spec_file(text: str) -> GroupSpec:
    """Parse the line-oriented spec format.

    Recognized lines (whitespace around `=` and commas is ignored):
        p = <prime>
        f = a0, a1, ..., a{m-1}     # monic leading coefficient implied
    Each key appears once.  Blank lines and `#` comments are allowed
    anywhere.
    """
    p_val: Optional[int] = None
    coeffs: Optional[list[int]] = None
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFileError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise SpecFileError(f"line {lineno}: repeated key {key!r}")
        seen.add(key)
        if key == "p":
            try:
                p_val = int(value)
            except ValueError:
                raise SpecFileError(f"line {lineno}: p must be an integer") from None
        elif key == "f":
            parts = [part.strip() for part in value.split(",")]
            try:
                coeffs = [int(part) for part in parts]
            except ValueError:
                raise SpecFileError(
                    f"line {lineno}: f must be a comma-separated integer list"
                ) from None
        else:
            raise SpecFileError(f"line {lineno}: unknown key {key!r}")
    if p_val is None:
        raise SpecFileError("missing 'p = <prime>' line")
    if coeffs is None:
        raise SpecFileError("missing 'f = a0,a1,...' line")
    return make_spec(p_val, coeffs)
