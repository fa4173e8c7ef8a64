"""Group specs: a prime p and a monic invertible polynomial f over F_p.

The pair (p, f) defines a self-similar group acting on the p-regular rooted
tree.  It is generated by the rooted cycle `a` (cyclically permuting the
subtrees below the root) together with an elementary abelian group
B = (Z/pZ)^m of "spinal" letters, where m = deg f.  A letter v of B acts by
the wreath recursion

    v  =  (a^{omega(v)}, 1, ..., 1, rho(v))

with rho the companion matrix of f and omega the last-coordinate functional.
This module holds the finite-field side of the story: validation of (p, f),
the rho/omega maps, subspaces of B, the torsion test, and the search for a
letter b with recursion b = (a, b) (the "dihedral witness", so called because
<a, b> is then an infinite dihedral group).

Vectors of B are handled in two forms: the public `BVec` (a coordinate
tuple) and an internal integer code sum(v_i * p^i) used for table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (
    DegenerateCase,
    EmptyPolynomial,
    LevelTooLarge,
    NonInvertiblePolynomial,
    NonPrimeP,
    SpecFileError,
    StructureError,
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


@dataclass(frozen=True)
class Subspace:
    """A subspace of B stored as a row-reduced echelon basis (deterministic,
    so two computations of the same subspace compare equal)."""

    p: int
    basis: tuple[tuple[int, ...], ...]
    dim: int

    def contains(self, v: BVec | Sequence[int]) -> bool:
        coords = list(v.coords if isinstance(v, BVec) else v)
        p = self.p
        coords = [c % p for c in coords]
        for row in self.basis:
            pivot = next(i for i, c in enumerate(row) if c)
            if coords[pivot]:
                factor = coords[pivot]
                coords = [(c - factor * r) % p for c, r in zip(coords, row)]
        return not any(coords)


def _rref(p: int, rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Row-reduce over F_p; returns sorted nonzero rows with unit pivots."""
    mat = [list(c % p for c in row) for row in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] % p:
                sel = r
                break
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        inv = pow(mat[pivot_row][col], p - 2, p)
        mat[pivot_row] = [(x * inv) % p for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    out = [tuple(row) for row in mat if any(row)]
    return tuple(out)


class GroupSpec:
    """Validated, immutable definition of one group.

    Attributes:
        p: tree arity (prime).
        m: degree of f.
        coeffs: (a_0, ..., a_{m-1}) with f = x^m + a_{m-1} x^{m-1} + ... + a_0.
        rho: companion matrix of f as a tuple of rows (acts on column vectors).
        omega: the last-coordinate functional (0, ..., 0, 1).

    Construction precomputes lookup tables indexed by vector codes
    (code = sum v_i p^i) so that element arithmetic never redoes the linear
    algebra: `rho_code`, `rho_inv_code`, `omega_code`, `neg_code`.
    """

    __slots__ = (
        "p",
        "m",
        "coeffs",
        "rho",
        "omega",
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
        # Companion matrix: column i (i < m-1) is e_{i+1}; the last column is
        # (-a_0, ..., -a_{m-1}).
        rho = [[0] * m for _ in range(m)]
        for i in range(m - 1):
            rho[i + 1][i] = 1
        for j in range(m):
            rho[j][m - 1] = (-coeffs[j]) % p
        self.rho = tuple(tuple(row) for row in rho)
        self.omega = tuple([0] * (m - 1) + [1])
        self.pm = p**m
        self._build_tables()
        self._check_cayley_hamilton()
        self._check_faithful()

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
        p, m, pm = self.p, self.m, self.pm
        rho_code = [0] * pm
        omega_code = [0] * pm
        neg_code = [0] * pm
        for code in range(pm):
            v = self.coords_of(code)
            img = [0] * m
            for r in range(m):
                acc = 0
                for c in range(m):
                    acc += self.rho[r][c] * v[c]
                img[r] = acc % p
            rho_code[code] = self.code_of(img)
            omega_code[code] = v[m - 1]
            neg_code[code] = self.code_of([-x for x in v])
        rho_inv_code = [0] * pm
        for code, img in enumerate(rho_code):
            rho_inv_code[img] = code
        if sorted(rho_code) != list(range(pm)):
            raise StructureError("companion matrix is not invertible on codes")
        self.rho_code = tuple(rho_code)
        self.rho_inv_code = tuple(rho_inv_code)
        self.omega_code = tuple(omega_code)
        self.neg_code = tuple(neg_code)

    def _check_cayley_hamilton(self) -> None:
        # f(rho) = rho^m + a_{m-1} rho^{m-1} + ... + a_0 I must vanish.
        p, m = self.p, self.m
        def matmul(A, B):
            return [
                [sum(A[r][k] * B[k][c] for k in range(m)) % p for c in range(m)]
                for r in range(m)
            ]
        ident = [[1 if r == c else 0 for c in range(m)] for r in range(m)]
        acc = [[0] * m for _ in range(m)]
        power = [row[:] for row in ident]
        rho = [list(row) for row in self.rho]
        for k in range(m):
            coef = self.coeffs[k]
            for r in range(m):
                for c in range(m):
                    acc[r][c] = (acc[r][c] + coef * power[r][c]) % p
            power = matmul(power, rho)
        for r in range(m):
            for c in range(m):
                acc[r][c] = (acc[r][c] + power[r][c]) % p
        if any(any(row) for row in acc):
            raise StructureError("Cayley-Hamilton identity failed for rho")

    def _check_faithful(self) -> None:
        # Every nonzero vector's forward rho-orbit must hit omega != 0;
        # otherwise some letter would act trivially on the whole tree.
        # Compute the largest subset of ker(omega) closed under rho.
        stuck = {c for c in range(self.pm) if self.omega_code[c] == 0}
        while True:
            nxt = {c for c in stuck if self.rho_code[c] in stuck}
            if nxt == stuck:
                break
            stuck = nxt
        if stuck != {0}:
            raise StructureError(
                "faithfulness check failed: a nonzero letter acts trivially"
            )

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
    """Validate (p, f) and build a GroupSpec with its matrix and tables."""
    return GroupSpec(p, coeffs)


def subspace_Bi(spec: GroupSpec, i: int) -> Subspace:
    """The subspace rho^i(ker omega); dimension m - 1 for every integer i."""
    p, m = spec.p, spec.m
    # ker omega is spanned by the first m-1 basis vectors.
    basis_codes = [spec.code_of([1 if j == k else 0 for j in range(m)]) for k in range(m - 1)]
    table = spec.rho_code if i >= 0 else spec.rho_inv_code
    for _ in range(abs(i)):
        basis_codes = [table[c] for c in basis_codes]
    rows = [spec.coords_of(c) for c in basis_codes]
    rref = _rref(p, rows)
    return Subspace(p, rref, len(rref))


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
    Blank lines and `#` comments are allowed anywhere.
    """
    p_val: Optional[int] = None
    coeffs: Optional[list[int]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFileError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
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
