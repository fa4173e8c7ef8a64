"""Dynamics on the boundary of the tree, restricted to eventually periodic
rays.

A ray is an infinite word over {0, ..., p-1} of the form u v v v ...; the
pair (u, v) is kept in a canonical form (primitive period, shortest
preperiod) so that equality is structural.  A letter changes at most one
digit of a ray, so a word acts on a ray as it acts on a long enough finite
prefix (`elements.act_on_vertex`), and the untouched period follows.

The module also builds Schreier balls of the orbit of the all-ones ray,
the bijection n -> (ab)^n applied to that ray in closed form (a Gray-code
digit map, so no search and no bound), the induced action on integers,
and the properness certificate for the subgroups generated by (ab)^q
together with B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from .core import GroupSpec, dihedral_witness
from .errors import EvenQ, NoDihedralWitness, NotInOrbit
from .elements import (
    Element,
    act_on_vertex,
    b_letter,
    basis_gens,
    gen_a,
    identity,
    invert,
    multiply,
    power,
    root_exponent,
    section_at,
    word_str,
)

Digits = tuple[int, ...]

_PIECE = 32  # letters per window in act_ray


def _to_digits(w: Union[str, Sequence[int]]) -> Digits:
    if isinstance(w, str):
        return tuple(int(ch) for ch in w)
    return tuple(int(c) for c in w)


def _primitive(per: Digits) -> Digits:
    """Shortest word whose repetition gives the same infinite tail
    (classic failure-function primitivity test)."""
    n = len(per)
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and per[i] != per[k]:
            k = fail[k - 1]
        if per[i] == per[k]:
            k += 1
        fail[i] = k
    period = n - fail[n - 1]
    if n % period == 0:
        return per[:period]
    return per


@dataclass(frozen=True)
class Ray:
    """Canonical eventually periodic ray pre + per^infinity."""

    pre: Digits
    per: Digits

    def __str__(self) -> str:
        return ray_str(self)


def make_ray(pre: Union[str, Sequence[int]], per: Union[str, Sequence[int]]) -> Ray:
    pre_d = _to_digits(pre)
    per_d = _to_digits(per)
    if not per_d:
        raise ValueError("period must be nonempty")
    per_d = _primitive(per_d)
    pre_l = list(pre_d)
    per_l = list(per_d)
    # Absorb preperiod characters that merely repeat the period's tail.
    while pre_l and pre_l[-1] == per_l[-1]:
        per_l = [per_l[-1]] + per_l[:-1]
        pre_l.pop()
    return Ray(tuple(pre_l), tuple(per_l))


def ray_str(r: Ray) -> str:
    sep = "" if all(d < 10 for d in r.pre + r.per) else ","
    return sep.join(str(d) for d in r.pre) + "(" + sep.join(str(d) for d in r.per) + ")"


def all_ones(spec: GroupSpec) -> Ray:
    return make_ray((), (1,))


def act_ray(x: Element, r: Ray) -> Ray:
    """Image of the ray under x; rightmost letter acts first.  A digit
    outside 0..p-1 raises ValueError."""
    # Each letter changes at most one digit: a^e digit 0, a B-letter the
    # digit after the first digit other than p-1.  That change lies at most
    # len(per)+1 past the preperiod or past the previous change, so for L
    # letters every change falls inside pre + per^(2L+1) and the digits
    # after that window are the untouched period.  Words act in pieces of
    # _PIECE letters: a B-letter may scan a run of p-1 to the end of the
    # window, so one window for the whole word costs O(L^2) on words such
    # as (a b0)^k that keep returning to the all-ones ray.
    letters = x.letters
    # An empty word still makes one pass, which checks the digits.
    for end in range(len(letters), 0, -_PIECE) or (0,):
        piece = Element(x.spec, letters[max(0, end - _PIECE):end])
        window = r.pre + r.per * (2 * len(piece.letters) + 1)
        r = make_ray(act_on_vertex(piece, window), r.per)
    return r


# ---------------------------------------------------------------------------
# Schreier balls


@dataclass
class SchreierBall:
    center: Ray
    radius: int
    vertices: list[Ray]
    edges: list[tuple[int, int, str]]
    distances: list[int] = field(default_factory=list)


def _default_gens(spec: GroupSpec) -> list[tuple[str, Element]]:
    """Generator list for ball BFS.

    When a dihedral witness b exists, every other B-letter acts on each ray
    either trivially or exactly like b (the lemma in `witness_pair`), so the
    orbital graph collapses onto the two-generator graph of a and b.
    Without a witness the full set {a} with all nonzero B-letters is used.
    """
    wit = dihedral_witness(spec) if spec.p == 2 else None
    if wit is not None:
        return [("a", gen_a(spec)), ("b", b_letter(spec, wit))]
    gens: list[tuple[str, Element]] = [("a", gen_a(spec))]
    for code in range(1, spec.pm):
        x = Element(spec, (code,))
        gens.append((word_str(x), x))
    return gens


def schreier_ball(spec: GroupSpec, center: Ray, radius: int) -> SchreierBall:
    """BFS ball of the orbit graph around `center`.

    Vertices appear in BFS order; edges are undirected and recorded once
    per (pair, label), loops included.  Non-loop edges are expanded only
    from vertices at distance < radius, so the ball is the BFS tree plus
    all back edges; loops are recorded for every vertex.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gens = _default_gens(spec)
    center = make_ray(center.pre, center.per)
    vertices: list[Ray] = [center]
    index: dict[Ray, int] = {center: 0}
    distances = [0]
    edges: list[tuple[int, int, str]] = []
    edge_seen: set[tuple[int, int, str]] = set()
    queue = [0]
    head = 0
    while head < len(queue):
        vi = queue[head]
        head += 1
        v = vertices[vi]
        for label, g in gens:
            images = [act_ray(g, v)]
            back = act_ray(invert(g), v)
            if back != images[0]:
                images.append(back)
            for img in images:
                if img == v:
                    key = (vi, vi, label)
                    if key not in edge_seen:
                        edge_seen.add(key)
                        edges.append(key)
                    continue
                if distances[vi] >= radius:
                    continue
                j = index.get(img)
                if j is None:
                    j = len(vertices)
                    index[img] = j
                    vertices.append(img)
                    distances.append(distances[vi] + 1)
                    queue.append(j)
                key = (min(vi, j), max(vi, j), label)
                if key not in edge_seen:
                    edge_seen.add(key)
                    edges.append(key)
    return SchreierBall(center, radius, vertices, edges, distances)


def dot_export(ball: SchreierBall) -> str:
    """Render as an undirected DOT graph; node order is BFS order, labels
    are preperiod(period)."""
    lines = ["graph schreier {"]
    for i, v in enumerate(ball.vertices):
        lines.append(f'  n{i} [label="{ray_str(v)}"];')
    for i, j, label in ball.edges:
        lines.append(f'  n{i} -- n{j} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the integer parametrization of the orbit of the all-ones ray


def witness_pair(spec: GroupSpec) -> tuple[Element, Element]:
    """The generators a and b of the infinite dihedral pair, b the dihedral
    witness; NoDihedralWitness when there is none, p != 2 included.

    Lemma (p = 2): each B-letter x acts on every ray as 1 or as b, so it
    sends n to -n if w(rho^k x) = 1 for k = v_2(n) (2-adic valuation, the
    number of leading 1s of zeta(n)), and to n otherwise.  Proof: b = (a, b)
    as rho b = b and w b = 1; x has sections a^(w x) at 0 and rho x at 1,
    so it fixes 1^inf and sends 1^k 0 u to 1^k 0 a^(w(rho^k x)) u, where b
    sends it to 1^k 0 a u.  ab sends n to n + 1 as zeta(n) = (ab)^n 1^inf,
    and b zeta(n) = (ba)^n b 1^inf = zeta(-n) (Nekrashevych, Self-Similar
    Groups, 2005, on sections and the boundary action)."""
    wit = dihedral_witness(spec) if spec.p == 2 else None
    if wit is None:
        raise NoDihedralWitness("spec has no letter with recursion b = (a, b)")
    return gen_a(spec), b_letter(spec, wit)


def check_odd_q(q: int, least: int = 1) -> None:
    """The index q of a line subgroup must be odd (EvenQ) and at least
    `least` (ValueError)."""
    if q % 2 == 0:
        raise EvenQ(f"q = {q} must be odd")
    if q < least:
        raise ValueError(f"q must be >= {least}")


def zeta(spec: GroupSpec, n: int) -> Ray:
    """The ray (ab)^n applied to the all-ones ray, in O(log|n|).

    The orbit is a path a-b-a-b-... on which zeta(n) sits at position
    m = 2n-1 for n > 0 and m = -2n for n <= 0.  With g = m XOR (m >> 1),
    the reflected Gray code of m, the ray is u 1^infinity where
    u_i = 1 - bit_i(g).  Only a and the witness b = (a, b) act, so the
    map is the same for every spec that has a witness.
    """
    witness_pair(spec)
    m = 2 * n - 1 if n > 0 else -2 * n
    g = m ^ (m >> 1)
    return make_ray([1 - ((g >> i) & 1) for i in range(g.bit_length())], (1,))


def zeta_inv(spec: GroupSpec, r: Ray) -> int:
    """The unique n with zeta(n) = r; NotInOrbit when r has a digit outside
    {0, 1} or is not cofinal with the all-ones ray."""
    witness_pair(spec)
    r = make_ray(r.pre, r.per)
    if r.per != (1,) or any(d not in (0, 1) for d in r.pre):
        raise NotInOrbit(f"ray {ray_str(r)} is not cofinal with (1)")
    g = sum((1 - d) << i for i, d in enumerate(r.pre))
    # Undo the Gray code: bit i of m is the XOR of the bits of g from i up.
    m = g
    shift = 1
    while g >> shift:
        m ^= m >> shift
        shift *= 2
    return (m + 1) // 2 if m % 2 else -(m // 2)


def z_action(x: Element, n: int) -> int:
    """The action of x on the integer parametrization of the orbit."""
    return zeta_inv(x.spec, act_ray(x, zeta(x.spec, n)))


# ---------------------------------------------------------------------------
# properness certificate


@dataclass(frozen=True)
class CertCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class PropernessReport:
    q: int
    status: str  # "PASS", "FAIL", or "NOT_PROPER_H1"
    checks: tuple[CertCheck, ...]
    witness: str

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def certificate_sample(q: int) -> list[int]:
    """The documented sample set of `analysis.line_screen`: 0 and
    +-1..+-3q."""
    out = [0]
    for k in range(1, 3 * q + 1):
        out.append(k)
        out.append(-k)
    return out


def hq_properness_certificate(spec: GroupSpec, q: int) -> PropernessReport:
    """Certify that the subgroup generated by (ab)^q and B moves 0 only
    inside q*Z on the integer orbit, while ab moves 0 to 1; for odd q >= 3
    and 1 not divisible by q this witnesses a proper subgroup.  Each check
    holds for all n, by element arithmetic and the lemma in `witness_pair`.
    For q = 1 all checks run but the conclusion is NOT_PROPER_H1 (the
    subgroup is everything).
    """
    check_odd_q(q)
    a, b = witness_pair(spec)
    shifted = z_action(power(multiply(a, b), q), 0)
    checks = [CertCheck("shift_by_q", shifted == q, f"(ab)^{q} sends n to n+{q} for all n, "
                        f"as ab sends n to n+1; z_action((ab)^{q}, 0) = {shifted}")]
    rooted = (identity(spec), a)
    for x in basis_gens(spec):
        # the sections at 1^k 0 and 1^(k+1), until the one at 1^k is x again
        okx, k, cur = True, 0, x
        while okx and (k == 0 or cur != x):
            okx = section_at(cur, "0") in rooted
            cur = section_at(cur, "1")
            okx &= len(cur.letters) == 1 and cur.letters[0] > 0
            k += 1
        checks.append(CertCheck(f"basis_{word_str(x)}_sign", okx, f"{word_str(x)} sends n to "
                                f"n or -n for all n: its sections at 1^k are B-letters and "
                                f"at 1^k0 are 1 or a, k < {k}"))
    okb = root_exponent(b) == 0 and section_at(b, "0") == a and section_at(b, "1") == b
    checks.append(CertCheck("witness_negates", okb, "b = (a, b), so b sends n to -n for all n"))

    orbit_ok = all(c.passed for c in checks)
    checks.append(CertCheck("orbit_of_0_in_qZ", orbit_ok, "generators move 0 within multiples "
                            "of q, so the whole orbit of 0 stays there"))
    moved = z_action(multiply(a, b), 0)
    checks.append(CertCheck("ab_moves_0", moved == 1, f"z_action(ab, 0) = {moved}"))
    witness = f"z_action(ab,0)={moved}"
    if not (orbit_ok and moved == 1):
        return PropernessReport(q, "FAIL", tuple(checks), witness)
    if moved % q == 0:
        return PropernessReport(q, "NOT_PROPER_H1", tuple(checks), witness + f" lies in {q}Z")
    return PropernessReport(q, "PASS", tuple(checks), witness + f" not in {q}Z")
