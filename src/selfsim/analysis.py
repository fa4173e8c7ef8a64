"""Drivers for the structural results: the index-q line subgroups, their
level-one stabilizer generators and subdirect lifts, a syntactic reduced
length with its descent experiment, counting of finite-index maximal
subgroups, and consolidated per-group verification suites.

The line subgroup H(q) is generated by (ab)^q together with all directed
generators, where b is the dihedral witness.  Exact membership in H(q) is
not decidable here; instead a screen based on the action on the orbit line
of the all-ones ray gives a sound non-membership certificate (every H(q)
element moves line point n into {n, -n} + qZ).  Everything that relies on
the screen is labeled heuristic and can end in ScreenInconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import GroupSpec, dihedral_witness, divisible_by_x_plus_1, is_torsion
from .errors import (
    DegenerateCase,
    NotLevelOneStabilized,
    ScreenInconclusive,
    StructureError,
)
from .elements import (
    Element,
    b_letter,
    basis_gens,
    commutator,
    conjugate,
    equal_elements,
    find_cd,
    gen_a,
    identity,
    invert,
    multiply,
    phi_lift,
    power,
    root_exponent,
    section_at,
    theta,
    word_str,
    wreath,
)
from .boundary import certificate_sample, check_odd_q, witness_pair, z_action


# ---------------------------------------------------------------------------
# the line subgroups H(q)


@dataclass(frozen=True)
class HqDesc:
    """Generating data of the index-q line subgroup."""

    q: int
    witness: tuple[int, ...]
    generators: tuple[Element, ...]


def hq(spec: GroupSpec, q: int) -> HqDesc:
    """Descriptor of H(q) = <(ab)^q, directed part>, q odd >= 1."""
    check_odd_q(q)
    a, b = witness_pair(spec)
    gens = (power(multiply(a, b), q),) + tuple(basis_gens(spec))
    return HqDesc(q, spec.coords_of(b.letters[0]), gens)


def hq_stab_gens(spec: GroupSpec, q: int) -> list[Element]:
    """Generators of the level-one stabilizer of H(q): each directed basis
    element x together with its conjugate by a(ba)^(q-1)."""
    check_odd_q(q)
    a, b = witness_pair(spec)
    t = multiply(a, power(multiply(b, a), q - 1))
    out = []
    for x in basis_gens(spec):
        out.append(x)
        out.append(conjugate(x, t))
    return out


def line_screen(spec: GroupSpec, q: int, g: Element) -> bool:
    """Necessary condition for g in H(q): every line point n of
    `certificate_sample(q)` maps into {n, -n} + qZ.  True means "possibly
    a member"; False certifies g outside H(q)."""
    for n in certificate_sample(q):
        img = z_action(g, n)
        if (img - n) % q != 0 and (img + n) % q != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# subdirect lift into the level-one stabilizer


@dataclass(frozen=True)
class SubdirectLift:
    s: Element
    h0: Element
    h1: Element
    n: int


def _fold_dihedral(spec: GroupSpec, x: Element, witness_code: int) -> tuple[int, int]:
    """Write a word in a and the witness b canonically as (ab)^l a^eps."""
    l, eps = 0, 0
    for letter in x.letters:
        if letter < 0:
            if (-letter) % 2:
                eps ^= 1
        elif letter == witness_code:
            if eps == 0:
                l, eps = l - 1, 1
            else:
                l, eps = l + 1, 0
        else:
            raise StructureError("word leaves the dihedral pair")
    return l, eps


def subdirect_lift(spec: GroupSpec, q: int, g: Element) -> SubdirectLift:
    """A level-one stabilizer element s with sections (g h0, h1) where h0
    and h1 lie in H(q).

    The first factor rewrites g letter by letter (a becomes b, a directed
    letter x becomes a rho^-1(x) a), giving sections (g, y) with y in the
    dihedral pair subgroup.  The second factor then straightens y into a
    power of (ab)^q: (acab)^(4k) contributes (ab)^(4k) on the right and a
    screened-trivial (da)^(4k) on the left, and a single aba absorbs a
    reflection; 4k + l = qn is solvable since 4 is invertible mod odd q.
    """
    check_odd_q(q)
    a, b = witness_pair(spec)
    wc = b.letters[0]
    c_vec, _ = find_cd(spec)
    c = b_letter(spec, c_vec)
    parts = []
    for letter in g.letters:
        if letter < 0:
            parts.append(power(b, (-letter) % 2))
        else:
            parts.append(multiply(multiply(a, Element(spec, (spec.rho_inv_code[letter],))), a))
    s1 = identity(spec)
    for part in parts:
        s1 = multiply(s1, part)
    y = section_at(s1, (1,))
    l, eps = _fold_dihedral(spec, y, wc)
    inv4 = pow(4, -1, q)
    k = (-l * inv4) % q
    acab = multiply(multiply(multiply(a, c), a), b)
    s2 = power(acab, 4 * k)
    if eps == 1:
        s2 = multiply(multiply(multiply(a, b), a), s2)
    qn = l + 4 * k
    s = multiply(s1, s2)
    if root_exponent(s) != 0:
        raise StructureError("lift left the level-one stabilizer")
    h1 = section_at(s, (1,))
    expected_h1 = power(multiply(a, b), qn)
    if not equal_elements(h1, expected_h1):
        raise StructureError("second section is not the expected line power")
    h0 = multiply(invert(g), section_at(s, (0,)))
    return SubdirectLift(s, h0, h1, qn // q)


# ---------------------------------------------------------------------------
# syntactic reduced length and the descent experiment


@dataclass(frozen=True)
class LambdaForm:
    prefix: Element
    core: Element
    suffix: Element
    lambda_hat: int


def _run_root(letters: Sequence[int], p: int) -> int:
    return sum(-l for l in letters if l < 0) % p


def lambda_form(x: Element) -> LambdaForm:
    """Split a level-one stabilizer element as prefix * core * suffix with
    the prefix and suffix being maximal root-trivial words in a and the
    dihedral witness; lambda_hat counts the directed letters left in the
    core (a syntactic upper bound for the minimal such count)."""
    spec = x.spec
    if root_exponent(x) != 0:
        raise NotLevelOneStabilized("element moves level one")
    wcode = dihedral_witness(spec) if spec.p == 2 else None
    wc = spec.code_of(wcode.coords) if wcode is not None else None
    letters = x.letters
    n = len(letters)

    def strippable(letter: int) -> bool:
        return letter < 0 or letter == wc

    i = 0
    while i < n and strippable(letters[i]):
        i += 1
    while i > 0 and _run_root(letters[:i], spec.p) != 0:
        i -= 1
    j = n
    while j > i and strippable(letters[j - 1]):
        j -= 1
    while j < n and _run_root(letters[j:], spec.p) != 0:
        j += 1
    prefix = Element(spec, letters[:i])
    core = Element(spec, letters[i:j])
    suffix = Element(spec, letters[j:])
    lam = sum(1 for letter in core.letters if letter > 0)
    return LambdaForm(prefix, core, suffix, lam)


@dataclass(frozen=True)
class ReductionStep:
    depth: int
    element: Element
    lambda_hat: int
    certified_out: bool
    actions: tuple[str, ...]


@dataclass(frozen=True)
class ReductionTrace:
    q: int
    steps: tuple[ReductionStep, ...]
    success: bool

    @property
    def final(self) -> ReductionStep:
        return self.steps[-1]


def reduction_trace(spec: GroupSpec, q: int, g: Element, max_steps: int = 64) -> ReductionTrace:
    """Drive a screened non-member of H(q) down the tree until its
    syntactic reduced length is at most 3.

    Each round fixes the root with (ab)^q if needed, makes sure the
    1-section is screened outside H(q) (conjugating by (ab)^q b to swap
    sides when it is not), fixes the 1-section's root with (ab)^(2q), and
    projects to the 1-section.  All adjustments multiply or conjugate by
    H(q) elements, so non-membership is preserved; the screen re-certifies
    it at every depth and the whole procedure is heuristic exactly to the
    extent the screen is.
    """
    check_odd_q(q, 3)
    if max_steps < 0:
        raise ValueError("the step budget must be >= 0")
    a, b = witness_pair(spec)
    ab = multiply(a, b)
    abq = power(ab, q)
    ab2q = power(ab, 2 * q)
    swap_t = multiply(abq, b)
    if line_screen(spec, q, g):
        raise ScreenInconclusive("input is not screen-certified outside H(q)")
    cur = g
    depth = 0
    steps: list[ReductionStep] = []
    while True:
        actions: list[str] = []
        if root_exponent(cur) != 0:
            cur = multiply(cur, abq)
            actions.append("root_fix")
        certified = not line_screen(spec, q, cur)
        if not certified:
            raise ScreenInconclusive(f"certificate lost at depth {depth}")
        lam = lambda_form(cur).lambda_hat
        if lam <= 3:
            steps.append(ReductionStep(depth, cur, lam, certified, tuple(actions)))
            return ReductionTrace(q, tuple(steps), True)
        if len(steps) >= max_steps:
            steps.append(ReductionStep(depth, cur, lam, certified, tuple(actions)))
            return ReductionTrace(q, tuple(steps), False)
        g1 = section_at(cur, (1,))
        if line_screen(spec, q, g1):
            cur = conjugate(cur, swap_t)
            actions.append("side_swap")
            g1 = section_at(cur, (1,))
            if line_screen(spec, q, g1):
                raise ScreenInconclusive(
                    f"neither section certified outside H({q}) at depth {depth}"
                )
        if root_exponent(g1) != 0:
            cur = multiply(cur, ab2q)
            actions.append("phi1_root_fix")
        actions.append("project")
        steps.append(ReductionStep(depth, cur, lam, certified, tuple(actions)))
        cur = section_at(cur, (1,))
        depth += 1


# ---------------------------------------------------------------------------
# maximal subgroups of finite index


@dataclass(frozen=True)
class MaximalDesc:
    """An index-p subgroup given as the pullback of a hyperplane: the
    functional lists its values on (a, b_0, ..., b_{m-1})."""

    functional: tuple[int, ...]
    index: int


@dataclass(frozen=True)
class MaximalCount:
    count: int
    descriptors: tuple[MaximalDesc, ...]


# The count of maximal subgroups of finite index rests on this result.
MAXIMALS_HYPOTHESIS = "hypothesis=every_finite_index_maximal_is_normal_of_index_p"


def count_finite_index_maximals(spec: GroupSpec) -> MaximalCount:
    """One descriptor per index-p subgroup: the kernel of a nonzero
    functional on G/G' = F_p^(m+1), normalized to first nonzero entry 1
    (proportional ones share a kernel), (p^(m+1) - 1)/(p - 1) in all.

    These are all the maximal subgroups of finite index by the source
    paper's result (arXiv:1611.01216, 2016) that in these groups every
    maximal subgroup of finite index is normal of index p; the records
    name it as MAXIMALS_HYPOTHESIS."""
    if spec.is_degenerate:
        raise DegenerateCase("the dihedral case is excluded")
    p = spec.p
    descs = []
    # a functional with lambda_a > 1 is not normalized, so only 0 and 1
    for lam_a in range(min(p, 2)):
        for bcode in range(spec.pm):
            functional = (lam_a,) + spec.coords_of(bcode)
            pivot = next((i for i, v in enumerate(functional) if v), None)
            if pivot is None or functional[pivot] != 1:
                continue
            descs.append(MaximalDesc(functional, p))
    return MaximalCount(len(descs), tuple(descs))


# ---------------------------------------------------------------------------
# classification report


@dataclass(frozen=True)
class ClassifyReport:
    p: int
    m: int
    coeffs: tuple[int, ...]
    degenerate: bool
    faithful: bool
    torsion: bool
    witness: Optional[tuple[int, ...]]
    divisible: bool
    maximal_count: Optional[int]


def classify(spec: GroupSpec) -> ClassifyReport:
    degenerate = spec.is_degenerate
    wvec = dihedral_witness(spec) if spec.p == 2 else None
    witness = wvec.coords if wvec is not None else None
    if degenerate:
        # infinite dihedral: ab has infinite order, and the finite-index
        # maximal count formula is out of scope
        torsion = False
        maximal_count = None
    else:
        torsion = is_torsion(spec)
        maximal_count = count_finite_index_maximals(spec).count
    return ClassifyReport(
        p=spec.p,
        m=spec.m,
        coeffs=spec.coeffs,
        degenerate=degenerate,
        # every valid spec is faithful: the lemma in `GroupSpec`
        faithful=True,
        torsion=torsion,
        witness=witness,
        divisible=divisible_by_x_plus_1(spec),
        maximal_count=maximal_count,
    )


# ---------------------------------------------------------------------------
# identity suite


IDENTITY_SUITE_VERSION = 1


@dataclass(frozen=True)
class SuiteItem:
    item: str
    status: str
    witness: str


@dataclass(frozen=True)
class SuiteReport:
    version: int
    items: tuple[SuiteItem, ...]

    @property
    def passed(self) -> bool:
        return all(it.status != "fail" for it in self.items)


def identity_suite(spec: GroupSpec) -> SuiteReport:
    """Evaluate a fixed, versioned list of exact element identities; items
    whose hypotheses the group does not meet are reported as skipped."""
    p, m = spec.p, spec.m
    a = gen_a(spec)
    basis = basis_gens(spec)
    wc = dihedral_witness(spec) if p == 2 else None
    b = b_letter(spec, wc) if wc is not None else None
    items: list[SuiteItem] = []

    def add(item: str, status: str, witness: str) -> None:
        items.append(SuiteItem(item, status, witness))

    def check(item: str, pairs) -> None:
        for label, lhs, rhs in pairs:
            if not equal_elements(lhs, rhs):
                add(item, "fail", label)
                return
        add(item, "pass", "all_equal")

    one = identity(spec)
    check("rooted_order", [("a^p", power(a, p), one)])
    check("directed_order", [(f"b{i}^p", power(x, p), one) for i, x in enumerate(basis)])
    check(
        "directed_commute",
        [
            (f"[b{i},b{j}]", commutator(basis[i], basis[j]), one)
            for i in range(m)
            for j in range(i + 1, m)
        ],
    )
    sec_pairs = []
    for i, x in enumerate(basis):
        secs = wreath(x).sections
        sec_pairs.append((f"b{i}@0", secs[0], gen_a(spec, spec.omega_code[x.letters[0]])))
        for k in range(1, p - 1):
            sec_pairs.append((f"b{i}@{k}", secs[k], one))
        sec_pairs.append(
            (f"b{i}@{p - 1}", secs[p - 1], Element(spec, (spec.rho_code[x.letters[0]],)))
        )
    check("directed_sections", sec_pairs)

    if p == 2 and m >= 2:
        check(
            "commutator_chain",
            [
                (f"phi1([a,b{i}])", section_at(commutator(a, basis[i]), (1,)), basis[i + 1])
                for i in range(m - 1)
            ],
        )
    else:
        add("commutator_chain", "skip", "needs_p2_m2")
    if p == 2:
        last = basis[m - 1]
        rho_last = Element(spec, (spec.rho_code[last.letters[0]],))
        check(
            "commutator_last",
            [("phi1([a,b_last])", section_at(commutator(a, last), (1,)), multiply(a, rho_last))],
        )
    else:
        add("commutator_last", "skip", "needs_p2")

    if b is not None:
        ab, ba = multiply(a, b), multiply(b, a)
        pairs = []
        for q in (1, 3):
            x = power(ab, 2 * q)
            pairs.append((f"(ab)^{2*q}@0", section_at(x, (0,)), power(ba, q)))
            pairs.append((f"(ab)^{2*q}@1", section_at(x, (1,)), power(ab, q)))
        check("line_pair_square", pairs)

        # the conjugates of the basis by a(ba)^2, the stabilizer generators of H(3)
        stab = hq_stab_gens(spec, 3)
        pairs = []
        for i, (x, lhs) in enumerate(zip(stab[::2], stab[1::2])):
            code = x.letters[0]
            rho_x = Element(spec, (spec.rho_code[code],))
            omega_a = gen_a(spec, spec.omega_code[code])
            pairs.append((f"b{i}_conj@0", section_at(lhs, (0,)), conjugate(rho_x, ab)))
            pairs.append((f"b{i}_conj@1", section_at(lhs, (1,)), conjugate(omega_a, ba)))
        check("stab_gen_sections", pairs)

        check(
            "theta_fixes_line_squares",
            [
                (f"theta((ba)^{2*l})", theta(power(ba, 2 * l)), power(ba, 2 * l))
                for l in (1, 2, 3)
            ],
        )
    else:
        add("line_pair_square", "skip", "needs_witness")
        add("stab_gen_sections", "skip", "needs_witness")
        add("theta_fixes_line_squares", "skip", "needs_witness")

    if p == 2 and m >= 2:
        try:
            c_vec, d_vec = find_cd(spec)
            c_el, d_el = b_letter(spec, c_vec), b_letter(spec, d_vec)
            check(
                "cd_sections",
                [("c@0", section_at(c_el, (0,)), a), ("c@1", section_at(c_el, (1,)), d_el)],
            )
            words = [one, a, basis[0], multiply(a, basis[0]), multiply(basis[0], multiply(a, basis[1]))]
            lift_pairs = [
                (f"lift_{word_str(w)}", section_at(phi_lift(w), (1,)), w) for w in words
            ]
            check("lift_section", lift_pairs)
            d_code = d_el.letters[0]
            ok = all(
                all(letter < 0 or letter == d_code for letter in section_at(phi_lift(w), (0,)).letters)
                for w in words
            )
            add("lift_zero_letters", "pass" if ok else "fail", "a_d_only")
        except StructureError:
            add("cd_sections", "skip", "no_cd")
            add("lift_section", "skip", "no_cd")
            add("lift_zero_letters", "skip", "no_cd")
    else:
        add("cd_sections", "skip", "needs_p2_m2")
        add("lift_section", "skip", "needs_p2_m2")
        add("lift_zero_letters", "skip", "needs_p2_m2")

    if b is not None and not spec.is_degenerate and m >= 2:
        try:
            for g in (one, a, multiply(a, b)):
                subdirect_lift(spec, 3, g)
            add("subdirect_lift_roundtrip", "pass", "q3_three_inputs")
        except StructureError as exc:
            add("subdirect_lift_roundtrip", "fail", str(exc).replace(" ", "_"))
        line_ok = all(z_action(multiply(a, b), n) == n + 1 for n in range(-3, 4)) and all(
            z_action(b, n) == -n for n in range(-3, 4)
        )
        add("line_translation", "pass" if line_ok else "fail", "ab_shifts_b_negates")
    else:
        add("subdirect_lift_roundtrip", "skip", "needs_witness_m2")
        if b is not None:
            line_ok = all(z_action(multiply(a, b), n) == n + 1 for n in range(-3, 4))
            add("line_translation", "pass" if line_ok else "fail", "ab_shifts")
        else:
            add("line_translation", "skip", "needs_witness")

    return SuiteReport(IDENTITY_SUITE_VERSION, tuple(items))


def suite_records(suite: str, report: SuiteReport) -> list[str]:
    return [
        f"suite={suite} item={it.item} status={it.status} witness={it.witness}"
        for it in report.items
    ]
