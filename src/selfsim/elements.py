"""Exact arithmetic for group elements given as reduced words.

An element is an alternating word over two letter kinds: powers of the
rooted cycle `a` and nonzero vectors of B.  The normal form is free
reduction only (adjacent a-powers add mod p, adjacent B-letters add in B,
zeros are dropped); deciding whether a word is trivial as a tree
automorphism is the job of `is_trivial`, which recurses through the wreath
decomposition and terminates because sections shrink.  At p = 2 it splits
unreduced run forms instead of reduced sections.

Letters are stored compactly as integers:
    negative letter -e        a^e with 1 <= e <= p-1
    positive letter code      nonzero vector of B, code = sum v_i p^i
The empty tuple is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import xor
from typing import Optional, Sequence, Union

from .core import BVec, GroupSpec, dihedral_witness
from .errors import (
    DegenerateCase,
    NotInDerivedSubgroup,
    SpecMismatch,
    StructureError,
    WordSyntaxError,
    WrongCharacteristic,
)

Letters = tuple[int, ...]


class Element:
    """An element in reduced word form, tied to its GroupSpec."""

    __slots__ = ("spec", "letters")

    def __init__(self, spec: GroupSpec, letters: Letters = ()):
        self.spec = spec
        self.letters = letters

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.spec == other.spec
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def __repr__(self) -> str:
        return f"Element({word_str(self)!r})"


@dataclass(frozen=True)
class WreathForm:
    """Root a-exponent plus the p first-level sections."""

    root: int
    sections: tuple[Element, ...]


@dataclass(frozen=True)
class AbelImage:
    """Image in the abelianization: total a-exponent and B-letter sum."""

    a_exp: int
    b_sum: BVec

    @property
    def is_zero(self) -> bool:
        return self.a_exp == 0 and self.b_sum.is_zero


@dataclass(frozen=True)
class Finite:
    k: int


@dataclass(frozen=True)
class ExceedsBound:
    bound: int


# ---------------------------------------------------------------------------
# construction helpers


def identity(spec: GroupSpec) -> Element:
    return Element(spec, ())


def gen_a(spec: GroupSpec, e: int = 1) -> Element:
    e %= spec.p
    if e == 0:
        return Element(spec, ())
    return Element(spec, (-e,))


def gen_b(spec: GroupSpec, i: int) -> Element:
    if not 0 <= i < spec.m:
        raise ValueError(f"basis index {i} out of range for m = {spec.m}")
    return Element(spec, (spec.code_of([1 if j == i else 0 for j in range(spec.m)]),))


def b_letter(spec: GroupSpec, v: Union[BVec, Sequence[int]]) -> Element:
    coords = v.coords if isinstance(v, BVec) else tuple(v)
    code = spec.code_of(coords)
    if code == 0:
        return Element(spec, ())
    return Element(spec, (code,))


def basis_gens(spec: GroupSpec) -> list[Element]:
    return [gen_b(spec, i) for i in range(spec.m)]


def generating_set(spec: GroupSpec) -> list[Element]:
    """The standard generators: a followed by the B basis."""
    return [gen_a(spec)] + basis_gens(spec)


# ---------------------------------------------------------------------------
# normal-form word arithmetic


def _concat(spec: GroupSpec, left: Letters, right: Letters) -> Letters:
    out = list(left)
    j = 0
    n = len(right)
    while out and j < n:
        l1 = out[-1]
        l2 = right[j]
        if l1 < 0 and l2 < 0:
            e = ((-l1) + (-l2)) % spec.p
            out.pop()
            j += 1
            if e:
                out.append(-e)
                break
        elif l1 > 0 and l2 > 0:
            c = spec.code_add(l1, l2)
            out.pop()
            j += 1
            if c:
                out.append(c)
                break
        else:
            break
    out.extend(right[j:])
    return tuple(out)


def multiply(x: Element, y: Element) -> Element:
    if x.spec != y.spec:
        raise SpecMismatch("elements belong to different specs")
    return Element(x.spec, _concat(x.spec, x.letters, y.letters))


def invert(x: Element) -> Element:
    spec = x.spec
    out = []
    for l in reversed(x.letters):
        if l < 0:
            out.append(-((spec.p - (-l)) % spec.p))
        else:
            out.append(spec.neg_code[l])
    return Element(spec, tuple(out))


def power(x: Element, k: int) -> Element:
    if k < 0:
        return power(invert(x), -k)
    result = identity(x.spec)
    base = x
    while k:
        if k & 1:
            result = multiply(result, base)
        k >>= 1
        if k:
            base = multiply(base, base)
    return result


def conjugate(x: Element, y: Element) -> Element:
    """y^-1 x y."""
    return multiply(multiply(invert(y), x), y)


def commutator(x: Element, y: Element) -> Element:
    """x^-1 y^-1 x y."""
    return multiply(multiply(invert(x), invert(y)), multiply(x, y))


def root_exponent(x: Element) -> int:
    return sum(-l for l in x.letters if l < 0) % x.spec.p


def b_length(x: Element) -> int:
    """Number of B-letters in the stored normal form.  This counts the word
    as written; it is an upper bound for the minimal number of B-letters
    over all words representing the same element."""
    return sum(1 for l in x.letters if l > 0)


def abelianize(x: Element) -> AbelImage:
    spec = x.spec
    a_sum = 0
    b_code = 0
    for l in x.letters:
        if l < 0:
            a_sum += -l
        else:
            b_code = spec.code_add(b_code, l)
    return AbelImage(a_sum % spec.p, BVec(spec.coords_of(b_code)))


# ---------------------------------------------------------------------------
# wreath decomposition

def _wreath_letters(spec: GroupSpec, letters: Letters) -> tuple[int, tuple[Letters, ...]]:
    """Root exponent and raw section words, computed by one right-to-left
    pass.  Sections come back in normal form."""
    p = spec.p
    add = xor if p == 2 else spec.code_add
    rho_code = spec.rho_code
    omega_code = spec.omega_code
    root = 0
    # Each section is built reversed, so a letter is prepended by appending
    # it and merging it with the last one kept.
    revsecs: list[list[int]] = [[] for _ in range(p)]
    for l in reversed(letters):
        if l < 0:
            root -= l
            if root >= p:
                root -= p
            continue
        # The letter contributes a^omega(v) at the child that the current
        # suffix sends to 0 (index -root is (-root) mod p), and rho(v) at
        # the child sent to p-1.
        w = omega_code[l]
        if w:
            rs = revsecs[-root]
            if rs and rs[-1] < 0:
                w = (w - rs.pop()) % p
            if w:
                rs.append(-w)
        rs = revsecs[p - 1 - root]
        v = rho_code[l]
        if rs and rs[-1] > 0:
            v = add(rs.pop(), v)
        if v:
            rs.append(v)
    return root, tuple(tuple(reversed(rs)) for rs in revsecs)


def wreath(x: Element) -> WreathForm:
    root, secs = _wreath_letters(x.spec, x.letters)
    return WreathForm(root, tuple(Element(x.spec, s) for s in secs))


def section_at(x: Element, v: Union[str, Sequence[int]]) -> Element:
    spec = x.spec
    letters = x.letters
    for ch in _digits(spec, v):
        _, secs = _wreath_letters(spec, letters)
        letters = secs[ch]
    return Element(spec, letters)


def _digits(spec: GroupSpec, v: Union[str, Sequence[int]]) -> list[int]:
    digits = [int(ch) for ch in v] if isinstance(v, str) else [int(c) for c in v]
    for d in digits:
        if not 0 <= d < spec.p:
            raise ValueError(f"vertex digit {d} out of range for p = {spec.p}")
    return digits


def act_on_vertex(x: Element, v: Union[str, Sequence[int]]) -> Union[str, tuple[int, ...]]:
    """Image of the vertex under x (left action: the rightmost letter of
    the word acts first)."""
    spec = x.spec
    p = spec.p
    digits = _digits(spec, v)
    for l in reversed(x.letters):
        if l < 0:
            if digits:
                digits[0] = (digits[0] + (-l)) % p
        else:
            code = l
            i = 0
            while i < len(digits):
                c = digits[i]
                if c == p - 1:
                    code = spec.rho_code[code]
                    i += 1
                    continue
                if c == 0:
                    w = spec.omega_code[code]
                    if w and i + 1 < len(digits):
                        digits[i + 1] = (digits[i + 1] + w) % p
                break
    if isinstance(v, str):
        return "".join(str(d) for d in digits)
    return tuple(digits)


# ---------------------------------------------------------------------------
# word problem


def is_trivial(x: Element) -> bool:
    """Exact word-problem decision by contraction.

    A tree automorphism is trivial iff its root exponent is 0 and every
    section is trivial, so the decision recurses through the wreath
    decomposition.  Nothing is cached: contraction alone bounds it.

    At odd p the sections are freely reduced words.  Those of one level
    total at most L + 1 letters for a word of L letters, and a section of
    a word with L >= 3 letters has at most ceil((L+1)/2) letters, so the
    depth is O(log L) and the work O(L log L).

    At p = 2 the decision reads the run form v_0, ..., v_k of the word
    v_0 a v_1 a ... a v_k (B-values, 0 allowed) and reduces nothing; see
    `_trivial_runs`.  A node with k even and k >= 2 gives child 0 at most
    one `a` per even slot, so at most k/2 + 1, and child 1 at most k/2.
    At k = 2 a child with two a's is a rho(v_1) a, whose end runs are 0,
    so each of its own children has at most one `a`.  The depth is at
    most log2 k + 2; a node adds at most two runs to the level below it,
    so each level holds O(k) runs and the work is O(L log L).
    """
    spec = x.spec
    if spec.p == 2:
        return _trivial_runs(spec.omega_code, spec.rho_code, _run_form(x.letters))
    return _trivial_rec(spec, x.letters)


def _run_form(letters: Letters) -> list[int]:
    """The B-values v_0, ..., v_k of a p = 2 word v_0 a v_1 a ... a v_k.

    A reduced word alternates, so its B-letters are one slice of it, with
    a 0 run at each end that is an `a`.  Any other word (adjacent
    B-letters, `a a`, B-letters that sum to 0) takes one loop that adds
    B-letters into the current run and opens a new run at each `a`."""
    if letters:
        evens, odds = letters[0::2], letters[1::2]
        a_s, b_s = (evens, odds) if letters[0] < 0 else (odds, evens)
        if a_s.count(-1) == len(a_s) and min(b_s, default=1) > 0:
            return [0] * (letters[0] < 0) + list(b_s) + [0] * (letters[-1] < 0)
    runs, cur = [], 0
    for l in letters:
        if l < 0:
            runs.append(cur)
            cur = 0
        else:
            cur ^= l
    runs.append(cur)
    return runs


def _trivial_runs(omega: Sequence[int], rho: Sequence[int], runs: list[int]) -> bool:
    """`is_trivial` on a p = 2 run form, with the tables `omega_code` and
    `rho_code`.

    With k = len(runs) - 1 a's, k = 0 leaves the B-value v_0, trivial iff
    it is 0 (the faithfulness lemma in `GroupSpec`), and an odd k is a
    root exponent of 1.  Otherwise slot t has suffix exponent t mod 2, and
    one left-to-right pass builds both children as in `_wreath_letters`
    (a^omega to child -root, rho to child 1 - root): an even slot x sends
    a^omega(x) to child 0 and rho(x) to child 1, an odd slot y sends
    rho(y) to child 0 and a^omega(y) to child 1.  Each `a` opens a run and
    each rho-value is added into the current one.  A run that sums to 0
    stays a 0 and adds nothing one level down, so no cancellation cascades.
    """
    k = len(runs) - 1
    if not k:
        return not runs[0]
    if k & 1:
        return False
    r0, r1 = [], []
    x0 = x1 = 0
    for x, y in zip(runs[0::2], runs[1::2]):
        if omega[x]:
            r0.append(x0)
            x0 = 0
        x1 ^= rho[x]
        x0 ^= rho[y]
        if omega[y]:
            r1.append(x1)
            x1 = 0
    x = runs[-1]
    if omega[x]:
        r0.append(x0)
        x0 = 0
    r0.append(x0)
    r1.append(x1 ^ rho[x])
    return _trivial_runs(omega, rho, r0) and _trivial_runs(omega, rho, r1)


def _trivial_rec(spec: GroupSpec, letters: Letters) -> bool:
    if not letters:
        return True
    if len(letters) == 1:
        # Single letters act nontrivially: a-powers move the root level,
        # and B-letters by the faithfulness lemma in `GroupSpec`.
        return False
    root, secs = _wreath_letters(spec, letters)
    return not root and all(_trivial_rec(spec, s) for s in secs)


def equal_elements(x: Element, y: Element) -> bool:
    return is_trivial(multiply(x, invert(y)))


def order_probe(x: Element, bound: int) -> Union[Finite, ExceedsBound]:
    """Least k <= bound with x^k = 1, or ExceedsBound.

    Torsion elements here have p-power order (the groups are residually
    finite-p), so testing x, x^p, x^(p^2), ... by repeated p-th powering
    finds the exact order whenever it does not exceed the bound.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    cur = x
    k = 1
    while k <= bound:
        if is_trivial(cur):
            return Finite(k)
        cur = power(cur, x.spec.p)
        k *= x.spec.p
    return ExceedsBound(bound)


# ---------------------------------------------------------------------------
# the Theta map (p = 2)


def theta(z: Element) -> Element:
    """z -> a z_0 a z_1 for z in the derived subgroup, p = 2."""
    spec = z.spec
    if spec.p != 2:
        raise WrongCharacteristic("theta is defined for p = 2")
    if not abelianize(z).is_zero:
        raise NotInDerivedSubgroup("theta needs both abelianization components zero")
    _, secs = _wreath_letters(spec, z.letters)
    a = (-1,)
    out = _concat(spec, a, secs[0])
    out = _concat(spec, out, a)
    out = _concat(spec, out, secs[1])
    return Element(spec, out)


@dataclass(frozen=True)
class ThetaClass:
    """Syntactic classification of a theta-iterate.

    kind is one of:
        "trivial"       empty word
        "b_length_2"    a x a x or x a x a with a single repeated B-letter x
        "axa_form"      a x a (b a)^{2l} x with l >= 1, middle letters the
                        dihedral witness b
        "ba_form"       (b a)^{2l} with l >= 1
        "unstabilized"  no taxonomy form matched within the budget
    """

    kind: str
    x: Optional[BVec] = None
    l: Optional[int] = None
    iterations: int = 0
    budget_exceeded: bool = False


def _theta_match(spec: GroupSpec, letters: Letters, witness_code: Optional[int]) -> Optional[tuple[str, Optional[int], Optional[int]]]:
    if not letters:
        return ("trivial", None, None)
    n = len(letters)
    if n == 4:
        if letters[0] == -1 and letters[2] == -1 and letters[1] > 0 and letters[1] == letters[3]:
            return ("b_length_2", letters[1], 0)
        if letters[1] == -1 and letters[3] == -1 and letters[0] > 0 and letters[0] == letters[2]:
            return ("b_length_2", letters[0], 0)
    if witness_code is not None and n >= 8 and n % 4 == 0:
        # (b a)^{2l}
        if all(letters[i] == witness_code for i in range(0, n, 2)) and all(
            letters[i] == -1 for i in range(1, n, 2)
        ):
            return ("ba_form", None, n // 4)
        # a x a (b a)^{2l} x with the same x at both ends
        if (
            letters[0] == -1
            and letters[2] == -1
            and letters[1] > 0
            and letters[-1] == letters[1]
            and all(letters[i] == witness_code for i in range(3, n - 1, 2))
            and all(letters[i] == -1 for i in range(4, n - 1, 2))
        ):
            return ("axa_form", letters[1], (n - 4) // 4)
    return None


def theta_stabilize(z: Element, max_iter: int = 64) -> tuple[list[Element], ThetaClass]:
    """Iterate theta until the word matches a taxonomy form.

    The four syntactic forms are theta-stable, so the first match is final.
    Returns the list of iterates produced (not including the input) and the
    classification; budget exhaustion is reported in the classification,
    not raised.
    """
    if max_iter < 0:
        raise ValueError("the iteration budget must be >= 0")
    spec = z.spec
    if spec.p != 2:
        raise WrongCharacteristic("theta is defined for p = 2")
    if not abelianize(z).is_zero:
        raise NotInDerivedSubgroup("theta needs both abelianization components zero")
    wit = dihedral_witness(spec)
    wit_code = spec.code_of(wit.coords) if wit is not None else None
    trace: list[Element] = []
    cur = z
    for it in range(max_iter + 1):
        matched = _theta_match(spec, cur.letters, wit_code)
        if matched is not None:
            kind, xcode, l = matched
            xv = BVec(spec.coords_of(xcode)) if xcode is not None else None
            return trace, ThetaClass(kind, xv, l, iterations=it)
        if it == max_iter:
            break
        cur = theta(cur)
        trace.append(cur)
    return trace, ThetaClass("unstabilized", iterations=max_iter, budget_exceeded=True)


# ---------------------------------------------------------------------------
# the lift phi (p = 2, m >= 2)


def find_cd(spec: GroupSpec) -> tuple[BVec, BVec]:
    """Deterministic pair (c, d) with omega(c) = 1, rho(c) = d, and d in
    ker(omega) but not in rho(ker omega); then c has wreath form (a, d).

    d = e_0 and c = rho^-1(e_0).  On ker(omega) = {w : w_(m-1) = 0}, rho
    shifts the coordinates up one place, so rho(ker omega) = {w : w_0 = 0},
    and for m >= 2 the difference is {w : w_(m-1) = 0, w_0 != 0}, whose
    lexicographically least tuple is e_0.  rho(c)_0 = -c_(m-1) a_0 = 1, so
    c_(m-1) != 0: omega(c) = 1 at p = 2.
    """
    if spec.p != 2:
        raise WrongCharacteristic("find_cd is a p = 2 construction")
    if spec.m < 2:
        raise StructureError("find_cd needs m >= 2 (ker omega must be nonzero)")
    d_code = 1  # e_0
    c_code = spec.rho_inv_code[d_code]
    # Verify the wreath form (a, d) exactly.
    _, secs = _wreath_letters(spec, (c_code,))
    if secs[0] != (-1,) or secs[1] != (d_code,):
        raise StructureError("find_cd verification failed")
    return BVec(spec.coords_of(c_code)), BVec(spec.coords_of(d_code))


def phi_lift(x: Element) -> Element:
    """The letter-by-letter lift: a -> a c a, B-letter v -> rho^-1(v).

    The result stabilizes level 1 and its section at vertex 1 equals x, so
    this is a right inverse of that projection; the section at vertex 0
    lands in the subgroup generated by a and d.
    """
    spec = x.spec
    if spec.p != 2:
        raise WrongCharacteristic("phi_lift is a p = 2 construction")
    if spec.m < 2:
        raise DegenerateCase("phi_lift needs m >= 2")
    c, _ = find_cd(spec)
    c_code = spec.code_of(c.coords)
    out: Letters = ()
    for l in x.letters:
        if l < 0:
            out = _concat(spec, out, (-1, c_code, -1))
        else:
            out = _concat(spec, out, (spec.rho_inv_code[l],))
    return Element(spec, out)


# ---------------------------------------------------------------------------
# word syntax


def word_str(x: Element) -> str:
    """Render in the same syntax parse_word accepts; identity renders as 1."""
    if not x.letters:
        return "1"
    spec = x.spec
    parts = []
    for l in x.letters:
        if l < 0:
            e = -l
            parts.append("a" if e == 1 else f"a^{e}")
        else:
            coords = spec.coords_of(l)
            nonzero = [(i, c) for i, c in enumerate(coords) if c]
            if len(nonzero) == 1 and nonzero[0][1] == 1:
                parts.append(f"b{nonzero[0][0]}")
            else:
                parts.append("B<" + ",".join(str(c) for c in coords) + ">")
    return "".join(parts)


class _WordParser:
    def __init__(self, spec: GroupSpec, text: str):
        self.spec = spec
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> WordSyntaxError:
        return WordSyntaxError(f"at position {self.pos}: {msg}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        got = self.take()
        if got != ch:
            raise self.error(f"expected {ch!r}, got {got!r}")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    def parse(self) -> Element:
        word = self.sequence(stop="")
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        return word

    def sequence(self, stop: str) -> Element:
        acc = identity(self.spec)
        while True:
            ch = self.peek()
            if ch == "" or ch in stop:
                return acc
            acc = multiply(acc, self.factor())

    def factor(self) -> Element:
        x = self.atom()
        while self.peek() == "^":
            self.take()
            nxt = self.peek()
            if nxt.isdigit() or nxt in "+-":
                x = power(x, self.integer())
            else:
                x = conjugate(x, self.atom())
        return x

    def atom(self) -> Element:
        ch = self.peek()
        if ch == "(":
            self.take()
            inner = self.sequence(stop=")")
            self.expect(")")
            return inner
        if ch == "[":
            self.take()
            left = self.sequence(stop=",")
            self.expect(",")
            right = self.sequence(stop="]")
            self.expect("]")
            return commutator(left, right)
        if ch == "a":
            self.take()
            return gen_a(self.spec)
        if ch == "b":
            self.take()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise self.error("expected a basis index after b")
            idx = int(self.text[start:self.pos])
            if not 0 <= idx < self.spec.m:
                raise self.error(f"basis index {idx} out of range (m = {self.spec.m})")
            return gen_b(self.spec, idx)
        if ch == "B":
            self.take()
            self.expect("<")
            coords = [self.integer()]
            while self.peek() == ",":
                self.take()
                coords.append(self.integer())
            self.expect(">")
            if len(coords) != self.spec.m:
                raise self.error(f"expected {self.spec.m} coordinates in B<...>")
            return b_letter(self.spec, coords)
        if ch == "1":
            self.take()
            return identity(self.spec)
        raise self.error(f"unexpected character {ch!r}")


def parse_word(spec: GroupSpec, text: str) -> Element:
    """Parse the word syntax: a, b0..b{m-1}, B<v1,...,vm>, juxtaposition,
    ^k powers (k may be negative), [x,y] commutators, x^y conjugation,
    1 for the identity.  Whitespace-insensitive."""
    return _WordParser(spec, text).parse()
