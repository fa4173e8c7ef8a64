"""Seeded inputs for the `symbolic` workload.

Run as its own process (`python3 perfbench/gen.py --seed N`, from the
repository root with `src` on the path); it prints one JSON object.  The
timed process receives the words only as data, so generating and
certifying them warms none of the caches it measures.

Word problems (`decide`):
  * trivial words: products of random conjugates of relators.  The
    relators are (ad)^4 and (adacac)^4 with (c, d) from `find_cd`, and
    their images under `phi_lift` iterated up to LIFTS times.  For the
    Grigorchuk group (`grig`) `phi_lift` is Lysenok's substitution
    a -> aca, b -> d, c -> b, d -> c (checked below letter by letter), so
    these are Lysenok's defining relators.  For `ge` each relator is
    certified here: its level-RELATOR_LEVEL image is the identity and
    `is_trivial` accepts it.
  * nontrivial words: u^(p^k) for a short random word u whose level-N
    image has order greater than p^k, which proves u^(p^k) != 1.
  Lengths run from 10^3 to 10^5 letters: 90% log-uniform on [10^3, 10^4]
  and 10% on [10^4, 10^5], so the p99 latency falls among the longest
  words.  Each length comes from its own stratum, so the total work varies
  little from seed to seed; the seed picks the content.

Boundary line (`line`): g is a random word in a and the dihedral witness
b of `ge`, n is stratified-uniform in [-4000, 4000], and the expected
value is the affine action on Z (a: n -> 1 - n, b: n -> -n), computed
here without the library.

Words travel as strings, one character per letter: chr(64 + l), where
a negative l is a power of the rooted cycle and a positive l a B-letter
code (see `selfsim.elements`).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from array import array
from pathlib import Path

N_TRIVIAL = 512
N_NONTRIVIAL = 512
N_LINE = 200
LONG_SHARE = 0.1
LIFTS = 6
RELATOR_LEVEL = 12
LINE_RANGE = 4000
LINE_WORD_MAX = 20
SPECS = ("ge", "grig", "fg", "dihedral")

# Largest k tried for u^(p^k): element orders seen at level 15 (p = 2) or
# 10 (p = 3) are mostly 2^3..2^4 on grig, up to 2^14 on ge, 3^8..3^10 on fg.
MAX_K = {"grig": 3, "ge": 10, "fg": 8}

_DECODE = bytes((i - 64) & 0xFF for i in range(256))
_ENCODE = bytes((i + 64) & 0xFF for i in range(256))


def encode(letters) -> str:
    return array("b", letters).tobytes().translate(_ENCODE).decode("ascii")


def decode(text: str) -> tuple[int, ...]:
    return tuple(array("b", text.encode("ascii").translate(_DECODE)))


def affine_action(letters, n: int) -> int:
    """a: n -> 1 - n, b: n -> -n; the rightmost letter acts first."""
    for l in reversed(letters):
        n = 1 - n if l < 0 else -n
    return n


def stratified_lengths(rng: random.Random, count: int) -> list[int]:
    """One length per stratum of a log-scale distribution: a share
    1 - LONG_SHARE log-uniform on [10^3, 10^4], the rest on [10^4, 10^5]."""
    out = []
    for i in range(count):
        u = (i + rng.random()) / count
        if u < 1 - LONG_SHARE:
            e = 3 + u / (1 - LONG_SHARE)
        else:
            e = 4 + (u - (1 - LONG_SHARE)) / LONG_SHARE
        out.append(int(10**e))
    rng.shuffle(out)
    return out


class _Gen:
    def __init__(self, root: Path, rng: random.Random):
        import numpy as np
        import selfsim

        self.np = np
        self.ss = selfsim
        self.rng = rng
        self.specs = {
            name: selfsim.parse_spec_file((root / "specs" / f"{name}.spec").read_text())
            for name in SPECS
        }
        self._gen_perms: dict = {}

    # -- words --------------------------------------------------------------

    def random_word(self, spec, length: int):
        """Alternating a-powers and B-letters, starting with a and ending
        with a B-letter when the length is even, so powers do not reduce."""
        rng = self.rng
        letters = tuple(
            -rng.randrange(1, spec.p) if i % 2 == 0 else rng.randrange(1, spec.pm)
            for i in range(length)
        )
        return self.ss.Element(spec, letters)

    def product(self, parts):
        """Balanced product, so the cost is O(L log L) rather than O(L^2)."""
        ss = self.ss
        while len(parts) > 1:
            parts = [
                ss.multiply(parts[i], parts[i + 1]) if i + 1 < len(parts) else parts[i]
                for i in range(0, len(parts), 2)
            ]
        return parts[0]

    # -- level images, composed from the generators' images --------------------

    def perm(self, x, n: int):
        """Level-n image of x as an index array: the image of a word uv is
        that of u composed after that of v."""
        spec = x.spec
        key = (spec.p, spec.coeffs, n)
        gens = self._gen_perms.get(key)
        if gens is None:
            gens = {}
            for e in range(1, spec.p):
                gens[-e] = self.ss.level_perm(self.ss.Element(spec, (-e,)), n).images
            for code in range(1, spec.pm):
                gens[code] = self.ss.level_perm(self.ss.Element(spec, (code,)), n).images
            self._gen_perms[key] = gens
        out = self.np.arange(spec.p**n, dtype=self.np.int64)
        for l in reversed(x.letters):
            out = gens[l][out]
        return out

    def order_exceeds(self, img, p: int, k: int) -> bool:
        q = img
        for _ in range(k):
            r = q
            for _ in range(p - 1):
                r = q[r]
            q = r
        return not self.np.array_equal(q, self.np.arange(len(q)))

    # -- relators -----------------------------------------------------------

    def relators(self, name: str):
        ss = self.ss
        spec = self.specs[name]
        c, d = ss.find_cd(spec)
        a = ss.gen_a(spec)
        C = ss.b_letter(spec, c)
        D = ss.b_letter(spec, d)
        aD = ss.multiply(a, D)
        aC = ss.multiply(a, C)
        bases = [ss.power(aD, 4), ss.power(self.product([aD, aC, aC]), 4)]
        if name == "grig":
            self._check_lysenok(spec, C, D)
        out = []
        for r in bases:
            for _ in range(LIFTS + 1):
                if name != "grig":
                    img = self.perm(r, RELATOR_LEVEL)
                    if not self.np.array_equal(img, self.np.arange(len(img))):
                        raise RuntimeError(f"{name}: relator acts nontrivially")
                    if not ss.is_trivial(r):
                        raise RuntimeError(f"{name}: relator rejected by is_trivial")
                out.append(r)
                r = ss.phi_lift(r)
        return out

    def _check_lysenok(self, spec, C, D) -> None:
        """phi_lift must be a -> aca, b -> d, c -> b, d -> c, where
        b = (a, c), c = (a, d), d = (1, b) in wreath form."""
        ss = self.ss
        c, d = C.letters[0], D.letters[0]
        b = spec.code_add(c, d)
        a = -1
        want = {a: (a, c, a), b: (d,), c: (b,), d: (c,)}
        for letter, image in want.items():
            got = ss.phi_lift(ss.Element(spec, (letter,))).letters
            if got != image:
                raise RuntimeError("phi_lift is not Lysenok's substitution on grig")
        if ss.wreath(ss.Element(spec, (d,))).sections[1].letters != (b,):
            raise RuntimeError("grig letters do not match b = (a, c), c = (a, d), d = (1, b)")

    def trivial_word(self, name: str, rels, length: int):
        ss = self.ss
        spec = self.specs[name]
        rng = self.rng
        parts = []
        total = 0
        while total < length:
            r = rng.choice(rels)
            if rng.random() < 0.5:
                r = ss.invert(r)
            g = self.random_word(spec, rng.randint(1, 30))
            piece = ss.multiply(ss.multiply(g, r), ss.invert(g))
            parts.append(piece)
            total += len(piece.letters)
        return self.product(parts)

    def nontrivial_word(self, name: str, length: int):
        ss = self.ss
        spec = self.specs[name]
        p = spec.p
        cap = 15 if p == 2 else 10
        rng = self.rng
        k = max(1, min(MAX_K[name], round(math.log(length / 8, p))))
        k = rng.randint(1, k)
        while k >= 1:
            level = min(cap, k + 4)
            ell = max(2, length // p**k)
            ell += ell % 2
            for _ in range(30):
                u = self.random_word(spec, ell)
                if self.order_exceeds(self.perm(u, level), p, k):
                    return ss.power(u, p**k), {"level": level, "k": k, "u_len": ell}
            k -= 1
        raise RuntimeError(f"{name}: no certified nontrivial word of length {length}")

    def self_check(self) -> None:
        """The composed level images agree with level_perm."""
        for spec in (self.specs["ge"], self.specs["fg"]):
            x = self.random_word(spec, 12)
            if not self.np.array_equal(self.perm(x, 4), self.ss.level_perm(x, 4).images):
                raise RuntimeError("composed level image disagrees with level_perm")


def generate(root: Path, seed: int) -> dict:
    rng = random.Random(seed)
    g = _Gen(root, rng)
    g.self_check()
    rels = {name: g.relators(name) for name in ("grig", "ge")}
    decide = []
    for i, length in enumerate(stratified_lengths(rng, N_TRIVIAL)):
        name = ("grig", "ge")[i % 2]
        w = g.trivial_word(name, rels[name], length)
        cert = "lysenok" if name == "grig" else f"relators_level{RELATOR_LEVEL}"
        decide.append({"spec": name, "word": encode(w.letters), "trivial": True, "cert": cert})
    for i, length in enumerate(stratified_lengths(rng, N_NONTRIVIAL)):
        name = ("grig", "ge", "fg")[i % 3]
        w, cert = g.nontrivial_word(name, length)
        decide.append({"spec": name, "word": encode(w.letters), "trivial": False, "cert": cert})

    ge = g.specs["ge"]
    wit = g.ss.dihedral_witness(ge)
    b_code = ge.code_of(wit.coords)
    line = []
    for i in range(N_LINE):
        n = round(-LINE_RANGE + 2 * LINE_RANGE * (i + rng.random()) / N_LINE)
        length = rng.randint(1, LINE_WORD_MAX)
        first = rng.randrange(2)
        letters = tuple(-1 if (j + first) % 2 == 0 else b_code for j in range(length))
        line.append({"g": encode(letters), "n": n, "expect": affine_action(letters, n)})

    queries = [["decide", i] for i in range(len(decide))] + [["line", i] for i in range(len(line))]
    rng.shuffle(queries)
    return {"seed": seed, "decide": decide, "line": line, "queries": queries}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    json.dump(generate(Path("."), args.seed), sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
