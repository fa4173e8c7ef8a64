"""Layer benchmark for the word problem: `is_trivial` on seeded words.

    python3 tools/bench_word_problem.py [--seed N] [--label NAME]
        [--src DIR] [--out PATH]

Run from the repository root.  The words are built with the library
itself, so a given seed gives the same words for any version of it:

  trivial      on ge and grig: products of conjugates of relators.  The
               relators are (ad)^4 and (adacac)^4 with (c, d) from
               `find_cd`, and their images under `phi_lift` iterated up to
               LIFTS times.  Each relator must act trivially on level
               RELATOR_LEVEL.
  nontrivial   on ge, grig and fg: u^(p^k) for a random word u whose
               level image has order greater than p^k, which proves
               u^(p^k) != 1.

Each (spec, trivial) class is timed as the sum of its `is_trivial` calls;
wall_s is the median over REPEAT passes.  Every answer is checked
against the class.  The counters are deterministic: words, letters, and
recursion nodes, counted by the script's own walk over `wreath` (a node
is a word the decision looks at: it stops at a nonzero root exponent and
at the first nontrivial section).  peak_rss_mb is the process's peak RSS,
and git_rev the commit of --src, with "-dirty" for uncommitted changes.

The result goes under runs[--label] in --out (default
BENCH_word_problem.json), next to the runs already there; runs with the
same seed must have the same counters.  To compare two versions, run the
script once per version, pointing --src at each version's `src`.
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import benchio

WORDS_PER_CLASS = 64
MIN_LEN, MAX_LEN = 1_000, 100_000
LIFTS = 5
RELATOR_LEVEL = 10
REPEAT = 3
CLASSES = (("ge", True), ("grig", True), ("ge", False), ("grig", False), ("fg", False))
# largest k tried for u^(p^k), by the element orders seen on each spec
MAX_K = {"grig": 3, "ge": 10, "fg": 8}


def lengths(rng: random.Random) -> list[int]:
    """One length per stratum, log-uniform on [MIN_LEN, MAX_LEN]."""
    lo, hi = math.log(MIN_LEN), math.log(MAX_LEN)
    out = [
        int(math.exp(lo + (hi - lo) * (i + rng.random()) / WORDS_PER_CLASS))
        for i in range(WORDS_PER_CLASS)
    ]
    rng.shuffle(out)
    return out


class Words:
    def __init__(self, ss, specs: dict, rng: random.Random):
        self.ss, self.specs, self.rng = ss, specs, rng

    def random_word(self, spec, length: int):
        """Alternating a-powers and B-letters, so nothing reduces."""
        rng = self.rng
        return self.ss.Element(spec, tuple(
            -rng.randrange(1, spec.p) if i % 2 == 0 else rng.randrange(1, spec.pm)
            for i in range(length)
        ))

    def product(self, parts):
        """Balanced product: O(L log L) rather than O(L^2)."""
        while len(parts) > 1:
            parts = [
                self.ss.multiply(parts[i], parts[i + 1]) if i + 1 < len(parts) else parts[i]
                for i in range(0, len(parts), 2)
            ]
        return parts[0]

    def relators(self, spec):
        ss = self.ss
        c, d = ss.find_cd(spec)
        a = ss.gen_a(spec)
        aC = ss.multiply(a, ss.b_letter(spec, c))
        aD = ss.multiply(a, ss.b_letter(spec, d))
        out = []
        for r in (ss.power(aD, 4), ss.power(self.product([aD, aC, aC]), 4)):
            for _ in range(LIFTS + 1):
                if not ss.level_perm(r, RELATOR_LEVEL).is_identity:
                    raise RuntimeError(f"{spec}: relator acts nontrivially")
                out.append(r)
                r = ss.phi_lift(r)
        return out

    def trivial(self, spec, rels, length: int):
        ss, rng = self.ss, self.rng
        parts, total = [], 0
        while total < length:
            r = rng.choice(rels)
            if rng.random() < 0.5:
                r = ss.invert(r)
            g = self.random_word(spec, rng.randint(1, 30))
            piece = ss.conjugate(r, g)
            parts.append(piece)
            total += len(piece.letters)
        return self.product(parts)

    def nontrivial(self, name: str, length: int):
        ss, rng = self.ss, self.rng
        spec = self.specs[name]
        p = spec.p
        top = max(1, min(MAX_K[name], round(math.log(length / 8, p))))
        for k in range(top, 0, -1):
            level = min(15 if p == 2 else 9, k + 4)
            ell = max(2, length // p**k)
            ell += ell % 2
            for _ in range(30):
                u = self.random_word(spec, ell)
                if order_exceeds(ss.level_perm(u, level).images, p, k):
                    return ss.power(u, p**k)
        raise RuntimeError(f"{name}: no certified nontrivial word of length {length}")


def order_exceeds(img, p: int, k: int) -> bool:
    """Whether the permutation (an index array) has order above p^k."""
    q = img
    for _ in range(k):
        r = q
        for _ in range(p - 1):
            r = q[r]
        q = r
    return bool((q != np.arange(len(q))).any())


def walk(ss, x) -> tuple[bool, int]:
    """The decision "root exponent 0 and every section trivial", taken by
    hand through `wreath`, and the number of words it looked at."""
    if len(x.letters) <= 1:
        return not x.letters, 1
    w = ss.wreath(x)
    nodes = 1
    if w.root:
        return False, nodes
    for s in w.sections:
        ok, k = walk(ss, s)
        nodes += k
        if not ok:
            return False, nodes
    return True, nodes


def build(ss, root: Path, seed: int) -> dict:
    rng = random.Random(seed)
    specs = {
        name: ss.parse_spec_file((root / "specs" / f"{name}.spec").read_text())
        for name in ("ge", "grig", "fg")
    }
    words = Words(ss, specs, rng)
    rels = {name: words.relators(specs[name]) for name in ("ge", "grig")}
    out = {}
    for name, trivial in CLASSES:
        spec = specs[name]
        out[name, trivial] = [
            words.trivial(spec, rels[name], n) if trivial else words.nontrivial(name, n)
            for n in lengths(rng)
        ]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--label", default="change")
    ap.add_argument("--src", type=Path, default=Path("src"))
    ap.add_argument("--out", type=Path, default=Path("BENCH_word_problem.json"))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import selfsim as ss

    t0 = time.perf_counter()
    by_class = build(ss, Path("."), args.seed)
    build_s = time.perf_counter() - t0
    classes = []
    for (name, trivial), xs in by_class.items():
        nodes = 0
        for x in xs:
            ok, k = walk(ss, x)
            if ok is not trivial:
                raise RuntimeError(f"{name}: the walk decides {ok} for a {trivial} word")
            nodes += k
        runs = []
        for _ in range(REPEAT):
            total = 0.0
            for x in xs:
                t = time.perf_counter()
                got = ss.is_trivial(x)
                total += time.perf_counter() - t
                if got is not trivial:
                    raise RuntimeError(f"{name}: is_trivial gave {got} for a {trivial} word")
            runs.append(round(total, 4))
        classes.append({
            "spec": name,
            "trivial": trivial,
            "words": len(xs),
            "letters": sum(len(x.letters) for x in xs),
            "nodes": nodes,
            "wall_s": statistics.median(runs),
            "wall_s_runs": runs,
        })
    run = {
        "git_rev": benchio.git_rev(args.src),
        "seed": args.seed,
        "repeat": REPEAT,
        "build_s": round(build_s, 3),
        "wall_s": round(sum(c["wall_s"] for c in classes), 4),
        "peak_rss_mb": benchio.peak_rss_mb(),
        "machine": benchio.machine(),
        "classes": classes,
    }
    keys = ("spec", "trivial", "words", "letters", "nodes")
    benchio.write_run(
        args.out, "word_problem", args.label, run,
        lambda r: [{k: c[k] for k in keys} for c in r["classes"]] if r["seed"] == args.seed else None,
    )
    for c in classes:
        print(f"{c['spec']:5} trivial={c['trivial']!s:5} words={c['words']} "
              f"letters={c['letters']} nodes={c['nodes']} wall_s={c['wall_s']}")
    print(f"total wall_s={run['wall_s']} peak_rss_mb={run['peak_rss_mb']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
