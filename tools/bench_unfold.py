"""Layer benchmark for the section unfold behind `level_perm` and
`rec_level_perm`.

    python3 tools/bench_unfold.py [--label NAME] [--src DIR] [--out PATH]

Run from the repository root.  The cases are

  ge (ab)^50b   the word (a b)^50 b on ge, b = b_(1,1), 99 letters once
                the last two b cancel, at levels 16 and 20;
  ge random     a seeded 10,000-letter word on ge (a's and nonzero
                B-letters alternate, so nothing reduces), at levels 16
                and 20;
  conj q        `rec_level_perm` of `build_conjugator(ge, q)` for q = 3
                and 5 at depth 16.

Per case wall_s is the median over REPEAT untraced passes, and peak_mb
the tracemalloc peak of one more pass; result_bytes is the size of the
image array.  The counters are deterministic: the number of distinct
states at each depth, from the script's own walk over the `children`
function that the library hands to `_unfold`, and the sha1 of the
images.  peak_rss_mb is the process's peak RSS, and git_rev the commit
of --src, with "-dirty" for uncommitted changes.

The result goes under runs[--label] in --out (default BENCH_unfold.json),
next to the runs already there; every run must report the same counters.
To compare two versions, run the script once per version, pointing --src
at each version's `src`.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import benchio

REPEAT = 5
SEED = 1
RANDOM_LETTERS = 10_000


def timed(fn) -> float:
    """The median of REPEAT wall times of fn."""
    runs = []
    for _ in range(REPEAT):
        t = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t)
    return round(statistics.median(runs), 4)


def traced_peak(fn):
    """fn's result and the tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, round(peak / 1e6, 2)


def states_per_depth(modules, fn) -> list[int]:
    """The distinct states at each depth 0..n of the one `_unfold` call
    that fn makes, walked here over the `children` it is given."""
    unfold = modules[0]._unfold
    calls = []

    def capture(p, n, start, children):
        calls.append((n, start, children))
        return unfold(p, n, start, children)

    for mod in modules:
        mod._unfold = capture
    try:
        fn()
    finally:
        for mod in modules:
            mod._unfold = unfold
    (n, start, children), = calls
    states, counts = [start], [1]
    for _ in range(n):
        states = list(dict.fromkeys(child for s in states for _, child in children(s)))
        counts.append(len(states))
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="change")
    ap.add_argument("--src", type=Path, default=Path("src"))
    ap.add_argument("--out", type=Path, default=Path("BENCH_unfold.json"))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import selfsim as ss
    from selfsim import permq, recsys

    ge = ss.parse_spec_file(Path("specs", "ge.spec").read_text())
    a, b = ss.gen_a(ge), ss.b_letter(ge, (1, 1))
    rng = random.Random(SEED)
    long_word = ss.Element(ge, tuple(
        -1 if i % 2 == 0 else rng.randrange(1, ge.pm) for i in range(RANDOM_LETTERS)
    ))
    words = {
        "ge (ab)^50b": ss.multiply(ss.power(ss.multiply(a, b), 50), b),
        "ge random": long_word,
    }
    jobs = [
        (name, len(x.letters), n, lambda x=x, n=n: ss.level_perm(x, n))
        for name, x in words.items()
        for n in (16, 20)
    ]
    jobs += [
        (f"conj q={q}", 0, 16, lambda r=ss.build_conjugator(ge, q): ss.rec_level_perm(r, 16))
        for q in (3, 5)
    ]
    cases = []
    for name, letters, n, build in jobs:
        perm, peak_mb = traced_peak(build)
        cases.append({
            "case": name,
            "letters": letters,
            "n": n,
            "states": states_per_depth((permq, recsys), build),
            "sha1": hashlib.sha1(perm.images.tobytes()).hexdigest(),
            "result_bytes": perm.images.nbytes,
            "peak_mb": peak_mb,
            "wall_s": timed(build),
        })
        c = cases[-1]
        print(f"{name:12} n={n} states={sum(c['states'])} result_mb={c['result_bytes'] / 1e6:.1f} "
              f"peak_mb={peak_mb} wall_s={c['wall_s']}")
    run = {
        "git_rev": benchio.git_rev(args.src),
        "repeat": REPEAT,
        "wall_s": round(sum(c["wall_s"] for c in cases), 4),
        "peak_rss_mb": benchio.peak_rss_mb(),
        "machine": benchio.machine(),
        "cases": cases,
    }
    keys = ("case", "letters", "n", "states", "sha1", "result_bytes")
    benchio.write_run(
        args.out, "unfold", args.label, run,
        lambda r: [{k: c[k] for k in keys} for c in r["cases"]],
    )
    print(f"total wall_s={run['wall_s']} peak_rss_mb={run['peak_rss_mb']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
