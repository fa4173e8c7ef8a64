"""Layer benchmark for the tree pivot basis: the whole-group level quotient
G_n, built with and without the per-depth row bounds that stop it.

    python3 tools/bench_levels.py [--label NAME] [--src DIR] [--out PATH]

Run from the repository root.  For ge and grig at levels 8-10 and fg at
levels 4-6 the script evaluates the generators on level n once, then
times

  drained_s   `tree_pivot_basis(gens, p, n)`, which drains its queue;
  bound_s     `depth_row_bounds(spec, n)`, one basis of G_(m+2);
  stopped_s   `tree_pivot_basis(gens, p, n, depth_rows=bounds)`, which
              drops the work that falls in full depths and returns once
              every depth has its bound of rows.

`group_chain` costs the evaluation plus bound_s plus stopped_s.  Each
time is the median over REPEAT passes.  The two bases must have the same
keys and labels.  The counters are deterministic: rows, the bound (the
sum of the per-depth bounds), and the `_PackedVectors.act` calls of each
build, counted by the script's own wrapper in one extra pass each (the
timed passes run unwrapped).
peak_rss_mb is the process's peak RSS, and git_rev the commit of --src,
with "-dirty" for uncommitted changes.

The result goes under runs[--label] in --out (default BENCH_levels.json),
next to the runs already there; every run must report the same rows.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import benchio

REPEAT = 3
CASES = [(name, n) for name in ("ge", "grig") for n in (8, 9, 10)] + [("fg", n) for n in (4, 5, 6)]


def timed(fn):
    """fn's result and the median of REPEAT wall times."""
    runs = []
    for _ in range(REPEAT):
        t = time.perf_counter()
        out = fn()
        runs.append(time.perf_counter() - t)
    return out, round(statistics.median(runs), 4)


def counted_acts(permq, fn) -> int:
    """The `_PackedVectors.act` calls fn makes."""
    act = permq._PackedVectors.act
    calls = 0

    def counting(self, action, x):
        nonlocal calls
        calls += 1
        return act(self, action, x)

    permq._PackedVectors.act = counting
    try:
        fn()
    finally:
        permq._PackedVectors.act = act
    return calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="change")
    ap.add_argument("--src", type=Path, default=Path("src"))
    ap.add_argument("--out", type=Path, default=Path("BENCH_levels.json"))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import selfsim as ss
    from selfsim import permq

    specs = {
        name: ss.parse_spec_file(Path("specs", f"{name}.spec").read_text())
        for name in sorted({name for name, _ in CASES})
    }
    cases = []
    for name, n in CASES:
        spec = specs[name]
        p = spec.p
        gens = [ss.level_perm(g, n).images for g in ss.generating_set(spec)]
        drained, drained_s = timed(lambda: permq.tree_pivot_basis(gens, p, n))
        bounds, bound_s = timed(lambda: permq.depth_row_bounds(spec, n))
        stopped, stopped_s = timed(lambda: permq.tree_pivot_basis(gens, p, n, depth_rows=bounds))
        if not (np.array_equal(stopped.keys, drained.keys)
                and np.array_equal(stopped.labels, drained.labels)):
            raise RuntimeError(f"{name} {n}: the stopped basis differs from the drained one")
        cases.append({
            "spec": name,
            "n": n,
            "rows": len(drained.keys),
            "bound": sum(bounds),
            "drained_acts": counted_acts(permq, lambda: permq.tree_pivot_basis(gens, p, n)),
            "stopped_acts": counted_acts(
                permq, lambda: permq.tree_pivot_basis(gens, p, n, depth_rows=bounds)
            ),
            "drained_s": drained_s,
            "bound_s": bound_s,
            "stopped_s": stopped_s,
        })
        c = cases[-1]
        print(f"{name:4} n={n:2} rows={c['rows']} bound={c['bound']} acts={c['drained_acts']}"
              f"->{c['stopped_acts']} drained_s={drained_s} bound_s={bound_s} stopped_s={stopped_s}")
    run = {
        "git_rev": benchio.git_rev(args.src),
        "repeat": REPEAT,
        "drained_s": round(sum(c["drained_s"] for c in cases), 4),
        "stopped_s": round(sum(c["bound_s"] + c["stopped_s"] for c in cases), 4),
        "peak_rss_mb": benchio.peak_rss_mb(),
        "machine": benchio.machine(),
        "cases": cases,
    }
    benchio.write_run(
        args.out, "levels", args.label, run,
        lambda r: [(c["spec"], c["n"], c["rows"]) for c in r["cases"]],
    )
    print(f"total drained_s={run['drained_s']} stopped_s={run['stopped_s']} "
          f"peak_rss_mb={run['peak_rss_mb']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
