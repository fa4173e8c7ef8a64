"""One pass of one workload, in a process of its own.

    python3 perfbench/worker.py --workload levels|certify|symbolic [--trace] [--setup-only]

Run from the repository root with `src` on the path.  The symbolic
workload reads its inputs (see gen.py) as JSON on stdin.  The last line
of stdout is a JSON object with the timings, the answers for the oracles
and, with --trace, the folded spans.

Set-up is `import selfsim` plus parsing and building the four specs.  The
timed phase runs the workload's queries closed-loop, one after another in
this single thread; CLI commands go through `selfsim.cli.main` in-process
with stdout captured, so they cost what `selfsim <command>` costs a user.
Every check of the answers happens after the timed phase.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import sys
import time

from gen import decode

T_START = time.perf_counter()

import selfsim  # noqa: E402  (the import is part of the measured set-up)
import selfsim.cli  # noqa: E402

SPECS = ("ge", "grig", "fg", "dihedral")


def _load_specs() -> dict:
    out = {}
    for name in SPECS:
        with open(f"specs/{name}.spec") as fh:
            out[name] = selfsim.core.parse_spec_file(fh.read())
    return out


def _cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = selfsim.cli.main(argv)
    return {"argv": argv, "code": code, "stdout": buf.getvalue()}


# -- workloads ----------------------------------------------------------------

LEVELS_JOBS = [
    ["levels", "specs/ge.spec", "--max", "10"],
    ["levels", "specs/fg.spec", "--max", "6"],
]

CERTIFY_CLI = [
    ["density", "specs/ge.spec", "--q", "3", "--max", "9"],
    ["density", "specs/ge.spec", "--q", "5", "--max", "9"],
] + [["verify", f"specs/{name}.spec"] for name in SPECS]
CERTIFY_STAB = [("ge", 8), ("grig", 8)]
CERTIFY_BRANCH = [("ge", 8), ("grig", 8), ("fg", 4)]

SYMBOLIC_CLI = [
    ["proper", "specs/ge.spec", "--q", "101"],
    ["schreier", "specs/ge.spec", "--radius", "2000"],
    ["conjugator", "specs/ge.spec", "--q", "3", "--depth", "16"],
    ["conjugator", "specs/ge.spec", "--q", "5", "--depth", "16"],
]


def run_levels(specs, inputs, timings) -> dict:
    return {"cli": [_cli(argv) for argv in LEVELS_JOBS]}


def run_certify(specs, inputs, timings) -> dict:
    permq = selfsim.permq
    out = {"cli": [_cli(argv) for argv in CERTIFY_CLI], "stab": [], "branch": []}
    for name, n in CERTIFY_STAB:
        rep = permq.stab_in_derived_check(specs[name], n)
        out["stab"].append({
            "spec": name,
            "n": n,
            "entries": [
                {
                    "stab_level": e.stab_level,
                    "derivation": e.derivation,
                    "stabilizer_order": str(e.stabilizer_order),
                    "derived_order": str(e.derived_order),
                    "contained": e.contained,
                }
                for e in rep.entries
            ],
        })
    for name, top in CERTIFY_BRANCH:
        for n in range(1, top + 1):
            out["branch"].append({"spec": name, "n": n, "ok": permq.branch_pair_check(specs[name], n)})
    return out


def run_symbolic(specs, inputs, timings) -> dict:
    elements = selfsim.elements
    boundary = selfsim.boundary
    clock = time.perf_counter
    Element = elements.Element
    decide_in, line_in = inputs["decide"], inputs["line"]
    decided: list = [None] * len(decide_in)
    lines: list = [None] * len(line_in)
    lat_decide = timings["decide_ms"]
    lat_line = timings["line_ms"]
    for kind, i in inputs["queries"]:
        if kind == "decide":
            q = decide_in[i]
            x = Element(specs[q["spec"]], decode(q["word"]))
            t = clock()
            try:
                decided[i] = elements.is_trivial(x)
            except Exception as exc:  # counted as a failed answer
                decided[i] = f"raised {type(exc).__name__}"
            lat_decide.append((clock() - t) * 1e3)
        else:
            q = line_in[i]
            g = Element(specs["ge"], decode(q["g"]))
            t = clock()
            try:
                lines[i] = boundary.z_action(g, q["n"])
            except Exception as exc:  # counted as a failed answer
                lines[i] = f"raised {type(exc).__name__}"
            lat_line.append((clock() - t) * 1e3)
    return {"decide": decided, "line": lines, "cli": [_cli(argv) for argv in SYMBOLIC_CLI]}


WORKLOADS = {"levels": run_levels, "certify": run_certify, "symbolic": run_symbolic}


# -- oracle data that needs the library, computed after the timed phase ----------

def closure_orders(specs) -> dict:
    """Brute-force orders of G_n for n <= 3 on ge and fg, from vertex
    images by `act_on_vertex` (not from permq)."""
    from oracles import closure_size

    elements = selfsim.elements
    out = {}
    for name in ("ge", "fg"):
        spec = specs[name]
        gens = [elements.Element(spec, (-1,))] + [
            elements.Element(spec, (code,)) for code in range(1, spec.pm)
        ]
        for n in range(1, 4):
            verts = list(itertools.product(range(spec.p), repeat=n))
            index = {v: i for i, v in enumerate(verts)}
            perms = [tuple(index[elements.act_on_vertex(g, v)] for v in verts) for g in gens]
            out[f"{name}.{n}"] = closure_size(perms)
    return out


def gauges(specs, tracer) -> dict:
    """Cache sizes at the end of the pass, over every spec the pass built."""
    seen = {id(s): s for s in list(specs.values()) + tracer.specs}
    memo = sum(len(getattr(s, "_trivial_memo", ())) for s in seen.values())
    zeta = sum(
        len(getattr(s, "_zeta_pos", ())) + len(getattr(s, "_zeta_neg", ())) for s in seen.values()
    )
    return {
        "elements.memo_entries": memo,
        "boundary.zeta_cache_len": zeta,
        "permq.g_chain_cache_entries": len(getattr(selfsim.permq, "_g_chain_cache", ())),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    specs = _load_specs()
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s, "numpy": getattr(sys.modules.get("numpy"), "__version__", "unknown")}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    inputs = json.load(sys.stdin) if args.workload == "symbolic" else None
    tracer = None
    if args.trace:
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install(selfsim)
    timings = {"decide_ms": [], "line_ms": []}
    root = tracer.open(ROOT) if tracer else None
    t0 = time.perf_counter()
    answers = WORKLOADS[args.workload](specs, inputs, timings)
    wall_s = time.perf_counter() - t0
    if tracer:
        tracer.close(root)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result.update(wall_s=wall_s, peak_rss_mb=peak, answers=answers, timings=timings)
    if tracer:
        result["spans"] = tracer.fold()
        result["counters"] = {**tracer.counters, **gauges(specs, tracer)}
        result["installed"] = sorted(tracer.installed)
    if args.workload == "levels":
        result["closure"] = closure_orders(specs)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
