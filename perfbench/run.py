"""The selfsim benchmark.

    python3 perfbench/run.py --workload levels|certify|symbolic --seed N \
        --seconds S --trace 0|1

Run from the repository root; it builds nothing (the package is pure
Python and is imported from `src`).  Workloads:

  levels    `selfsim levels` on ge up to level 10 and fg up to level 6:
            the tree pivot basis, the super-linear kernel.
  certify   `density` (ge, q = 3 and 5, levels 1..9), `verify` on every
            spec, `stab_in_derived_check` (ge, grig at n = 8) and
            `branch_pair_check` (ge, grig to n = 8, fg to n = 4): the
            Schreier-Sims chain, derived series and prefix kernels.
  symbolic  1024 `is_trivial` decisions on words of 10^3..10^5 letters,
            half trivial and half not, and 200 `z_action(g, n)` with
            |n| <= 4000, then `proper --q 101`, `schreier --radius 2000`
            and `conjugator --q 3|5 --depth 16`: elements and boundary.

Each pass of a workload runs in a fresh process (worker.py), so peak RSS
and every cache belong to that pass.  Passes repeat until their timed
phases add up to --seconds (at least one pass); wall_s and peak_rss_mb
are medians over passes.  Set-up is measured in every pass and in
SETUP_PROBES extra processes before each pass and after the last, and
setup_s is the median.  Inputs for `symbolic` come from gen.py in a
process of their own, seeded by --seed; the other workloads have fixed
inputs.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
runs one untraced and one traced pass and holds the per-layer metrics.
Every answer is checked by oracles.py; on any mismatch, or when a span
the workload must reach records no call, the result says
"correct": false and the exit code is 1.  The last stdout line is the
JSON result.  The lines before it give the machine and every metric with
its unit and sample count, including those the JSON result leaves out
because they can be 0 or exist on one workload only: error_rate, and on
`symbolic` decide_p50_ms, decide_p99_ms, line_p50_ms
and line_p95_ms (nearest-rank percentiles of per-call latency).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from tracer import ROOT  # noqa: E402

WORKLOADS = ("levels", "certify", "symbolic")
SETUP_PROBES = 3
CHILD_TIMEOUT = 170

# Spans each workload must reach; a name the program no longer defines is
# reported as absent instead of failing the run.
EXPECTED_SPANS = {
    "levels": ("cli.main", "core.parse_spec_file", "permq.level_perm", "permq.tree_pivot_basis",
               "permq.chain_from", "permq.group_chain"),
    "certify": ("cli.main", "permq.tree_pivot_basis", "permq.sift", "permq.build_chain",
                "permq.derived_chain", "permq.density_check", "permq.stab_in_derived_check",
                "permq.branch_pair_check", "analysis.identity_suite", "analysis.hq"),
    "symbolic": ("cli.main", "elements.is_trivial", "elements.multiply", "boundary.z_action",
                 "boundary.act_ray", "boundary.schreier_ball", "boundary.hq_properness_certificate",
                 "recsys.rec_level_perm", "permq.level_perm"),
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

# (metric, unit, span name, field) for span-derived per-layer metrics.
SPAN_METRICS = [
    ("permq.tree_pivot_basis.calls", "count", "permq.tree_pivot_basis", "calls"),
    ("permq.tree_pivot_basis.s", "s", "permq.tree_pivot_basis", "self_s"),
    ("permq.sift.calls", "count", "permq.sift", "calls"),
    ("permq.sift.s", "s", "permq.sift", "self_s"),
    ("permq.level_perm.calls", "count", "permq.level_perm", "calls"),
    ("permq.level_perm.s", "s", "permq.level_perm", "self_s"),
    ("permq.density_check.s", "s", "permq.density_check", "incl_s"),
    ("permq.stab_in_derived_check.s", "s", "permq.stab_in_derived_check", "incl_s"),
    ("permq.branch_pair_check.s", "s", "permq.branch_pair_check", "incl_s"),
    ("elements.is_trivial.calls", "count", "elements.is_trivial", "calls"),
    ("elements.is_trivial.s", "s", "elements.is_trivial", "self_s"),
    ("elements.multiply.calls", "count", "elements.multiply", "calls"),
    ("elements.multiply.s", "s", "elements.multiply", "self_s"),
    ("elements.section_at.calls", "count", "elements.section_at", "calls"),
    ("elements.section_at.s", "s", "elements.section_at", "self_s"),
    ("boundary.z_action.calls", "count", "boundary.z_action", "calls"),
    ("boundary.z_action.s", "s", "boundary.z_action", "self_s"),
    ("boundary.act_ray.calls", "count", "boundary.act_ray", "calls"),
    ("boundary.act_ray.s", "s", "boundary.act_ray", "self_s"),
    ("boundary.schreier_ball.s", "s", "boundary.schreier_ball", "self_s"),
    ("boundary.hq_properness_certificate.s", "s", "boundary.hq_properness_certificate", "self_s"),
    ("recsys.rec_level_perm.calls", "count", "recsys.rec_level_perm", "calls"),
    ("recsys.rec_level_perm.s", "s", "recsys.rec_level_perm", "self_s"),
    ("analysis.identity_suite.s", "s", "analysis.identity_suite", "self_s"),
    ("analysis.hq.s", "s", "analysis.hq", "self_s"),
    ("cli.main.calls", "count", "cli.main", "calls"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("core.parse_spec_file.s", "s", "core.parse_spec_file", "self_s"),
    ("bench.self_s", "s", ROOT, "self_s"),
]
# Self time of the chain constructors together.
CHAIN_SPANS = ("permq.chain_from", "permq.build_chain", "permq.derived_chain", "permq.rigid_stab_level")
# (metric, unit) read from the tracer's counters and end-of-pass gauges.
COUNTER_METRICS = [
    ("permq.basis_pivots", "count"),
    ("permq.basis_rss_rise_mb", "MB"),
    ("permq.strong_gens", "count"),
    ("permq.g_chain_cache_entries", "count"),
    ("elements.letters_decided", "count"),
    ("elements.memo_entries", "count"),
    ("boundary.zeta_cache_len", "count"),
]
PER_LAYER = (
    [(m, u) for m, u, _, _ in SPAN_METRICS]
    + [("permq.chain.s", "s")]
    + COUNTER_METRICS
    + [("trace.overhead_s", "s")]
)


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + str(HERE) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _child(root: Path, argv: list[str], stdin: str | None = None) -> dict:
    """Run one benchmark child and parse the JSON on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=root,
        env=_child_env(root),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pass(root: Path, workload: str, inputs_text: str | None, trace: bool) -> dict:
    argv = [str(HERE / "worker.py"), "--workload", workload] + (["--trace"] if trace else [])
    return _child(root, argv, inputs_text)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    sample at or below it."""
    s = sorted(values)
    rank = max(1, -(-len(s) * q // 100))
    return s[int(rank) - 1]


def machine(root: Path, seed: int, numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": _git_rev(root),
        "seed": seed,
    }


def _git_rev(root: Path) -> str:
    """HEAD from .git without calling git; 'unknown' outside a checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = root / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def per_layer(traced: dict, untraced_wall: float) -> dict:
    spans = traced["spans"]

    def field(span: str, key: str) -> float:
        return spans.get(span, {}).get(key, 0)

    out = {m: field(span, key) for m, _, span, key in SPAN_METRICS}
    out["permq.chain.s"] = sum(field(s, "self_s") for s in CHAIN_SPANS)
    for m, _ in COUNTER_METRICS:
        out[m] = traced["counters"].get(m, 0)
    out["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    return out


def coverage(workload: str, traced: dict) -> tuple[list[str], list[str]]:
    """(expected spans with zero calls, expected spans the program lacks)."""
    installed = set(traced["installed"])
    spans = traced["spans"]
    missing = [s for s in EXPECTED_SPANS[workload]
               if s in installed and spans.get(s, {}).get("calls", 0) == 0]
    absent = [s for s in EXPECTED_SPANS[workload] if s not in installed]
    return missing, absent


def _setup_probes(root: Path, workload: str) -> list[float]:
    argv = [str(HERE / "worker.py"), "--workload", workload, "--setup-only"]
    return [_child(root, argv)["setup_s"] for _ in range(SETUP_PROBES)]


def _generate(root: Path, seed: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--seed", str(seed)],
        cwd=root, env=_child_env(root), capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def end_to_end(workload: str, passes: list[dict], setup: list[float], checked: int,
               failures: int) -> tuple[dict, list[tuple]]:
    """The BENCHMARK.json metrics, and report rows (name, value, unit,
    samples) that add error_rate and, on symbolic, the latency percentiles."""
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), len(passes)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), len(passes)),
    }
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
    rows = [(name, values[name][0], unit, values[name][1]) for name, unit in END_TO_END]
    rows.append(("error_rate", failures / max(1, checked), "ratio", checked))
    if workload == "symbolic":
        decide = [x for p in passes for x in p["timings"]["decide_ms"]]
        line = [x for p in passes for x in p["timings"]["line_ms"]]
        rows += [
            ("decide_p50_ms", percentile(decide, 50), "ms", len(decide)),
            ("decide_p99_ms", percentile(decide, 99), "ms", len(decide)),
            ("line_p50_ms", percentile(line, 50), "ms", len(line)),
            ("line_p95_ms", percentile(line, 95), "ms", len(line)),
        ]
    return metrics, rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="selfsim benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "selfsim" / "__init__.py").is_file() or not (root / "specs").is_dir():
        print(f"error: no selfsim source tree (src/selfsim, specs/) under {root}", file=sys.stderr)
        return 2

    inputs_text = _generate(root, args.seed) if args.workload == "symbolic" else None
    inputs = json.loads(inputs_text) if inputs_text else None

    passes: list[dict] = []
    setup: list[float] = []
    traced = None
    if args.trace:
        passes.append(_pass(root, args.workload, inputs_text, trace=False))
        traced = _pass(root, args.workload, inputs_text, trace=True)
    else:
        # Set-up probes before every pass and after the last, so that their
        # median spans the whole run rather than one moment of it.
        while not passes or sum(p["wall_s"] for p in passes) < args.seconds:
            setup += _setup_probes(root, args.workload)
            passes.append(_pass(root, args.workload, inputs_text, trace=False))
        setup += _setup_probes(root, args.workload)
        setup += [p["setup_s"] for p in passes]

    failures: list[str] = []
    attempted = 0
    for res in passes + ([traced] if traced else []):
        ck = oracles.check(args.workload, res, inputs)
        attempted += ck.attempted
        failures += ck.failures

    info = machine(root, args.seed, passes[0]["numpy"])
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    if traced is not None:
        missing, absent = coverage(args.workload, traced)
        attempted += len(EXPECTED_SPANS[args.workload])
        failures += [f"trace: span {s} recorded no call on {args.workload}" for s in missing]
        for s in absent:
            print(f"trace note: {s} is not defined by the program")
        values = per_layer(traced, passes[0]["wall_s"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        rows = [(name, values[name], unit, 1) for name, unit in PER_LAYER]
    else:
        metrics, rows = end_to_end(args.workload, passes, setup, attempted, len(failures))
    for name, value, unit, samples in rows:
        print(f"metric workload={args.workload} name={name} value={value} unit={unit} samples={samples}")
    for f in failures[:50]:
        print(f"FAIL {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
