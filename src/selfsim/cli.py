"""Command-line front end.

Subcommands take a spec file (`p = ...` / `f = ...` lines) plus flags, and
print deterministic human-readable output; `--records PATH` additionally
writes line-delimited `key=value` machine records with the fixed schema
suite, item, status, witness.  Exit codes: 0 success, 1 failed assertion
or certificate, 2 malformed input (parse errors and argument values out of
range).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .core import GroupSpec, parse_spec_file
from .errors import (
    ScreenInconclusive,
    SelfsimError,
    SpecFileError,
    WordSyntaxError,
)
from .elements import (
    ExceedsBound,
    act_on_vertex,
    b_length,
    b_letter,
    basis_gens,
    equal_elements,
    is_trivial,
    multiply,
    order_probe,
    parse_word,
    root_exponent,
    theta_stabilize,
    word_str,
)
from .boundary import (
    all_ones,
    dot_export,
    hq_properness_certificate,
    schreier_ball,
)
from .permq import (
    SubgroupDesc,
    branch_pair_check,
    check_level_cap,
    density_check,
    group_chain,
    stab_in_derived_check,
)
from .recsys import build_conjugator, conjugation_disagreement_level
from .analysis import (
    MAXIMALS_HYPOTHESIS,
    classify,
    count_finite_index_maximals,
    hq,
    identity_suite,
    reduction_trace,
    suite_records,
)


class _Records:
    def __init__(self, path: Optional[str]):
        self.path = path
        self.lines: list[str] = []

    def add(self, suite: str, item: str, status: str, witness: str) -> None:
        witness = witness.replace(" ", "_") or "-"
        self.lines.append(f"suite={suite} item={item} status={status} witness={witness}")

    def extend(self, lines: list[str]) -> None:
        self.lines.extend(lines)

    def flush(self) -> None:
        if self.path:
            with open(self.path, "w") as fh:
                for line in self.lines:
                    fh.write(line + "\n")


def _load_spec(path: str) -> GroupSpec:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    return parse_spec_file(text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="selfsim")
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name: str, **kwargs) -> argparse.ArgumentParser:
        par = sub.add_parser(name, **kwargs)
        par.add_argument("specfile")
        par.add_argument("--records", default=None, metavar="PATH")
        return par

    cmd("classify", help="group-level classification report")

    p = cmd("eval", help="normal form and vertex action of a word")
    p.add_argument("word")
    p.add_argument("--vertex", default=None)

    p = cmd("equal", help="decide equality of two words")
    p.add_argument("word1")
    p.add_argument("word2")

    p = cmd("order", help="probe the order of a word")
    p.add_argument("word")
    p.add_argument("--bound", type=int, default=2**12)

    p = cmd("levels", help="orders of the level quotients")
    p.add_argument("--max", type=int, required=True, dest="max_level")

    p = cmd("density", help="level-image density of the line subgroup H(q)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max", type=int, required=True, dest="max_level")

    p = cmd("proper", help="properness certificate for H(q)")
    p.add_argument("--q", type=int, required=True)

    p = cmd("schreier", help="orbit ball of the all-ones ray")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--dot", default=None, metavar="PATH")

    p = cmd("conjugator", help="verify the conjugator recursion to a depth")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--depth", type=int, default=12)

    p = cmd("theta", help="classify a derived-subgroup word by theta iteration")
    p.add_argument("word")
    p.add_argument("--iters", type=int, default=64)

    cmd("maximals", help="finite-index maximal subgroup count and functionals")

    cmd("verify", help="identity, congruence, and branching suites")

    p = cmd("reduce", help="screened descent to syntactic length at most 3")
    p.add_argument("word")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=64, dest="max_steps")

    return top


def _check_max_level(spec: GroupSpec, max_level: int) -> None:
    """Refuse a --max that would check nothing or exceed the cap."""
    if max_level < 1:
        raise ValueError("--max must be >= 1")
    check_level_cap(spec.p, max_level)


def _run(args, rec: _Records) -> int:
    spec = _load_spec(args.specfile)
    cmd = args.command

    if cmd == "classify":
        rep = classify(spec)
        print(f"p={rep.p} m={rep.m} f_coeffs={','.join(map(str, rep.coeffs))}")
        print(f"degenerate={str(rep.degenerate).lower()}")
        print(f"faithful={str(rep.faithful).lower()}")
        print(f"torsion={str(rep.torsion).lower()}")
        wit = "none" if rep.witness is None else ",".join(map(str, rep.witness))
        print(f"dihedral_witness={wit}")
        print(f"x_plus_1_divides={str(rep.divisible).lower()}")
        maxi = "excluded" if rep.maximal_count is None else str(rep.maximal_count)
        print(f"finite_index_maximals={maxi}")
        rec.add("classify", "torsion", "info", str(rep.torsion).lower())
        rec.add("classify", "witness", "info", wit)
        rec.add("classify", "maximals", "info",
                maxi if rep.maximal_count is None else f"{maxi} {MAXIMALS_HYPOTHESIS}")
        return 0

    if cmd == "eval":
        x = parse_word(spec, args.word)
        print(f"normal_form={word_str(x)}")
        print(f"root_exponent={root_exponent(x)}")
        print(f"directed_letters={b_length(x)}")
        print(f"trivial={str(is_trivial(x)).lower()}")
        if args.vertex is not None:
            img = act_on_vertex(x, args.vertex)
            print(f"vertex_image={img}")
            rec.add("eval", f"vertex_{args.vertex}", "info", str(img))
        return 0

    if cmd == "equal":
        x = parse_word(spec, args.word1)
        y = parse_word(spec, args.word2)
        same = equal_elements(x, y)
        print(f"equal={str(same).lower()}")
        rec.add("equal", "words", "pass" if same else "fail", word_str(x))
        return 0 if same else 1

    if cmd == "order":
        x = parse_word(spec, args.word)
        res = order_probe(x, args.bound)
        if isinstance(res, ExceedsBound):
            print(f"order=exceeds_{res.bound}")
            rec.add("order", word_str(x), "info", f"exceeds_{res.bound}")
        else:
            print(f"order={res.k}")
            rec.add("order", word_str(x), "info", str(res.k))
        return 0

    if cmd == "levels":
        _check_max_level(spec, args.max_level)
        chain = group_chain(spec, args.max_level)
        for n in range(1, args.max_level + 1):
            order = chain.order // chain.stabilizer(n).order
            print(f"n={n} order={order}")
            rec.add("levels", f"n{n}", "info", str(order))
        return 0

    if cmd == "density":
        _check_max_level(spec, args.max_level)
        desc = hq(spec, args.q)
        H = SubgroupDesc(f"H{args.q}", list(desc.generators))
        all_dense = True
        for n in range(1, args.max_level + 1):
            dense = density_check(spec, H, n)
            all_dense &= dense
            print(f"n={n} dense={str(dense).lower()}")
            rec.add("density", f"q{args.q}_n{n}", "pass" if dense else "fail", "")
        return 0 if all_dense else 1

    if cmd == "proper":
        rep = hq_properness_certificate(spec, args.q)
        print(f"status={rep.status}")
        for chk in rep.checks:
            print(f"check={chk.name} ok={str(chk.passed).lower()}")
            rec.add("proper", chk.name, "pass" if chk.passed else "fail", chk.detail)
        print(f"witness={rep.witness}")
        rec.add("proper", f"q{args.q}", "pass" if rep.status == "PASS" else "fail", rep.witness)
        return 0 if rep.status == "PASS" else 1

    if cmd == "schreier":
        ball = schreier_ball(spec, all_ones(spec), args.radius)
        print(f"vertices={len(ball.vertices)}")
        print(f"edges={len(ball.edges)}")
        rec.add("schreier", f"radius{args.radius}", "info", f"{len(ball.vertices)}_vertices")
        dot = dot_export(ball)
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(dot)
        else:
            print(dot)
        return 0

    if cmd == "conjugator":
        r = build_conjugator(spec, args.q)
        desc = hq(spec, args.q)
        a_el = parse_word(spec, "a")
        x = multiply(desc.generators[0], b_letter(spec, desc.witness))
        bad = conjugation_disagreement_level(r, x, a_el, args.depth)
        ok = bad is None
        print(f"pair_to_rooted={str(ok).lower()}")
        rec.add("conjugator", "pair_to_rooted", "pass" if ok else "fail",
                "" if ok else f"level{bad}")
        all_ok = ok
        for i, x in enumerate(basis_gens(spec)):
            bad = conjugation_disagreement_level(r, x, x, args.depth)
            ok = bad is None
            all_ok &= ok
            print(f"fixes_b{i}={str(ok).lower()}")
            rec.add("conjugator", f"fixes_b{i}", "pass" if ok else "fail",
                    "" if ok else f"level{bad}")
        return 0 if all_ok else 1

    if cmd == "theta":
        z = parse_word(spec, args.word)
        trace, cls = theta_stabilize(z, args.iters)
        print(f"kind={cls.kind}")
        if cls.x is not None:
            print(f"x={','.join(map(str, cls.x.coords))}")
        if cls.l is not None:
            print(f"l={cls.l}")
        print(f"iterations={cls.iterations}")
        status = "fail" if cls.budget_exceeded else "pass"
        rec.add("theta", word_str(z), status, cls.kind)
        return 1 if cls.budget_exceeded else 0

    if cmd == "maximals":
        mc = count_finite_index_maximals(spec)
        print(f"count={mc.count}")
        for desc in mc.descriptors:
            print(f"functional={','.join(map(str, desc.functional))} index={desc.index}")
        rec.add("maximals", "count", "info", f"{mc.count} {MAXIMALS_HYPOTHESIS}")
        return 0

    if cmd == "verify":
        return _verify(spec, rec)

    if cmd == "reduce":
        g = parse_word(spec, args.word)
        try:
            trace = reduction_trace(spec, args.q, g, args.max_steps)
        except ScreenInconclusive as exc:
            print(f"status=inconclusive reason={str(exc).replace(' ', '_')}")
            rec.add("reduce", word_str(g), "inconclusive", str(exc).replace(" ", "_"))
            return 1
        for step in trace.steps:
            acts = "+".join(step.actions) if step.actions else "terminal"
            print(f"depth={step.depth} lambda_hat={step.lambda_hat} actions={acts}")
        print(f"success={str(trace.success).lower()}")
        rec.add("reduce", word_str(g), "pass" if trace.success else "fail",
                f"lambda{trace.final.lambda_hat}")
        return 0 if trace.success else 1

    raise AssertionError(f"unhandled command {cmd!r}")


def _verify(spec: GroupSpec, rec: _Records) -> int:
    failed = False

    suite = identity_suite(spec)
    lines = suite_records("identity", suite)
    rec.extend(lines)
    for line in lines:
        print(line)
    failed |= not suite.passed

    if spec.is_degenerate:
        for name in ("congruence", "branching"):
            print(f"suite={name} item=all status=skip witness=degenerate")
            rec.add(name, "all", "skip", "degenerate")
    else:
        # St_G(m+1) <= G' is proved; odd p checks St_G(m+3) <= G'' at level m + 4
        checks = [(spec.m + 1, 1, True, f"proved_n{spec.m + 1}")]
        if spec.p > 2:
            entry = stab_in_derived_check(spec, spec.m + 4).entries[1]
            checks.append((entry.stab_level, 2, entry.contained, f"n{spec.m + 4}"))
        for ell, depth, contained, witness in checks:
            status = "pass" if contained else "fail"
            item = f"st{ell}_in_derived{depth}"
            print(f"suite=congruence item={item} status={status} witness={witness}")
            rec.add("congruence", item, status, witness)
            failed |= not contained
        n_branch = 4 if spec.p == 2 else (3 if spec.p == 3 else 2)
        ok = branch_pair_check(spec, n_branch)
        status = "pass" if ok else "fail"
        print(f"suite=branching item=embeds status={status} witness=n{n_branch}")
        rec.add("branching", "embeds", status, f"n{n_branch}")
        failed |= not ok

    return 1 if failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    rec = _Records(getattr(args, "records", None))
    try:
        code = _run(args, rec)
    except (WordSyntaxError, SpecFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SelfsimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        rec.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
