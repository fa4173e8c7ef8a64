"""Independent checks of every answer a pass gives.

None of these calls the code it checks.  Level orders are compared with
closed forms; the closed forms are compared with a brute-force closure at
n <= 3 (worker.closure_orders, built from `act_on_vertex`, not permq).
Word decisions are compared with the labels gen.py certified, and
`z_action` with the integer affine action.

Each check returns (attempted, failures), where failures is a list of
one-line descriptions.
"""

from __future__ import annotations

import re

# log_p |G_n| for n = 1, 2, ...
def log_order(spec: str, n: int) -> int:
    if spec in ("ge", "grig"):
        return (1, 3)[n - 1] if n <= 2 else 5 * 2 ** (n - 3) + 2
    if spec == "fg":
        return 1 if n == 1 else 3 ** (n - 1) + 1
    if spec == "dihedral":
        return 1 if n == 1 else n + 1
    raise KeyError(spec)


PRIME = {"ge": 2, "grig": 2, "fg": 3, "dihedral": 2}


def closure_size(perms) -> int:
    """Number of elements in the group the permutations (tuples) generate."""
    if not perms:
        return 1
    start = tuple(range(len(perms[0])))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in perms:
                y = tuple(g[i] for i in x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _records(text: str) -> list[dict]:
    out = []
    for line in text.splitlines():
        fields = dict(kv.split("=", 1) for kv in line.split() if "=" in kv)
        if fields:
            out.append(fields)
    return out


def _spec_of(argv: list[str]) -> str:
    return re.sub(r"^specs/(\w+)\.spec$", r"\1", argv[1])


def check_levels(answers: dict, closure: dict, ck: Checker) -> None:
    for job in answers["cli"]:
        spec = _spec_of(job["argv"])
        top = int(job["argv"][3])
        ck.check(job["code"] == 0, f"levels {spec}: exit {job['code']}")
        got = {int(r["n"]): int(r["order"]) for r in _records(job["stdout"]) if "order" in r}
        for n in range(1, top + 1):
            want = PRIME[spec] ** log_order(spec, n)
            ck.check(got.get(n) == want, f"levels {spec} n={n}: {got.get(n)} != {want}")
    for key, size in closure.items():
        spec, n = key.split(".")
        want = PRIME[spec] ** log_order(spec, int(n))
        ck.check(size == want, f"closure {key}: brute force {size} != closed form {want}")


def check_certify(answers: dict, ck: Checker) -> None:
    for job in answers["cli"]:
        spec = _spec_of(job["argv"])
        recs = _records(job["stdout"])
        ck.check(job["code"] == 0, f"{job['argv'][0]} {spec}: exit {job['code']}")
        if job["argv"][0] == "density":
            q = job["argv"][3]
            top = int(job["argv"][5])
            dense = {int(r["n"]): r.get("dense") for r in recs}
            for n in range(1, top + 1):
                ck.check(dense.get(n) == "true", f"density {spec} q={q} n={n}: {dense.get(n)}")
            continue
        # verify: no failures; skips in the congruence and branching suites
        # exactly on the degenerate dihedral spec.
        suites = {r["suite"] for r in recs if "suite" in r}
        ck.check({"identity", "congruence", "branching"} <= suites, f"verify {spec}: suites {sorted(suites)}")
        for r in recs:
            if "status" not in r:
                continue
            what = f"verify {spec} {r['suite']}/{r['item']}: {r['status']}"
            if r["suite"] in ("congruence", "branching"):
                want = "skip" if spec == "dihedral" else "pass"
                ck.check(r["status"] == want, what)
            else:
                ck.check(r["status"] in ("pass", "skip"), what)
    for rep in answers["stab"]:
        spec, n = rep["spec"], rep["n"]
        p = PRIME[spec]
        for e in rep["entries"]:
            ell = e["stab_level"]
            tag = f"stab_in_derived {spec} n={n} st{ell}"
            ck.check(e["contained"] is True, f"{tag}: not contained")
            kernel = p ** (log_order(spec, n) - log_order(spec, ell))
            ck.check(int(e["stabilizer_order"]) == kernel, f"{tag}: kernel order {e['stabilizer_order']} != {kernel}")
            if e["derivation"] == 1 and p == 2:
                # |G_n : G_n'| = 8 for n >= 3: the abelianization is
                # <a> x B = C_2 x C_2^2 on ge and grig.
                derived = p ** (log_order(spec, n) - 3)
                ck.check(int(e["derived_order"]) == derived, f"{tag}: derived order {e['derived_order']} != {derived}")
    for b in answers["branch"]:
        ck.check(b["ok"] is True, f"branch_pair {b['spec']} n={b['n']}: {b['ok']}")


def check_symbolic(answers: dict, inputs: dict, ck: Checker) -> None:
    for q, got in zip(inputs["decide"], answers["decide"]):
        ck.check(got is q["trivial"], f"is_trivial {q['spec']} len={len(q['word'])}: {got} != {q['trivial']}")
    for q, got in zip(inputs["line"], answers["line"]):
        ck.check(got == q["expect"], f"z_action n={q['n']} g={q['g']}: {got} != {q['expect']}")
    for job in answers["cli"]:
        cmd = job["argv"][0]
        recs = _records(job["stdout"])
        ck.check(job["code"] == 0, f"{cmd}: exit {job['code']}")
        if cmd == "proper":
            status = [r["status"] for r in recs if "status" in r]
            ck.check(status == ["PASS"], f"proper: status {status}")
        elif cmd == "schreier":
            # The orbit of 1^oo is a line on which a: n -> 1 - n and
            # b: n -> -n; the ball of radius r is a path on r + 1 vertices
            # with one loop (b fixes 0).
            r = int(job["argv"][3])
            head = {k: int(v) for rec in recs[:2] for k, v in rec.items() if k in ("vertices", "edges")}
            ck.check(head == {"vertices": r + 1, "edges": r + 1}, f"schreier r={r}: {head}")
        elif cmd == "conjugator":
            flags = [v for rec in recs for k, v in rec.items() if k in ("pair_to_rooted",) or k.startswith("fixes_b")]
            ck.check(bool(flags) and all(v == "true" for v in flags), f"conjugator {job['argv'][3]}: {flags}")


def check(workload: str, result: dict, inputs: dict | None) -> Checker:
    ck = Checker()
    answers = result["answers"]
    if workload == "levels":
        check_levels(answers, result["closure"], ck)
    elif workload == "certify":
        check_certify(answers, ck)
    else:
        check_symbolic(answers, inputs, ck)
    return ck
