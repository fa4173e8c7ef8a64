import re
import time
from pathlib import Path

import pytest

from selfsim import gen_a, gen_b, group_chain, make_spec
from selfsim.cli import main

SPECS = Path(__file__).resolve().parent.parent / "specs"
GE = str(SPECS / "ge.spec")
GRIG = str(SPECS / "grig.spec")
FG = str(SPECS / "fg.spec")
DIH = str(SPECS / "dihedral.spec")

RECORD_PAT = re.compile(
    r"^suite=\w+ item=\S+ status=(pass|fail|skip|info|inconclusive) witness=\S+$"
)


def test_classify_output(capsys):
    assert main(["classify", GE]) == 0
    assert capsys.readouterr().out == (
        "p=2 m=2 f_coeffs=1,0\n"
        "degenerate=false\n"
        "faithful=true\n"
        "torsion=false\n"
        "dihedral_witness=1,1\n"
        "x_plus_1_divides=true\n"
        "finite_index_maximals=7\n"
    )
    assert main(["classify", GRIG]) == 0
    out = capsys.readouterr().out
    assert "torsion=true\n" in out
    assert "dihedral_witness=none\n" in out
    assert main(["classify", DIH]) == 0
    out = capsys.readouterr().out
    assert "degenerate=true\n" in out
    assert "finite_index_maximals=excluded\n" in out


def test_eval_with_vertex(capsys):
    assert main(["eval", GE, "ab1", "--vertex", "00"]) == 0
    assert capsys.readouterr().out == (
        "normal_form=ab1\n"
        "root_exponent=1\n"
        "directed_letters=1\n"
        "trivial=false\n"
        "vertex_image=11\n"
    )


def test_equal_exit_codes(capsys):
    assert main(["equal", GE, "(ab0)^4", "1"]) == 0
    assert capsys.readouterr().out == "equal=true\n"
    assert main(["equal", GE, "a", "b0"]) == 1
    assert capsys.readouterr().out == "equal=false\n"


def test_order(capsys):
    assert main(["order", GRIG, "ab1"]) == 0
    assert capsys.readouterr().out == "order=16\n"
    assert main(["order", GE, "aB<1,1>", "--bound", "64"]) == 0
    assert capsys.readouterr().out == "order=exceeds_64\n"


def test_levels(capsys):
    assert main(["levels", GE, "--max", "3"]) == 0
    assert capsys.readouterr().out == "n=1 order=2\nn=2 order=8\nn=3 order=128\n"


def test_levels_builds_one_basis(tmp_path, capsys, monkeypatch):
    import selfsim.permq

    build = selfsim.permq.tree_pivot_basis
    levels = []

    def spy(gen_arrays, p, n, conj_arrays=None, depth_rows=None):
        levels.append(n)
        return build(gen_arrays, p, n, conj_arrays, depth_rows=depth_rows)

    monkeypatch.setattr(selfsim.permq, "tree_pivot_basis", spy)
    assert main(["levels", GE, "--max", "8"]) == 0
    capsys.readouterr()
    # one basis at m + 2 for the order bound, one at --max
    assert levels == [4, 8]
    monkeypatch.undo()
    # the orders read off one basis equal those of one basis per level
    cases = [
        ((2, (1, 1)), 6), ((2, (1, 0)), 6), ((2, (1, 0, 0)), 6), ((2, (1, 1, 0)), 6),
        ((2, (1, 0, 0, 0)), 6), ((3, (2,)), 4), ((3, (1, 1)), 4), ((3, (2, 0)), 4),
        ((5, (1, 1)), 3), ((2, (1,)), 10),
    ]
    for (p, coeffs), top in cases:
        path = tmp_path / "s.spec"
        path.write_text(f"p = {p}\nf = {', '.join(map(str, coeffs))}\n")
        assert main(["levels", str(path), "--max", str(top)]) == 0
        spec = make_spec(p, coeffs)
        want = "".join(f"n={n} order={group_chain(spec, n).order}\n" for n in range(1, top + 1))
        assert capsys.readouterr().out == want, (p, coeffs)


def test_density(capsys):
    # level m + 1 decides every level, so the cap itself costs little;
    # the first ten lines are the level-n comparison's, byte for byte
    for q in (3, 5):
        assert main(["density", GE, "--q", str(q), "--max", "10"]) == 0
        assert capsys.readouterr().out == "".join(f"n={n} dense=true\n" for n in range(1, 11))
    start = time.perf_counter()
    assert main(["density", GE, "--q", "3", "--max", "20"]) == 0
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr().out == "".join(f"n={n} dense=true\n" for n in range(1, 21))


def test_proper(capsys):
    assert main(["proper", GE, "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("status=PASS\n")
    assert "witness=z_action(ab,0)=1 not in 3Z" in out
    assert main(["proper", GE, "--q", "1"]) == 1
    assert "status=NOT_PROPER_H1" in capsys.readouterr().out
    # no witness pair, so the certificate cannot even be assembled
    assert main(["proper", GRIG, "--q", "3"]) == 1
    err = capsys.readouterr().err
    assert "NoDihedralWitness" in err


def test_schreier_dot_stable(tmp_path, capsys):
    out1 = tmp_path / "ball1.dot"
    out2 = tmp_path / "ball2.dot"
    assert main(["schreier", GE, "--radius", "2", "--dot", str(out1)]) == 0
    assert capsys.readouterr().out == "vertices=3\nedges=3\n"
    assert main(["schreier", GE, "--radius", "2", "--dot", str(out2)]) == 0
    capsys.readouterr()
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert data.decode().startswith("graph schreier {\n")
    assert 'n0 [label="(1)"]' in data.decode()


def test_conjugator(capsys):
    assert main(["conjugator", GE, "--q", "3", "--depth", "8"]) == 0
    assert capsys.readouterr().out == (
        "pair_to_rooted=true\nfixes_b0=true\nfixes_b1=true\n"
    )
    assert main(["conjugator", GRIG, "--q", "3"]) == 1


def test_theta(capsys):
    assert main(["theta", GE, "(ab1)^2"]) == 0
    assert capsys.readouterr().out == "kind=b_length_2\nx=0,1\nl=0\niterations=0\n"
    # nonzero abelianization is a domain error, reported as a failure
    assert main(["theta", GE, "a"]) == 1
    assert "NotInDerivedSubgroup" in capsys.readouterr().err


def test_proper_fails_without_a_witness(capsys, monkeypatch):
    # a certificate built on b0, which is no witness on ge, must fail
    import selfsim.boundary

    monkeypatch.setattr(
        selfsim.boundary, "witness_pair", lambda spec: (gen_a(spec), gen_b(spec, 0))
    )
    assert main(["proper", GE, "--q", "3"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("status=FAIL\n")
    assert "check=witness_negates ok=false\n" in out


def test_maximals(capsys):
    assert main(["maximals", FG]) == 0
    out = capsys.readouterr().out
    # one functional per hyperplane, its first nonzero entry 1
    assert out == (
        "count=4\n"
        "functional=0,1 index=3\n"
        "functional=1,0 index=3\n"
        "functional=1,1 index=3\n"
        "functional=1,2 index=3\n"
    )


def test_maximal_count_records_name_the_hypothesis(tmp_path, capsys):
    # the count rests on the paper's result; stdout stays as it was
    rec = tmp_path / "r.txt"
    assert main(["maximals", FG, "--records", str(rec)]) == 0
    assert capsys.readouterr().out.startswith("count=4\n")
    hyp = "hypothesis=every_finite_index_maximal_is_normal_of_index_p"
    assert rec.read_text() == f"suite=maximals item=count status=info witness=4_{hyp}\n"
    assert main(["classify", GE, "--records", str(rec)]) == 0
    assert "finite_index_maximals=7\n" in capsys.readouterr().out
    assert f"item=maximals status=info witness=7_{hyp}\n" in rec.read_text()
    assert main(["classify", DIH, "--records", str(rec)]) == 0
    capsys.readouterr()
    assert "item=maximals status=info witness=excluded\n" in rec.read_text()


def test_reduce(capsys):
    assert main(["reduce", GE, "aB<1,1>", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("success=true\n")
    assert main(["reduce", GE, "(aB<1,1>)^3", "--q", "3"]) == 1
    assert capsys.readouterr().out.startswith("status=inconclusive")


def test_verify_all_specs(capsys):
    for path in (GE, GRIG, FG, DIH):
        assert main(["verify", path]) == 0, path
        out = capsys.readouterr().out
        assert "status=fail" not in out
    assert main(["verify", DIH]) == 0
    out = capsys.readouterr().out
    assert "suite=congruence item=all status=skip witness=degenerate" in out
    assert "suite=branching item=all status=skip witness=degenerate" in out


def test_verify_congruence_lines(capsys, monkeypatch):
    # the first inclusion is proved at level m + 1, so p = 2 checks nothing
    # at a level; the second derived subgroup (odd p) is still checked at
    # level m + 4
    import selfsim.cli

    check = selfsim.cli.stab_in_derived_check
    levels = []

    def spy(spec, n):
        levels.append(n)
        return check(spec, n)

    monkeypatch.setattr(selfsim.cli, "stab_in_derived_check", spy)
    want = {
        GE: ["suite=congruence item=st3_in_derived1 status=pass witness=proved_n3"],
        GRIG: ["suite=congruence item=st3_in_derived1 status=pass witness=proved_n3"],
        FG: [
            "suite=congruence item=st2_in_derived1 status=pass witness=proved_n2",
            "suite=congruence item=st4_in_derived2 status=pass witness=n5",
        ],
    }
    for path, lines in want.items():
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("suite=congruence")] == lines
    assert levels == [5]


def test_records_schema_and_stability(tmp_path, capsys):
    rec1 = tmp_path / "r1.txt"
    rec2 = tmp_path / "r2.txt"
    assert main(["verify", GE, "--records", str(rec1)]) == 0
    assert main(["verify", GE, "--records", str(rec2)]) == 0
    capsys.readouterr()
    assert rec1.read_bytes() == rec2.read_bytes()
    lines = rec1.read_text().splitlines()
    assert lines
    for line in lines:
        assert RECORD_PAT.match(line), line
    # spaces in witnesses are sanitized
    rec3 = tmp_path / "r3.txt"
    assert main(["proper", GE, "--q", "3", "--records", str(rec3)]) == 0
    capsys.readouterr()
    for line in rec3.read_text().splitlines():
        assert RECORD_PAT.match(line), line


def test_error_exit_codes(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "missing.spec")]) == 2
    assert "error" in capsys.readouterr().err
    bad = tmp_path / "bad.spec"
    bad.write_text("p = x\nf = 1\n")
    assert main(["classify", str(bad)]) == 2
    capsys.readouterr()
    repeated = tmp_path / "repeated.spec"
    repeated.write_text("p = 2\nf = 1,0\np = 3\nf = 2\n")
    assert main(["classify", str(repeated)]) == 2
    assert "line 3: repeated key 'p'" in capsys.readouterr().err
    assert main(["eval", GE, "zz"]) == 2
    assert "position" in capsys.readouterr().err
    # semantic domain failures are certificate failures, not parse errors
    notprime = tmp_path / "notprime.spec"
    notprime.write_text("p = 4\nf = 1\n")
    assert main(["classify", str(notprime)]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["no-such-command", GE])
    capsys.readouterr()
    # argument values out of range are malformed input too
    for argv in (
        ["density", GE, "--q", "-1", "--max", "3"],
        ["schreier", GE, "--radius", "-1"],
        ["conjugator", GE, "--q", "1"],
        ["reduce", GE, "--q", "1", "ab1"],
        ["eval", GE, "ab0", "--vertex", "5"],
        ["order", GE, "ab0", "--bound", "0"],
        # nothing to check would read as a pass
        ["levels", GE, "--max", "-3"],
        ["levels", GE, "--max", "0"],
        ["density", GE, "--q", "3", "--max", "0"],
        ["conjugator", GE, "--q", "3", "--depth", "-1"],
        ["conjugator", GE, "--q", "3", "--depth", "0"],
        ["proper", GE, "--q", "-3"],
        # a negative budget would read as exhausted, or go unchecked
        ["theta", GE, "ab0ab0", "--iters", "-3"],
        ["reduce", GE, "--q", "3", "ab1", "--max-steps", "-2"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_levels_over_cap_refused_up_front(capsys):
    # 2^21 exceeds the enumeration cap: refused before level 1 is built
    for argv in (
        ["levels", GE, "--max", "21"],
        ["density", GE, "--q", "3", "--max", "21"],
        ["conjugator", GE, "--q", "3", "--depth", "21"],
    ):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and "LevelTooLarge" in err, argv


def test_large_p_levels_and_verify(tmp_path, capsys):
    # labels of p = 32771 need more than int16; verify refuses the level
    # of its second congruence check with a typed error rather than hang
    path = tmp_path / "big.spec"
    path.write_text("p = 32771\nf = 1\n")
    assert main(["levels", str(path), "--max", "1"]) == 0
    assert capsys.readouterr().out == "n=1 order=32771\n"
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert "suite=identity item=directed_sections status=pass" in captured.out
    assert captured.err.startswith("error: LevelTooLarge: ")
