import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from brute_force import (
    _compose,
    assert_cyclic_blocks,
    basis_leaves,
    closure_elements,
    closure_order,
    reference_density_check,
    reference_derived_chain,
    reference_leaf_labels,
    reference_level_perm,
    reference_pivot_basis,
    reference_stab_in_derived_check,
)
from selfsim import (
    Element,
    LevelPerm,
    SubgroupDesc,
    act_on_vertex,
    b_letter,
    branch_pair_check,
    chain_from,
    density_check,
    derived_chain,
    gen_a,
    gen_b,
    generating_set,
    group_chain,
    hq,
    identity,
    invert,
    level_perm,
    make_spec,
    multiply,
    parse_word,
    power,
    stab_in_derived_check,
)
from selfsim import permq
from selfsim.permq import (
    _PackedVectors,
    _depth_start,
    _labels_to_leaf,
    _leaf_to_labels,
    _verts_from_labels,
    branch_group_desc,
    group_desc,
    invert_perm,
    depth_row_bounds,
    tree_pivot_basis,
)
from selfsim.errors import (
    DegenerateCase,
    LevelMismatch,
    LevelTooLarge,
    NoDihedralWitness,
    StructureError,
)


def random_word(spec, rng, length):
    gens = generating_set(spec)
    x = identity(spec)
    for _ in range(length):
        x = multiply(x, rng.choice(gens))
    return x


def brute_elements(spec, n):
    return closure_elements(level_perm(g, n).images for g in generating_set(spec))


def random_tree_perm(rng, p, n, support=1.0, top=0):
    """Uniform element of the n-fold wreath power of Z/p, built from a
    random child shift at every vertex (independently of permq); with
    support < 1 each vertex keeps shift 0 with probability 1 - support,
    and every vertex above depth `top` keeps shift 0, so the element
    fixes level `top`."""
    shift = {}
    images = []
    for leaf in range(p**n):
        digits = [(leaf // p ** (n - 1 - d)) % p for d in range(n)]
        img = 0
        for d in range(n):
            prefix = tuple(digits[:d])
            if prefix not in shift:
                live = d >= top and (support >= 1 or rng.random() < support)
                shift[prefix] = rng.randrange(p) if live else 0
            s = shift[prefix]
            img = img * p + (digits[d] + s) % p
        images.append(img)
    return np.array(images, dtype=np.int64)


def random_block_perm(rng, p, n):
    """Permutation that keeps the p-ary blocks, permuting each vertex's
    children by a uniform permutation of Z/p, cyclic or not."""
    moves = {}
    images = []
    for leaf in range(p**n):
        digits = [(leaf // p ** (n - 1 - d)) % p for d in range(n)]
        img = 0
        for d in range(n):
            prefix = tuple(digits[:d])
            if prefix not in moves:
                moves[prefix] = rng.sample(range(p), p)
            img = img * p + moves[prefix][digits[d]]
        images.append(img)
    return np.array(images, dtype=np.int64)


def basis_verts(basis):
    """The vertex map of each basis row, as its labels determine it."""
    out = np.empty(basis.labels.shape, dtype=np.int64)
    for i, lv in enumerate(basis.labels):
        out[i] = _verts_from_labels(lv, basis.p, basis.n)
    return out


def test_level_perm_frozen(ge, grig, fg):
    assert level_perm(gen_a(ge), 1).images.tolist() == [1, 0]
    assert level_perm(gen_a(ge), 2).images.tolist() == [2, 3, 0, 1]
    assert level_perm(gen_b(ge, 1), 2).images.tolist() == [1, 0, 2, 3]
    assert level_perm(gen_b(ge, 0), 2).is_identity
    assert level_perm(gen_b(ge, 0), 3).images.tolist() == [0, 1, 2, 3, 5, 4, 6, 7]
    assert level_perm(gen_a(fg), 1).images.tolist() == [1, 2, 0]
    assert level_perm(gen_b(fg, 0), 2).images.tolist() == [1, 2, 0, 3, 4, 5, 6, 7, 8]
    d4 = level_perm(gen_b(grig, 0), 4).images.tolist()
    assert d4 == [0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 8, 9, 13, 12, 14, 15]


def alternating_word(spec, rng, length):
    """A reduced word of exactly `length` letters: root powers and nonzero
    B-letters alternate, so nothing merges or cancels."""
    p = spec.p
    first = rng.randrange(2)
    return Element(spec, tuple(
        -rng.randrange(1, p) if (i + first) % 2 else rng.randrange(1, spec.pm)
        for i in range(length)
    ))


def test_level_perm_matches_transducer(ge, grig, fg):
    # the section unfold against the letter-by-letter transducer it
    # replaced, from the empty word up to a word of 1,000 letters
    rng = random.Random(33)
    for spec in (ge, grig, fg, make_spec(5, (1, 1))):
        words = [identity(spec)]
        words += [alternating_word(spec, rng, rng.randrange(1, 31)) for _ in range(8)]
        words.append(alternating_word(spec, rng, 1_000))
        for x in words:
            for n in range(7):
                assert level_perm(x, n) == reference_level_perm(x, n), (spec, len(x.letters), n)


def test_level_perm_peak_memory(ge):
    # the unfold keeps at most two depths of leaf blocks alive, so the
    # traced peak stays near twice the result
    a, b = gen_a(ge), b_letter(ge, (1, 1))
    word = multiply(power(multiply(a, b), 50), b)
    tracemalloc.start()
    try:
        images = level_perm(word, 16).images
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * images.nbytes, (peak, images.nbytes)


def test_level_perm_equality():
    p1 = LevelPerm(1, np.array([1, 0], dtype=np.int64))
    p2 = LevelPerm(1, np.array([1, 0], dtype=np.int64))
    p3 = LevelPerm(1, np.array([0, 1], dtype=np.int64))
    assert p1 == p2 and hash(p1) == hash(p2)
    assert p1 != p3
    assert p3.is_identity and not p1.is_identity
    assert p1.degree == 2


def test_level_perm_matches_vertex_action(ge, grig, fg):
    rng = random.Random(31)
    for spec in (ge, grig, fg):
        for _ in range(25):
            x = random_word(spec, rng, rng.randrange(0, 10))
            n = rng.randrange(1, 5)
            perm = level_perm(x, n)
            v = tuple(rng.randrange(spec.p) for _ in range(n))
            idx = 0
            for d in v:
                idx = idx * spec.p + d
            img = act_on_vertex(x, v)
            want = 0
            for d in img:
                want = want * spec.p + d
            assert perm.images[idx] == want


def test_level_perm_homomorphism(ge, fg):
    rng = random.Random(32)
    for spec in (ge, fg):
        for _ in range(25):
            x = random_word(spec, rng, rng.randrange(0, 10))
            y = random_word(spec, rng, rng.randrange(0, 10))
            n = rng.randrange(1, 6)
            fx = level_perm(x, n).images
            fy = level_perm(y, n).images
            assert np.array_equal(level_perm(multiply(x, y), n).images, fx[fy])
            assert np.array_equal(
                level_perm(invert(x), n).images, invert_perm(fx)
            )


def test_level_too_large(ge):
    with pytest.raises(LevelTooLarge):
        level_perm(gen_a(ge), 21)
    with pytest.raises(LevelTooLarge):
        chain_from(group_desc(ge), 21)


def test_chain_orders_frozen(ge, grig, fg):
    assert [group_chain(ge, n).order for n in range(1, 5)] == [2, 8, 128, 4096]
    assert [group_chain(grig, n).order for n in range(1, 6)] == [
        2,
        8,
        128,
        4096,
        1 << 22,
    ]
    assert [group_chain(fg, n).order for n in range(1, 4)] == [3, 81, 59049]
    # level 0 is the root alone: no labelled vertex, the trivial group
    for spec in (ge, fg):
        assert group_chain(spec, 0).order == 1
    # successive level images surject, so orders divide upward
    for spec in (ge, grig, fg):
        for n in range(1, 4):
            assert group_chain(spec, n + 1).order % group_chain(spec, n).order == 0


def test_chain_order_vs_brute_closure(ge, grig, fg):
    for spec, top in ((ge, 3), (grig, 3), (fg, 2)):
        for n in range(1, top + 1):
            perms = [level_perm(g, n) for g in generating_set(spec)]
            assert group_chain(spec, n).order == closure_order(perms)
    assert closure_order([]) == 1


def test_membership(ge, grig):
    rng = random.Random(33)
    chain = group_chain(grig, 3)
    for _ in range(20):
        x = random_word(grig, rng, rng.randrange(0, 12))
        assert chain.member(level_perm(x, 3))
    # a 3-cycle cannot lie in a 2-group
    odd = np.arange(8, dtype=np.int64)
    odd[[0, 1, 2]] = [1, 2, 0]
    assert not chain.member(odd)
    # level-3 full image contains this transposition, level-4 image does not
    swap01 = np.arange(8, dtype=np.int64)
    swap01[[0, 1]] = [1, 0]
    assert group_chain(ge, 3).member(swap01)
    swap01_deep = np.arange(16, dtype=np.int64)
    swap01_deep[[0, 1]] = [1, 0]
    assert not group_chain(ge, 4).member(swap01_deep)


def test_level_orders_closed_form(ge, grig, fg):
    # log2|G_n| = 1, 3, 7, 12, then 5 * 2^(n-3) + 2; log3|G_n| = 3^(n-1) + 1
    for spec in (ge, grig):
        logs = [group_chain(spec, n).order.bit_length() - 1 for n in range(1, 10)]
        assert logs == [1, 3, 7, 12] + [5 * 2 ** (n - 3) + 2 for n in range(5, 10)]
        assert all(group_chain(spec, n).order == 2 ** x for n, x in enumerate(logs, 1))
    for n in range(2, 6):
        assert group_chain(fg, n).order == 3 ** (3 ** (n - 1) + 1)


def test_membership_vs_brute_closure(ge, grig):
    rng = random.Random(34)
    for spec in (ge, grig):
        elems = brute_elements(spec, 4)
        basis = group_chain(spec, 4)
        assert len(elems) == basis.order
        outside = 0
        for _ in range(200):
            arr = random_tree_perm(rng, 2, 4)
            want = tuple(arr.tolist()) in elems
            outside += not want
            assert basis.member(arr) == want
        assert outside > 100
        for _ in range(30):
            x = random_word(spec, rng, rng.randrange(0, 16))
            assert basis.member(level_perm(x, 4))
        # a transposition across the two halves is no tree automorphism
        cross = np.arange(16, dtype=np.int64)
        cross[[7, 8]] = [8, 7]
        assert not basis.member(cross)
    with pytest.raises(LevelMismatch):
        basis.member(np.arange(8, dtype=np.int64))
    with pytest.raises(LevelMismatch):
        basis.member(level_perm(gen_a(grig), 3))


def test_membership_oracle_odd_p_and_tails(ge, fg):
    # member against rebuilding: x lies in the group iff adding it to the
    # pivots leaves the order unchanged, and the tail from depth d holds
    # exactly the members that fix level d
    rng = random.Random(35)
    for spec, n in ((fg, 3), (make_spec(5, (4,)), 3), (ge, 5)):
        p, N = spec.p, spec.p**n
        basis = group_chain(spec, n)
        rows = basis_leaves(basis)
        cases = [
            random_tree_perm(rng, p, n, support)
            for support in (0.25, 1.0)
            for _ in range(20)
        ]
        for _ in range(20):
            w = level_perm(random_word(spec, rng, rng.randrange(0, 12)), n).images
            cases.append(w)
            # level images of depth d have exponent p^d, so this power
            # fixes level d: tail members, unless it is the identity
            for d in range(1, n):
                y = np.arange(N, dtype=np.int64)
                for _ in range(p**d):
                    y = w[y]
                cases.append(y)
        # wreath elements fixing level d: mostly tail non-members
        cases += [
            random_tree_perm(rng, p, n, 0.25, top=d)
            for d in range(1, n)
            for _ in range(10)
        ]
        seen = set()
        for x in cases:
            inside = tree_pivot_basis(rows + [x], p, n).order == basis.order
            assert basis.member(x) == inside, (spec, x)
            for d in range(1, n):
                block = p ** (n - d)
                fixes = np.array_equal(x // block, np.arange(N) // block)
                got = basis.tail(_depth_start(p, d)).member(x)
                assert got == (inside and fixes), (spec, d, x)
                seen.add((d, got, inside))
        # every depth saw members, and outsiders that the whole basis
        # accepts as well as ones it refuses
        for d in range(1, n):
            assert {(d, True, True), (d, False, True), (d, False, False)} <= seen


def test_chain_determinism(ge):
    c1 = chain_from(group_desc(ge), 4)
    c2 = chain_from(group_desc(ge), 4)
    assert c1.order == c2.order
    p1, p2 = basis_leaves(c1), basis_leaves(c2)
    assert len(p1) == len(p2) == 12
    for g1, g2 in zip(p1, p2):
        assert np.array_equal(g1, g2)
        assert c1.member(g1)


def test_basis_rows_pinned(ge, grig, fg):
    # derived_chain takes the rows in this order as the next round's
    # generators; the digest covers keys, labels and the vertex maps the labels determine,
    # byte for byte.  The cases cover both add rules (p = 2 and odd p),
    # normal closures and derived terms.  The p = 2 digests are those of
    # the bases built with the band closed under every row, their band
    # rows then put in reduced echelon form.
    fg_gens = [level_perm(g, 4).images for g in generating_set(fg)]
    pinned = {
        "ge 8": (
            lambda: group_chain(ge, 8),
            "b09c683ee8b17b7d194905af5bec19c822ecdfc9ffa96955d7b90d62093621e7",
        ),
        "grig 8": (
            lambda: group_chain(grig, 8),
            "5775f3f41f95edfb219903755f74c8b9205a7e2b9981d6fc42b5025f005f0213",
        ),
        "fg 5": (
            lambda: group_chain(fg, 5),
            "a82c94ff32a0321db289ed8abfe78fb6bc07113a23ee654ff0d2e2342266c1a8",
        ),
        "branch closure ge 7": (
            lambda: chain_from(branch_group_desc(ge), 7),
            "b8c1a6544b703d9412c8cb47faaf6ca4b1c7c4bb58b2f33b9245f257d2180225",
        ),
        "second derived fg 4": (
            lambda: derived_chain(fg_gens, 3, 4, 2),
            "21d018fd4ae9e5ac626aaa96850f7095b3d46bfd90da9a75a5c467a5f8b804c0",
        ),
        "p = 5 level 4": (
            lambda: group_chain(make_spec(5, (4,)), 4),
            "aebdf9c7563aa7c96a67a99ec569dc259dee68ec0d8998ab7c9fad8566a6fe31",
        ),
        "p = 7 level 3": (
            lambda: group_chain(make_spec(7, (6,)), 3),
            "04955ab7ca819744480392606969cff567a8d0b1c6c00c8e51a19a5a69bfbf25",
        ),
    }
    for name, (build, digest) in pinned.items():
        basis = build()
        h = hashlib.sha256()
        for arr in (basis.keys, basis.labels, basis_verts(basis)):
            h.update(arr.tobytes())
        assert h.hexdigest() == digest, name


def test_basis_memory_is_bounded(ge, grig):
    # rows live only as packed integers and commutator work waits in the
    # queue as one pending generator per row, so the traced peak grows
    # with the rows (0.2 MB at V = 255, 0.4-0.6 MB at V = 511) rather than
    # with V squared or with the number of commutators (2,134 for ge,
    # 3,286 for grig at level 8).  Tracing slows a build over tenfold, so
    # one build per level is traced and the other only counts its rows.
    for n, rows, bound, traced in ((8, 162, 4_000_000, grig), (9, 322, 2_000_000, ge)):
        for spec in (ge, grig):
            gens = [level_perm(g, n).images for g in generating_set(spec)]
            if spec is not traced:
                assert len(tree_pivot_basis(gens, 2, n).keys) == rows
                continue
            tracemalloc.start()
            try:
                basis = tree_pivot_basis(gens, 2, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(basis.keys) == rows
            assert peak < bound, (spec, n, peak)


def test_deep_level_memory(dih):
    # 65,535 label-carrying vertices but only 17 rows: the build must not
    # allocate anything of size V squared
    tracemalloc.start()
    try:
        order = group_chain(dih, 16).order
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order == 2**17
    assert peak < 64_000_000, peak


def test_packed_vectors_memory():
    # the rotation tables of 65,535 positions over 15 block widths keep
    # int32 ancestors and one-byte digits: about 5 MB
    tracemalloc.start()
    try:
        packed = _PackedVectors(2, 16)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert packed.V == 2**16 - 1
    assert held < 7_000_000, held
    # a digit past 255 still fits
    assert _PackedVectors(257, 3)._blocks[0][1].max() == 256


def assert_same_basis(got, want, case):
    """The engine's basis against the oracle's, byte for byte; the oracle
    composes each row's vertex map, and the engine's labels must
    determine the same map."""
    assert got.order == want.order, case
    fields = {"keys": got.keys, "labels": got.labels, "verts": basis_verts(got)}
    for field, a in fields.items():
        b = getattr(want, field)
        assert a.dtype == b.dtype, (case, field)
        assert a.tobytes() == b.tobytes(), (case, field)


def test_pivot_basis_matches_reference(ge, grig):
    # the packed reduction against the numpy loop it replaced, on random
    # generator sets, plain and as a normal closure; sparse generators
    # give proper subgroups, dense ones mostly the whole wreath power; past
    # 40 vertices the slow loop takes seconds, so one density is tried
    # there.  At p = 2 the engine closes its band under the generators and
    # conjugators, the oracle under every row, so equal bytes also check
    # the two closure orders against each other; the whole-group builds
    # add the stop at `depth_row_bounds`.
    rng = random.Random(6)
    for p, top in ((2, 5), (3, 5), (5, 3)):
        for n in range(2, top + 1):
            for support in (0.25, 0.5, 1.0) if _depth_start(p, n) <= 40 else (0.25,):
                gens = [
                    random_tree_perm(rng, p, n, support)
                    for _ in range(rng.randint(2, 4))
                ]
                conj = [random_tree_perm(rng, p, n, support) for _ in range(2)]
                for kw in ({}, {"conj_arrays": conj}):
                    got = tree_pivot_basis(gens, p, n, **kw)
                    want = reference_pivot_basis(gens, p, n, **kw)
                    assert_same_basis(got, want, (p, n, support, sorted(kw)))
    for spec in (ge, grig):
        gens = [level_perm(g, 8).images for g in generating_set(spec)]
        assert_same_basis(group_chain(spec, 8), reference_pivot_basis(gens, 2, 8), spec)
        desc = branch_group_desc(spec)
        branch = [level_perm(g, 7).images for g in desc.generators]
        ambient = [level_perm(g, 7).images for g in generating_set(spec)]
        want = reference_pivot_basis(branch, 2, 7, conj_arrays=ambient)
        assert_same_basis(chain_from(desc, 7), want, (spec, "K"))


def test_packed_add_and_row_action():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5, 7):
        for n in (3, 4):
            V = _depth_start(p, n)
            space = _PackedVectors(p, n)
            x = rng.integers(0, p, (20, V), dtype=np.int16)
            y = rng.integers(0, p, (20, V), dtype=np.int16)
            for a, b in zip(x, y):
                got = space.add(space.pack(a), space.pack(b))
                assert np.array_equal(space.unpack(got), (a + b) % p)
            # 25 random elements per (p, n), 200 in all: a row power whose
            # labels vanish before its key acts like the label product
            for _ in range(25):
                key = int(rng.integers(0, V))
                rl = rng.integers(0, p, V, dtype=np.int16)
                rl[:key] = 0
                xl = rng.integers(0, p, V, dtype=np.int16)
                row = reference_leaf_labels(_labels_to_leaf(rl, p, n), p, n)
                elt = reference_leaf_labels(_labels_to_leaf(xl, p, n), p, n)
                assert np.array_equal(_verts_from_labels(row[0], p, n), row[1])
                want = _compose(elt[0], elt[1], row[0], row[1], p)[0]
                got = space.act(space.row_action(row[0], key), space.pack(elt[0]))
                assert np.array_equal(space.unpack(got), want), (p, n, key)


def test_subgroup_desc_validation(ge, grig):
    with pytest.raises(StructureError):
        SubgroupDesc("empty", [])
    with pytest.raises(StructureError):
        SubgroupDesc("mixed", [gen_a(ge), gen_a(grig)])
    with pytest.raises(StructureError):
        SubgroupDesc("wrong", [gen_a(ge)], spec=grig)
    d = SubgroupDesc("ok", [], spec=ge)
    assert chain_from(d, 2).order == 1


def test_derived_chain_vs_brute(grig, fg):
    # independent oracle: commutators of the full finite group, closed
    def brute_derived(elems, deg):
        def inv(t):
            out = [0] * deg
            for i, v in enumerate(t):
                out[v] = i
            return tuple(out)

        def mul(f, g):
            return tuple(f[g[i]] for i in range(deg))

        el = list(elems)
        comms = {mul(mul(inv(x), inv(y)), mul(x, y)) for x in el for y in el}
        seen = set(comms) | {tuple(range(deg))}
        frontier = list(seen)
        while frontier:
            nxt = []
            for f in frontier:
                for g in comms:
                    h = mul(f, g)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return seen

    elems = brute_elements(grig, 3)
    gens = [level_perm(g, 3).images for g in generating_set(grig)]
    assert len(elems) == 128
    assert len(brute_derived(elems, 8)) == 16
    assert derived_chain(gens, 2, 3, 1).order == 16

    elems = brute_elements(fg, 2)
    gens = [level_perm(g, 2).images for g in generating_set(fg)]
    derived = brute_derived(elems, 9)
    assert (len(elems), len(derived)) == (81, 9)
    assert derived_chain(gens, 3, 2, 1).order == 9
    assert len(brute_derived(derived, 9)) == 1
    assert derived_chain(gens, 3, 2, 2).order == 1
    with pytest.raises(ValueError):
        derived_chain(gens, 3, 2, 0)


def test_derived_chain_matches_reference(grig, fg):
    # commutators packed from row actions against the leaf-permutation
    # rounds they replaced: the same order, keys and labels, byte for byte
    cases = [(grig, n) for n in range(3, 8)] + [(fg, n) for n in range(3, 6)]
    cases += [(make_spec(3, (1, 1)), n) for n in (4, 5)] + [(make_spec(5, (1, 1)), 3)]
    for spec, n in cases:
        gens = [level_perm(g, n).images for g in generating_set(spec)]
        for k in (1, 2):
            got = derived_chain(gens, spec.p, n, k)
            want = reference_derived_chain(gens, spec.p, n, k)
            case = (spec.p, spec.coeffs, n, k)
            assert got.order == want.order, case
            assert got.keys.tobytes() == want.keys.tobytes(), case
            assert got.labels.tobytes() == want.labels.tobytes(), case


def test_leaf_to_labels_refuses_what_the_block_check_refuses():
    # the checked read against the block-by-block check it replaced, on
    # wreath-power elements, block-preserving permutations whose children
    # move by any permutation (at odd p mostly not a cyclic shift) and
    # uniform shuffles; what it accepts, its labels rebuild
    rng = random.Random(17)
    for p, top in ((2, 4), (3, 3), (5, 2)):
        seen = set()
        for n in range(1, top + 1):
            N = p**n
            for kind in ("wreath", "blocks", "shuffle"):
                for _ in range(30):
                    if kind == "wreath":
                        x = random_tree_perm(rng, p, n, rng.choice((0.25, 1.0)))
                    elif kind == "blocks":
                        x = random_block_perm(rng, p, n)
                    else:
                        x = np.array(rng.sample(range(N), N), dtype=np.int64)
                    try:
                        assert_cyclic_blocks(x, p, n)
                        want = True
                    except StructureError:
                        want = False
                    try:
                        lv = _leaf_to_labels(x, p, n)
                        got = True
                    except StructureError:
                        got = False
                    assert got == want, (p, n, kind, x)
                    if got:
                        assert np.array_equal(_labels_to_leaf(lv, p, n), x)
                    seen.add((kind, got))
        assert {("wreath", True), ("blocks", p == 2), ("shuffle", False)} <= seen, p


def test_prefix_kernel_order(ge, grig, fg):
    for spec, ell, n in ((ge, 1, 3), (ge, 2, 4), (grig, 1, 4), (fg, 1, 2)):
        kernel = group_chain(spec, n).tail(_depth_start(spec.p, ell))
        expected = group_chain(spec, n).order // group_chain(spec, ell).order
        assert kernel.order == expected


def test_stab_in_derived_orders_vs_membership(ge, grig, fg):
    # Stab(ell) lies in the derived image D exactly when D's tail from the
    # first vertex at depth ell has the order of the whole image's tail;
    # the slow criterion tests every kernel row for membership in D
    seen = set()
    for spec, n, depths in ((ge, 8, (1,)), (grig, 8, (1,)), (fg, 5, (1, 2))):
        chain = group_chain(spec, n)
        gens = [level_perm(g, n).images for g in generating_set(spec)]
        for depth in depths:
            derived = derived_chain(gens, spec.p, n, depth)
            for ell in range(1, n):
                start = _depth_start(spec.p, ell)
                by_order = derived.tail(start).order == chain.tail(start).order
                by_member = all(derived.member(k) for k in basis_leaves(chain.tail(start)))
                assert by_order == by_member, (spec, n, depth, ell)
                seen.add(by_order)
    assert seen == {True, False}


def test_stab_in_derived(ge, grig, fg):
    for spec, n in ((ge, 5), (grig, 5), (fg, 5)):
        report = stab_in_derived_check(spec, n)
        assert report.passed
        for entry in report.entries:
            assert entry.contained
            assert entry.stabilizer_order > 1
            assert entry.derived_order % entry.stabilizer_order == 0
    assert len(stab_in_derived_check(fg, 5).entries) == 2
    assert len(stab_in_derived_check(ge, 5).entries) == 1


def test_stab_in_derived_errors(ge, fg, dih):
    with pytest.raises(ValueError):
        stab_in_derived_check(ge, 3)
    with pytest.raises(ValueError):
        stab_in_derived_check(fg, 4)
    with pytest.raises(DegenerateCase):
        stab_in_derived_check(dih, 5)


BASELINE_SPECS = (
    (2, (1, 1)),
    (2, (1, 0)),
    (2, (1, 0, 0)),
    (2, (1, 1, 0)),
    (2, (1, 0, 0, 0)),
    (3, (2,)),
    (3, (1, 1)),
    (3, (2, 0)),
    (5, (1, 1)),
)


def test_stab_in_derived_matches_reference(ge, grig, fg):
    # the proved first entry against the level-n derived basis of the
    # reference, every field of every entry
    cases = [(ge, n) for n in range(5, 9)] + [(grig, n) for n in range(5, 9)]
    cases.append((fg, 5))
    for p, coeffs in BASELINE_SPECS:
        spec = make_spec(p, coeffs)
        n = spec.m + 2
        if p == 2:
            cases.append((spec, n))
            continue
        # odd p needs n > m + 3 for the second entry, and both refuse n = m + 2;
        # the first inclusion is still checked there against a derived basis
        with pytest.raises(ValueError):
            stab_in_derived_check(spec, n)
        with pytest.raises(ValueError):
            reference_stab_in_derived_check(spec, n)
        chain = group_chain(spec, n)
        derived = derived_chain([level_perm(g, n).images for g in generating_set(spec)], p, n)
        assert derived.order == chain.order // p ** (spec.m + 1), coeffs
        assert derived.stabilizer(spec.m + 1).order == chain.stabilizer(spec.m + 1).order
    for spec, n in cases:
        got = stab_in_derived_check(spec, n)
        want = reference_stab_in_derived_check(spec, n)
        assert got == want, (spec.p, spec.coeffs, n)
        assert [e.derivation for e in got.entries] == ([1] if spec.p == 2 else [1, 2])
        assert got.passed


def test_stab_in_derived_builds_derived_terms_once(ge, grig, fg, monkeypatch):
    # p = 2: the first inclusion is proved, so only the basis of G_n is built,
    # after the level-(m+2) basis that `depth_row_bounds` reads; odd p: one
    # derived_chain call builds G_n'' (and G_n' on the way); each
    # generator's level-n permutation is evaluated once for both
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(f"level_perm {args[1]}" if name == "level_perm" else name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(permq, name, wrapped)

    spy("level_perm", permq.level_perm)
    spy("tree_pivot_basis", permq.tree_pivot_basis)
    spy("derived_chain", permq.derived_chain)
    for spec in (ge, grig):
        calls.clear()
        stab_in_derived_check(spec, 8)
        assert calls == ["level_perm 8"] * 3 + ["level_perm 4"] * 3 + ["tree_pivot_basis"] * 2
    calls.clear()
    stab_in_derived_check(fg, 5)
    assert calls.count("derived_chain") == 1
    # a and b, the bound's G_3, G_5, then G_5' and G_5'' inside the one
    # derived_chain call
    assert calls == ["level_perm 5"] * 2 + ["level_perm 3"] * 2 + [
        "tree_pivot_basis", "tree_pivot_basis", "derived_chain", "tree_pivot_basis", "tree_pivot_basis"
    ]


def test_branch_group(ge, grig, fg, dih):
    assert branch_group_desc(ge).name == "K"
    assert branch_group_desc(ge).normal_closure
    assert branch_group_desc(fg).name == "Gprime"
    with pytest.raises(DegenerateCase):
        branch_group_desc(dih)
    for spec, top in ((ge, 4), (grig, 4), (fg, 2)):
        for n in range(1, top + 1):
            assert branch_pair_check(spec, n)
    with pytest.raises(ValueError):
        branch_pair_check(ge, 0)


def test_density_check(ge):
    a = gen_a(ge)
    b = b_letter(ge, (1, 1))
    # (ab)^1 with the full letter basis generates everything
    h1 = SubgroupDesc("H1", [multiply(a, b)] + [gen_b(ge, i) for i in range(2)])
    for n in range(1, 6):
        assert density_check(ge, h1, n)
    # the two-generator dihedral subgroup is far from dense
    hd = SubgroupDesc("D", [a, b])
    assert density_check(ge, hd, 1)
    assert not density_check(ge, hd, 3)


def test_density_matches_reference(ge, grig, fg):
    # density at level min(n, m + 1) against the level-n comparison, on
    # seeded one-, two- and (m+1)-word subgroups and the line subgroups
    # where the spec has them; both answers occur past level m + 1
    rng = random.Random(36)
    seen = set()
    p5, cubic = make_spec(5, (1, 1)), make_spec(2, (1, 0, 0))
    scopes = ((ge, 8), (grig, 8), (fg, 5), (p5, 3), (cubic, 7))
    for spec, top in scopes:
        subs = [
            SubgroupDesc("R", [random_word(spec, rng, rng.randrange(1, 9)) for _ in range(k)])
            for k in (1, 2, spec.m + 1)
            for _ in range(2)
        ]
        for q in (3, 5, 7):
            try:
                subs.append(SubgroupDesc(f"H{q}", list(hq(spec, q).generators)))
            except NoDihedralWitness:
                pass
        for H in subs:
            for n in range(1, top + 1):
                want = reference_density_check(spec, H, n)
                assert density_check(spec, H, n) == want, (spec, H.name, n)
                seen.add((n > spec.m + 1, want))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_density_builds_nothing_above_m_plus_1(ge, monkeypatch):
    import selfsim.permq

    levels = []
    build = selfsim.permq.tree_pivot_basis

    def spy(gen_arrays, p, n, conj_arrays=None, depth_rows=None):
        levels.append(n)
        return build(gen_arrays, p, n, conj_arrays, depth_rows=depth_rows)

    monkeypatch.setattr(selfsim.permq, "tree_pivot_basis", spy)
    h3 = SubgroupDesc("H3", list(hq(ge, 3).generators))
    assert density_check(ge, h3, 20)
    assert levels and max(levels) <= 3


def test_abelianization_full_at_m_plus_1(dih):
    # |G_n : G_n'| = p^(m+1) from level m + 1 on, the fact that lets
    # density_check stop there; checked at m + 1 and m + 2
    specs = [
        make_spec(p, coeffs)
        for p, coeffs in (
            (2, (1, 1)),
            (2, (1, 0)),
            (2, (1, 0, 0)),
            (2, (1, 1, 0)),
            (2, (1, 0, 0, 0)),
            (3, (2,)),
            (3, (1, 1)),
            (3, (2, 0)),
            (5, (1, 1)),
        )
    ] + [dih]
    for spec in specs:
        for n in (spec.m + 1, spec.m + 2):
            chain = group_chain(spec, n)
            gens = [level_perm(g, n).images for g in generating_set(spec)]
            derived = derived_chain(gens, spec.p, n)
            assert chain.order // derived.order == spec.p ** (spec.m + 1), (spec, n)


BASELINE_SPECS = (
    (2, (1, 1)),
    (2, (1, 0)),
    (2, (1, 0, 0)),
    (2, (1, 1, 0)),
    (2, (1, 0, 0, 0)),
    (3, (2,)),
    (3, (1, 1)),
    (3, (2, 0)),
    (5, (1, 1)),
)


def drained_basis(spec, n):
    gens = [level_perm(g, n).images for g in generating_set(spec)]
    return tree_pivot_basis(gens, spec.p, n)


def depth_counts(basis):
    """The rows of a basis keyed at each depth."""
    tails = [len(basis.stabilizer(d).keys) for d in range(basis.n + 1)]
    return [tails[d] - tails[d + 1] for d in range(basis.n)]


def test_order_bound_vs_drained_build(dih):
    # each depth's bound holds against a build that drains its queue; it
    # is tight on the baseline specs and loose at some depth on the
    # dihedral spec, whose builds therefore still drain
    for p, coeffs in BASELINE_SPECS:
        spec = make_spec(p, coeffs)
        s = spec.m + 2
        assert depth_row_bounds(spec, s) is None
        for n in (n for n in range(s + 1, 9) if p**n <= 2**8):
            want = depth_counts(drained_basis(spec, n))
            assert depth_row_bounds(spec, n) == want, (p, coeffs, n)
    # p = 5 reaches level m + 3 only at degree 3,125, where the drained
    # build takes about half a minute; it enumerated log_5 |G_5| = 751
    assert sum(depth_row_bounds(make_spec(5, (1, 1)), 5)) == 751
    for n in range(4, 9):
        bounds, counts = depth_row_bounds(dih, n), depth_counts(drained_basis(dih, n))
        assert all(b >= c for b, c in zip(bounds, counts)) and bounds != counts, n
        assert sum(counts) == n + 1


def test_band_rows_are_canonical(ge, grig):
    # the p = 2 band rows depend only on the band subgroup: shuffled and
    # duplicated generators, plain and as normal closures, give the same
    # band keys and labels byte for byte, and no band row has a bit set
    # at another band row's pivot
    rng = random.Random(27)
    cases = []
    for spec, n in ((ge, 7), (grig, 7)):
        ambient = [level_perm(g, n).images for g in generating_set(spec)]
        branch = [level_perm(g, n).images for g in branch_group_desc(spec).generators]
        cases += [(n, ambient, None), (n, branch, ambient)]
    for n in (4, 5):
        gens = [random_tree_perm(rng, 2, n, 0.25) for _ in range(3)]
        cases += [(n, gens, None), (n, gens, [random_tree_perm(rng, 2, n, 0.25)])]
    for n, gens, conj in cases:
        bottom0 = _depth_start(2, n - 1)
        seen = set()
        for variant in (gens, rng.sample(gens, len(gens)), gens + rng.sample(gens, len(gens))):
            basis = tree_pivot_basis(variant, 2, n, conj_arrays=conj)
            band = basis.keys >= bottom0
            keys, labels = basis.keys[band], basis.labels[band]
            seen.add((keys.tobytes(), labels.tobytes()))
            assert len(keys)
            assert (labels[:, keys].sum(axis=0) == 1).all(), n
        assert len(seen) == 1, n


def test_stopped_build_matches_drained(ge, grig, fg, monkeypatch):
    rng = random.Random(35)
    cases = [(ge, 9), (grig, 9), (fg, 5), (make_spec(3, (1, 1)), 5)]
    for spec, n in cases + [(make_spec(2, (1, 0, 0, 0)), 8)]:
        p = spec.p
        stopped, drained = group_chain(spec, n), drained_basis(spec, n)
        assert np.array_equal(stopped.keys, drained.keys), (spec, n)
        assert np.array_equal(stopped.labels, drained.labels), (spec, n)
        seen = set()
        for _ in range(10):
            x = level_perm(random_word(spec, rng, rng.randrange(1, 40)), n).images
            lv = _leaf_to_labels(x, p, n)
            lv[rng.randrange(len(lv))] += 1
            flipped = _labels_to_leaf(lv % p, p, n)
            for y in (x, flipped):
                got = stopped.member(y)
                assert got == drained.member(y), (spec, n)
                seen.add(got)
        assert seen == {True, False}, (spec, n)
    # the stop fires: ge at level 9 acts far less often than a drained build
    counts = []
    act = _PackedVectors.act

    def counted(self, action, x):
        counts[-1] += 1
        return act(self, action, x)

    monkeypatch.setattr(_PackedVectors, "act", counted)
    for build in (group_chain, drained_basis):
        counts.append(0)
        build(ge, 9)
    assert counts[0] < counts[1] // 2, counts
