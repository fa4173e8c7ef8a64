"""Brute-force oracles: plain product closure of permutations, independent
of the pivot basis they check, the slow reduction loop the pivot basis
replaced, the nested wreath pass the flat letter loop replaced, the
level-n density comparison that density at level m + 1 replaced, the
per-level conjugation check that one build at the deepest level replaced,
the level-n derived bases that the proved St_G(m+1) <= G' replaced, and
the derived terms formed from leaf permutations, with the block check
that the checked read of a level image replaced."""

from collections import deque
from typing import NamedTuple

import numpy as np


def closure_elements(arrays):
    """Every element of the group the permutations (any integer sequences)
    generate, as tuples; the identity alone for no generators."""
    gens = [tuple(int(v) for v in arr) for arr in arrays]
    if not gens:
        return {()}
    degree = len(gens[0])
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = tuple(f[g[i]] for i in range(degree))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def closure_order(perms) -> int:
    """Brute-force product closure cardinality of LevelPerms; the
    independent oracle for basis orders at small degree."""
    return len(closure_elements(perm.images for perm in perms))


def assert_cyclic_blocks(arr: np.ndarray, p: int, n: int) -> None:
    """Check that the permutation preserves the p-ary block partition at
    every depth and permutes each vertex's children by a cyclic shift, i.e.
    lies in the n-fold wreath power of Z/p."""
    from selfsim.errors import StructureError

    for d in range(n):
        bs = p ** (n - d)
        cs = bs // p
        starts = np.arange(p**d, dtype=np.int64) * bs
        child_starts = (starts[:, None] + np.arange(p, dtype=np.int64) * cs).ravel()
        img = arr[child_starts].reshape(p**d, p)
        if not bool((img // bs == img[:, :1] // bs).all()):
            raise StructureError("permutation does not preserve the tree blocks")
        rel = (img % bs) // cs
        expect = (rel[:, :1] + np.arange(p, dtype=np.int64)) % p
        if not bool((rel == expect).all()):
            raise StructureError("children are not permuted by a cyclic shift")


def basis_leaves(basis):
    """The rows of a pivot basis as leaf permutations, rebuilt from their
    labels."""
    from selfsim.permq import _labels_to_leaf

    return [_labels_to_leaf(lv, basis.p, basis.n) for lv in basis.labels]


def _commutator_arrays(arrs):
    """Nontrivial commutators of every unordered pair, skipping pairs with
    disjoint support (they commute outright)."""
    from selfsim.permq import invert_perm

    out = []
    if not arrs:
        return out
    iden = np.arange(len(arrs[0]), dtype=np.int64)
    invs = [invert_perm(x) for x in arrs]
    masks = [x != iden for x in arrs]
    for i, x in enumerate(arrs):
        for j in range(i + 1, len(arrs)):
            if not bool(np.any(masks[i] & masks[j])):
                continue
            c = invs[i][invs[j][x[arrs[j]]]]
            if not np.array_equal(c, iden):
                out.append(c)
    return out


def reference_derived_chain(gens, p, n, k=1):
    """k-th derived subgroup of the level-n image generated by `gens`,
    each round's commutators formed from leaf permutations (the basis rows
    rebuilt as leaves); the oracle for `permq.derived_chain`, which forms
    them as packed label vectors."""
    from selfsim.permq import LevelPerm, tree_pivot_basis

    if k < 1:
        raise ValueError("derivation depth must be >= 1")
    ambient = [
        g.images if isinstance(g, LevelPerm) else np.asarray(g, dtype=np.int64)
        for g in gens
    ]
    cur = ambient
    for _ in range(k):
        out = tree_pivot_basis(_commutator_arrays(cur), p, n, conj_arrays=ambient)
        cur = basis_leaves(out)
        if not cur:
            break
    return out


def reference_density_check(spec, H, n):
    """Whether H's level-n image is the whole group's, by building both
    pivot bases at level n; the oracle for `permq.density_check`, which
    stops at level m + 1."""
    from selfsim.permq import chain_from, group_desc

    return chain_from(H, n).order == chain_from(group_desc(spec), n).order


def reference_stab_in_derived_check(spec, n):
    """The stabilizer-in-derived entries with every derived term built at
    level n, the first one included; the oracle for
    `permq.stab_in_derived_check`, which proves the first inclusion."""
    from selfsim.elements import generating_set
    from selfsim.errors import DegenerateCase
    from selfsim.permq import (
        StabDerivedEntry,
        StabDerivedReport,
        group_chain,
        level_perm,
    )

    if spec.is_degenerate:
        raise DegenerateCase("(2, 1) is excluded from the congruence checks")
    checks = [(spec.m + 1, 1)]
    if spec.p > 2:
        checks.append((spec.m + 3, 2))
    for ell, _ in checks:
        if n <= ell:
            raise ValueError(f"need n > {ell} for this spec")
    chain = group_chain(spec, n)
    gen_arrays = [level_perm(g, n).images for g in generating_set(spec)]
    entries = []
    for ell, depth in checks:
        derived = reference_derived_chain(gen_arrays, spec.p, n, depth)
        # the derived image lies in the level image, so its tail is its
        # intersection with the stabilizer, which is the stabilizer's
        # image exactly when the orders agree
        kernel_order = chain.stabilizer(ell).order
        contained = derived.stabilizer(ell).order == kernel_order
        entries.append(
            StabDerivedEntry(ell, depth, kernel_order, derived.order, contained)
        )
    return StabDerivedReport(spec.p, spec.m, n, tuple(entries))


def reference_disagreement_level(r, x, y, depth):
    """First level in 1..depth where r^-1 x r and y differ, or None, by
    building all three level permutations at every level; the oracle for
    `recsys.conjugation_disagreement_level`."""
    from selfsim.permq import invert_perm, level_perm
    from selfsim.recsys import rec_level_perm

    for n in range(1, depth + 1):
        Pr = rec_level_perm(r, n).images
        Px = level_perm(x, n).images
        Py = level_perm(y, n).images
        if not np.array_equal(invert_perm(Pr)[Px[Pr]], Py):
            return n
    return None


def reference_wreath_letters(spec, letters):
    """Root exponent and normal-form section words of a letter tuple, by one
    right-to-left pass that prepends each contribution through a nested
    helper and adds B-letters coordinate-wise; the oracle for
    `elements._wreath_letters`."""
    p = spec.p
    root = 0
    revsecs = [[] for _ in range(p)]

    def add(c1, c2):
        v1, v2 = spec.coords_of(c1), spec.coords_of(c2)
        return spec.code_of([a + b for a, b in zip(v1, v2)])

    def prepend(idx, letter):
        revsec = revsecs[idx]
        if revsec:
            last = revsec[-1]
            if last < 0 and letter < 0:
                e = ((-last) + (-letter)) % p
                revsec.pop()
                if e:
                    revsec.append(-e)
                return
            if last > 0 and letter > 0:
                c = add(last, letter)
                revsec.pop()
                if c:
                    revsec.append(c)
                return
        revsec.append(letter)

    for l in reversed(letters):
        if l < 0:
            root = (root + (-l)) % p
        else:
            w = spec.omega_code[l]
            if w:
                prepend((-root) % p, -w)
            prepend((p - 1 - root) % p, spec.rho_code[l])
    return root, tuple(tuple(reversed(rs)) for rs in revsecs)


def iterative_zeta(spec, bound):
    """{n: zeta(n)} for |n| <= bound, walked out from the all-ones ray one
    (ab)-step at a time; the oracle for the closed-form zeta."""
    from selfsim import act_ray, all_ones, b_letter, gen_a
    from selfsim.core import dihedral_witness

    a, b = gen_a(spec), b_letter(spec, dihedral_witness(spec))
    table = {0: all_ones(spec)}
    for k in range(1, bound + 1):
        table[k] = act_ray(a, act_ray(b, table[k - 1]))
        # (ab)^-1 = ba for the involutions a and b.
        table[-k] = act_ray(b, act_ray(a, table[1 - k]))
    return table


def transducer_act_ray(x, r):
    """Image of the ray r under x, one letter at a time, each letter run as
    a transducer along the ray with cycle detection over (state, phase);
    the oracle for the windowed `act_ray`."""
    from selfsim.boundary import Ray, make_ray

    spec = x.spec
    p = spec.p

    def char(r, i):
        if i < len(r.pre):
            return r.pre[i]
        return r.per[(i - len(r.pre)) % len(r.per)]

    def suffix(r, k):
        if k <= len(r.pre):
            return Ray(r.pre[k:], r.per)
        ph = (k - len(r.pre)) % len(r.per)
        return Ray((), r.per[ph:] + r.per[:ph])

    def act_a(e, r):
        e %= p
        if e == 0:
            return r
        pre = list(r.pre) if r.pre else list(r.per)
        pre[0] = (pre[0] + e) % p
        return make_ray(pre, r.per)

    def act_b(code, r):
        # While reading p-1 the state advances through rho; the first other
        # digit decides the exit: a 0 routes the accumulated a-exponent onto
        # the next digit, anything else acts trivially from there on.  A
        # repeated (state, phase) pair in the period means no exit ever, and
        # the ray is fixed from the repeat point on.
        out = []
        seen = {}
        i = 0
        while True:
            if i >= len(r.pre):
                key = (code, (i - len(r.pre)) % len(r.per))
                if key in seen:
                    j = seen[key]
                    return make_ray(tuple(out[:j]), tuple(out[j:]))
                seen[key] = len(out)
            c = char(r, i)
            out.append(c)
            if c == p - 1:
                code = spec.rho_code[code]
                i += 1
                continue
            rest = suffix(r, i + 1)
            if c == 0 and spec.omega_code[code]:
                rest = act_a(spec.omega_code[code], rest)
            return make_ray(tuple(out) + rest.pre, rest.per)

    r = make_ray(r.pre, r.per)
    for l in reversed(x.letters):
        r = act_a(-l, r) if l < 0 else act_b(l, r)
    return r


class ReferenceBasis(NamedTuple):
    """The oracle's basis: keys and labels as in `PivotBasis`, and the
    vertex map of each row as the loop composed it."""

    order: int
    keys: np.ndarray
    labels: np.ndarray
    verts: np.ndarray


def _compose(l1, v1, l2, v2, p: int):
    """Label-vector product "first apply (l2, v2)": labels add at the
    image vertex."""
    if p == 2:
        return l1[v2] ^ l2, v1[v2]
    return (l1[v2] + l2) % p, v1[v2]


def reference_pivot_basis(gen_arrays, p, n, conj_arrays=None):
    """`tree_pivot_basis` as a numpy reduction loop over unpacked label
    vectors: each step composes with a basis power by two fancy indexes
    and finds the next pivot by argmax.  The oracle for the packed-integer
    reduction, which must return the same keys and labels, and whose
    composed vertex maps the engine's labels must determine."""
    from selfsim.permq import _depth_start, _invert_labels, _leaf_to_labels

    gens = [np.asarray(a, dtype=np.int64) for a in gen_arrays]
    conj_leaf = [np.asarray(c, dtype=np.int64) for c in (conj_arrays or ())]
    for arr in gens + conj_leaf:
        assert_cyclic_blocks(arr, p, n)
    V = _depth_start(p, n)
    iden_v = np.arange(V, dtype=np.int64)
    conj_pairs = []
    for c_leaf in conj_leaf:
        cl, cv = _leaf_to_labels(c_leaf, p, n)
        conj_pairs.append((cl, cv) + _invert_labels(cl, cv, p))

    # one row per installed pivot vertex; the matrices let a row's
    # commutators against the earlier rows be formed in bulk
    LV = np.zeros((V, V), dtype=np.int16)
    VP = np.zeros((V, V), dtype=np.int64)
    LVI = np.zeros((V, V), dtype=np.int16)
    VPI = np.zeros((V, V), dtype=np.int64)
    TM = np.zeros((V, V), dtype=bool)
    key2row: dict[int, int] = {}
    row_pows: list[list] = []
    row_bvpi: list[np.ndarray] = []

    # the band of deepest vertices: for p = 2 its elements are plain bit
    # vectors (trivial vertex action), handled by integer xor elimination
    bottom0 = _depth_start(p, n - 1) if p == 2 and n else V
    nb = V - bottom0
    bot: dict[int, int] = {}
    botwork: deque = deque()
    conj_bvpi = [cvi[bottom0:] - bottom0 for _, _, _, cvi in conj_pairs]

    def unpack_bits(bits):
        raw = bits.to_bytes((nb + 7) // 8, "little")
        out = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return out[:nb]

    def pack_bits(mask):
        return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")

    def install_bottom(pb, bits):
        bot[pb] = bits
        wb = unpack_bits(bits)
        for bvpi in row_bvpi + conj_bvpi:
            c = pack_bits(wb[bvpi])
            if c != bits:
                botwork.append(c)

    def reduce_bits(bits):
        while bits:
            pb = (bits & -bits).bit_length() - 1
            row = bot.get(pb)
            if row is None:
                install_bottom(pb, bits)
                return
            bits ^= row

    # rows per chunk of commutators: each int64 temporary stays within
    # 64 KiB, which the allocator serves from its heap; larger blocks are
    # mapped afresh and fault in their pages every time (ge level 10:
    # 411 k minor faults in whole batches, about 4 k in chunks)
    chunk = max(1, 8192 // V)

    def commutators(k):
        """Nonzero commutators of row k with each earlier row whose support
        meets it, formed from the stored rows a chunk of rows at a time."""
        hl, hv, hli, hvi = LV[k], VP[k], LVI[k], VPI[k]
        meets = np.flatnonzero((TM[:k] & TM[k]).any(axis=1))
        for c in range(0, meets.size, chunk):
            inter = meets[c : c + chunk]
            VPc = VP[inter]
            t1v = hv[VPc]
            t2v = np.take_along_axis(VPI[inter], t1v, axis=1)
            t3v = hvi[t2v]
            if p == 2:
                t1l = hl[VPc] ^ LV[inter]
                t2l = np.take_along_axis(LVI[inter], t1v, axis=1) ^ t1l
                t3l = hli[t2v] ^ t2l
            else:
                t1l = (hl[VPc] + LV[inter]) % p
                t2l = (np.take_along_axis(LVI[inter], t1v, axis=1) + t1l) % p
                t3l = (hli[t2v] + t2l) % p
            for r in np.flatnonzero((t3l != 0).any(axis=1)):
                yield t3l[r], t3v[r]

    # FIFO work: label vectors, or a row index k standing for the
    # commutators of row k with the earlier rows, formed only when popped;
    # `batch` yields the popped row's commutators before the next entry
    work: deque = deque(_leaf_to_labels(arr, p, n) for arr in gens)
    batch = iter(())

    while True:
        if botwork:
            reduce_bits(botwork.popleft())
            continue
        item = next(batch, None)
        if item is None:
            if not work:
                break
            item = work.popleft()
            if isinstance(item, int):
                batch = commutators(item)
                continue
        lv, vp = item
        low = 0
        while low < V:
            seg = lv[low:] != 0
            j = int(seg.argmax())
            if not seg[j]:
                break
            idx = low + j
            if idx >= bottom0:
                reduce_bits(pack_bits(lv[bottom0:] != 0))
                break
            s = int(lv[idx])
            row = key2row.get(idx)
            if row is not None:
                lpw, vpw = row_pows[row][p - s]
                lv, vp = _compose(lv, vp, lpw, vpw, p)
                low = idx + 1
                continue
            # fresh pivot: normalize its shift to 1, then install
            hl, hv = lv, vp
            for _ in range(pow(s, -1, p) - 1):
                hl, hv = _compose(hl, hv, lv, vp, p)
            k = len(key2row)
            LV[k] = hl
            VP[k] = hv
            LVI[k], VPI[k] = _invert_labels(hl, hv, p)
            TM[k] = (hl != 0) | (hv != iden_v)
            key2row[idx] = k
            # refer to the stored row, so no view keeps a popped chunk alive
            hl, hv = LV[k], VP[k]
            pows = [None, (hl, hv)]
            for _ in range(p - 2):
                pl, pv = pows[-1]
                pows.append(_compose(pl, pv, hl, hv, p))
            row_pows.append(pows)
            pl, pv = pows[p - 1]
            ql, qv = _compose(pl, pv, hl, hv, p)
            if ql.any():
                work.append((ql, qv))
            if k:
                work.append(k)
            for cl, cv, cli, cvi in conj_pairs:
                al, av = _compose(hl, hv, cl, cv, p)
                al, av = _compose(cli, cvi, al, av, p)
                if not (np.array_equal(al, hl) and np.array_equal(av, hv)):
                    work.append((al, av))
            bvpi = VPI[k, bottom0:] - bottom0
            if bot:
                M = np.stack([unpack_bits(bot[pb]) for pb in sorted(bot)])
                CM = M[:, bvpi]
                for r in np.flatnonzero((CM != M).any(axis=1)):
                    botwork.append(pack_bits(CM[r]))
            row_bvpi.append(bvpi)
            break
    # rows in key order; bottom-band rows act on labels only
    top_keys = sorted(key2row)
    bot_keys = sorted(bot)
    keys = np.array(top_keys + [bottom0 + pb for pb in bot_keys], dtype=np.int64)
    labels = np.zeros((len(keys), V), dtype=np.int16)
    verts = np.tile(iden_v, (len(keys), 1))
    rows = [key2row[key] for key in top_keys]
    labels[: len(rows)] = LV[rows]
    verts[: len(rows)] = VP[rows]
    for i, pb in enumerate(bot_keys, start=len(rows)):
        labels[i, bottom0:] = unpack_bits(bot[pb])
    return ReferenceBasis(p ** len(keys), keys, labels, verts)
