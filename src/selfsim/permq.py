"""Finite level quotients as exact permutation groups.

The image of the group on tree level n is a subgroup of Sym(p^n) (vertices
in lexicographic = numeric order).  One unfold of sections, `_unfold`,
evaluates words (and the recursion systems of `recsys`) into level
permutations depth by depth: the distinct states of each depth top down,
then their leaf blocks bottom up, two depths at a time.  Every level image
lies in the n-fold wreath power of Z/p, so its elements are read as label
vectors: one cyclic child shift per tree vertex.  A single exact engine,
`tree_pivot_basis`, reduces those vectors to a triangular basis keyed by
vertices (an induced polycyclic sequence along the vertex series of the
wreath power).  The resulting `PivotBasis` gives the order, membership by
reduction, and kernels of prefix actions as basis tails: a level
stabilizer is the tail from the first vertex of that depth.  Vertices are
always indexed breadth-first.  Both the build and membership hold every
label vector packed into one Python int (`_PackedVectors`): a basis row
acts by masked rotations of sibling blocks and a fieldwise add mod p.
`_PackedVectors.element` is the one place that reads an element's action,
its inverse's action and its support off its labels.  The build queues
its commutator work per row and forms it from the packed rows when
popped, so its memory is O(rows x V) for V label-carrying vertices.

Permutations are numpy int64 arrays `arr` with arr[i] = image of i; as
functions they compose by fancy indexing: (f o g)[i] = f[g[i]].
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import ENUMERATION_CAP, GroupSpec
from .errors import (
    DegenerateCase,
    LevelMismatch,
    LevelTooLarge,
    StructureError,
)
from .elements import (
    Element,
    _wreath_letters,
    basis_gens,
    commutator,
    gen_a,
    gen_b,
    generating_set,
)


class LevelPerm:
    """A permutation of the p^n level-n vertices."""

    __slots__ = ("n", "images")

    def __init__(self, n: int, images):
        self.n = n
        self.images = np.asarray(images, dtype=np.int64)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LevelPerm)
            and self.n == other.n
            and np.array_equal(self.images, other.images)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.images.tobytes()))

    def __repr__(self) -> str:
        return f"LevelPerm(n={self.n}, images={self.images.tolist()})"

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return bool(np.all(self.images == np.arange(len(self.images))))


def invert_perm(arr: np.ndarray) -> np.ndarray:
    out = np.empty_like(arr)
    out[arr] = np.arange(len(arr), dtype=arr.dtype)
    return out


def check_level_cap(p: int, n: int) -> None:
    """Refuse level n when its degree p^n exceeds ENUMERATION_CAP."""
    if p**n > ENUMERATION_CAP:
        raise LevelTooLarge(f"p^n = {p**n} exceeds the cap {ENUMERATION_CAP}")


def _unfold(p: int, n: int, start, children) -> LevelPerm:
    """Exact permutation that the automorphism in state `start` induces on
    level n.  children(state) lists, for each input child c in 0..p-1, the
    output child and the state below it.

    The images of the leaves below a vertex depend only on its state and
    depth, so the unfold goes depth by depth.  Top down it lists the
    distinct states of each depth, calling `children` once per state, and
    keeps only each depth's edges: output children and the indices of the
    states below.  Bottom up it fills the leaf blocks of each depth from
    those of the next, so at most two depths of blocks are alive at once."""
    if n < 0:
        raise ValueError("level must be >= 0")
    check_level_cap(p, n)
    states, edges = [start], []
    for _ in range(n):
        below: dict = {}
        outs, idxs = [], []
        for state in states:
            for out_char, child in children(state):
                outs.append(out_char)
                idxs.append(below.setdefault(child, len(below)))
        edges.append((np.array(outs, dtype=np.int64), np.array(idxs, dtype=np.int64)))
        states = list(below)
    blocks = np.zeros((len(states), 1), dtype=np.int64)
    while edges:
        outs, idxs = edges.pop()
        width = blocks.shape[1]
        up = blocks[idxs]
        up += outs[:, None] * width
        blocks = up.reshape(-1, p * width)
    return LevelPerm(n, blocks[0])


def level_perm(x: Element, n: int) -> LevelPerm:
    """Exact permutation induced on level n, unfolding the wreath form:
    child c goes to c + root, and its block follows the normal-form section
    word at c."""
    spec = x.spec
    p = spec.p

    def children(letters):
        root, secs = _wreath_letters(spec, letters)
        return [((c + root) % p, secs[c]) for c in range(p)]

    return _unfold(p, n, x.letters, children)


@dataclass
class SubgroupDesc:
    """Named generating set; if normal_closure is set the subgroup is the
    normal closure of the generators in the whole group."""

    name: str
    generators: list[Element]
    normal_closure: bool = False
    spec: Optional[GroupSpec] = None

    def __post_init__(self):
        specs = {g.spec for g in self.generators}
        if self.spec is None:
            if len(specs) != 1:
                raise StructureError("SubgroupDesc needs a spec (empty or mixed generators)")
            self.spec = next(iter(specs))
        elif specs and specs != {self.spec}:
            raise StructureError("generators do not match the declared spec")


# ---------------------------------------------------------------------------
# label vectors: the wreath-power view of a level permutation


def _depth_start(p: int, d: int) -> int:
    """Breadth-first index of the first vertex at depth d; for d = n it is
    the number of vertices that carry a label."""
    return (p**d - 1) // (p - 1)


def _depth_of(p: int, pos: int) -> int:
    """Depth of the vertex at breadth-first index pos."""
    d = 0
    while _depth_start(p, d + 1) <= pos:
        d += 1
    return d


def _label_dtype(p: int):
    """int16 holds every label below 2^15; larger p needs int32."""
    return np.int16 if p <= 1 << 15 else np.int32


def _leaf_to_labels(arr: np.ndarray, p: int, n: int) -> np.ndarray:
    """Label-vector view of a leaf permutation: the cyclic shift it applies
    to each vertex's children, breadth-first.  Labels determine an element
    of the wreath power, so the permutation is one iff they rebuild it; if
    not, StructureError."""
    arr = np.asarray(arr, dtype=np.int64)
    lv = np.empty(_depth_start(p, n), dtype=_label_dtype(p))
    for d in range(n):
        bs = p ** (n - d)
        off = _depth_start(p, d)
        img = arr[np.arange(p**d, dtype=np.int64) * bs]
        lv[off : off + p**d] = (img % bs) // (bs // p)
    if not np.array_equal(_labels_to_leaf(lv, p, n), arr):
        raise StructureError("permutation is not in the wreath power of Z/p")
    return lv


def _labels_to_leaf(lv: np.ndarray, p: int, n: int) -> np.ndarray:
    """The leaf permutation with the given child shifts (the inverse of
    _leaf_to_labels): each leaf digit moves by the shift at its ancestor."""
    leaves = np.arange(p**n, dtype=np.int64)
    out = np.zeros_like(leaves)
    for d in range(n):
        step = p ** (n - 1 - d)
        shift = lv[_depth_start(p, d) + leaves // (step * p)]
        out += ((leaves // step + shift) % p) * step
    return out


def _verts_from_labels(lv: np.ndarray, p: int, n: int) -> np.ndarray:
    """Vertex map of the wreath-power element with breadth-first labels
    lv: child j of a vertex goes to child j + (its label) of the vertex's
    image."""
    vp = np.zeros(len(lv), dtype=np.int64)
    for d in range(n - 1):
        off, nxt = _depth_start(p, d), _depth_start(p, d + 1)
        img = (vp[off:nxt] - off)[:, None] * p
        shift = (np.arange(p, dtype=np.int64) + lv[off:nxt, None]) % p
        vp[nxt : nxt + p ** (d + 1)] = nxt + (img + shift).ravel()
    return vp


# ---------------------------------------------------------------------------
# packed label vectors


class _PackedVectors:
    """Label vectors of the n-fold wreath power of Z/p packed into one
    Python int each, label i in bits [i*F, (i+1)*F).  F = 1 at p = 2,
    where labels add by xor; for odd p, F = (p-1).bit_length() + 1 leaves
    a guard bit above 2p - 2, the largest sum of two labels.  Positions
    are breadth-first.

    A row power acts on a packed vector X as the product "first the row
    power, then X": X's labels are gathered through the power's vertex
    map, then the power's labels are added.  In breadth-first order the
    gather is a few masked rotations of sibling blocks, one per block
    width w = p^k for k = n-2-d down to 0 (widest first) when the row is
    keyed at depth d: at every position whose ancestor k + 1 levels up
    carries a label s, block j of that ancestor's descendants takes block
    j + s mod p, that is
    (X & keep) | ((X >> s*w*F) & lo_s) | ((X << (p-s)*w*F) & hi_s);
    at p = 2 this is a swap.  Widest first is the order of the gathers
    through the rotations of the root, then depth 1, and so on."""

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        self.V = V = _depth_start(p, n)
        self.F = F = 1 if p == 2 else (p - 1).bit_length() + 1
        self.fmask = (1 << F) - 1
        self.full = (1 << V * F) - 1
        # SWAR add: C = 2^(F-1) - p in every field lifts exactly the sums
        # of at least p into the guard bit H
        ones = self.full // self.fmask
        self._C = ones * ((1 << (F - 1)) - p)
        self._H = ones << (F - 1)
        # per block width p^k: for the positions at depth k + 1 and deeper,
        # the vertex whose label rotates them (int32, as V < 2^31) and their
        # block under it (a digit below p, in the least dtype that holds it)
        self._blocks = []
        for k in range(n - 1):
            anc, dig = [], []
            for t in range(k + 1, n):
                i = np.arange(p**t, dtype=np.int64)
                anc.append(_depth_start(p, t - 1 - k) + i // p ** (k + 1))
                dig.append(i // p**k % p)
            anc, dig = np.concatenate(anc), np.concatenate(dig)
            self._blocks.append((anc.astype(np.int32), dig.astype(np.min_scalar_type(p - 1))))

    def pack_rows(self, lv: np.ndarray) -> list[int]:
        """Packed form of each row of a 2-D array of labels (or of any
        fields below 2^F)."""
        F = self.F
        bits = (lv[:, :, None] >> np.arange(F, dtype=lv.dtype)) & 1
        raw = np.packbits(bits.reshape(len(lv), lv.shape[1] * F), axis=1, bitorder="little")
        return [int.from_bytes(r.tobytes(), "little") for r in raw]

    def pack(self, lv: np.ndarray) -> int:
        return self.pack_rows(lv[None])[0]

    def unpack(self, x: int) -> np.ndarray:
        V, F = self.V, self.F
        raw = np.frombuffer(x.to_bytes((V * F + 7) // 8, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")[: V * F].reshape(V, F)
        dt = _label_dtype(self.p)
        return (bits.astype(dt) << np.arange(F, dtype=dt)).sum(axis=1, dtype=dt)

    def add(self, x: int, y: int) -> int:
        """Fieldwise sum mod p: xor at p = 2, otherwise one integer add
        that then takes p from every field the offset C lifts into H."""
        if self.p == 2:
            return x ^ y
        z = x + y
        return z - (((z + self._C) & self._H) >> (self.F - 1)) * self.p

    def row_action(self, pl: np.ndarray, key: int):
        """What `act` needs of the row power with labels pl, keyed at
        position `key`: its rotations and its packed labels.  Key 0 suits
        any element of the wreath power."""
        p, n, F = self.p, self.n, self.F
        d = _depth_of(p, key)
        rots = []
        for k in range(n - 2 - d, -1, -1):
            w = p**k
            # only positions below depth d can move
            lo_pos = _depth_start(p, d + 1 + k)
            cut = lo_pos - _depth_start(p, k + 1)
            anc, dig = self._blocks[k][0][cut:], self._blocks[k][1][cut:]
            s = pl[anc]
            moved = s != 0
            if not moved.any():
                continue
            shifts = np.unique(s[moved]).tolist()
            masks = [moved]
            for sv in shifts:
                lo = (s == sv) & (dig < p - sv)
                masks += [lo, (s == sv) ^ lo]
            # a field of ones where a mask is set, placed at lo_pos
            fields = [
                m * self.fmask << lo_pos * F
                for m in self.pack_rows(np.array(masks, dtype=np.int16))
            ]
            moves = [
                (sv * w * F, fields[2 * j + 1], (p - sv) * w * F, fields[2 * j + 2])
                for j, sv in enumerate(shifts)
            ]
            rots.append((self.full ^ fields[0], moves))
        return rots, self.pack(pl)

    def element(self, lv: np.ndarray, key: int):
        """What `act` needs of the wreath-power element with labels lv,
        keyed at position `key` (see `row_action`), and of its inverse, and
        its support: the positions it relabels or moves, as a bit mask.
        The inverse takes the negated label of each vertex to that vertex's
        image."""
        p = self.p
        vp = _verts_from_labels(lv, p, self.n)
        vpi = invert_perm(vp)
        support = self.pack(((lv != 0) | (vp != np.arange(self.V))).astype(np.int16))
        return self.row_action(lv, key), self.row_action((-lv[vpi]) % p, key), support

    def act(self, action, x: int) -> int:
        """The packed product "first the row power, then x"."""
        rots, lab = action
        for keep, moves in rots:
            y = x & keep
            for down, lo, up, hi in moves:
                y |= ((x >> down) & lo) | ((x << up) & hi)
            x = y
        return self.add(x, lab)


# ---------------------------------------------------------------------------
# the pivot basis


class PivotBasis(NamedTuple):
    """Triangular basis of a subgroup of the n-fold wreath power of Z/p.

    Row i is an element whose breadth-first labels vanish before position
    keys[i] and equal 1 there; the labels determine its vertex map
    (`_verts_from_labels`).  Every element of the subgroup is a product of
    powers of the rows in key order, so the order is p ** (number of
    rows), and the rows from any position on generate the elements whose
    labels vanish before it.  acts[i][s] is what `packed.act` needs of
    the s-th power of row i (s = 1 .. p-1), so membership reduces exactly
    as the build does.
    """

    order: int
    p: int
    n: int
    keys: np.ndarray
    packed: _PackedVectors
    acts: list

    @property
    def labels(self) -> np.ndarray:
        """Rows x V labels (int16 up to p = 2^15), unpacked from each row's first power."""
        rows = [self.packed.unpack(a[1][1]) for a in self.acts]
        return np.array(rows, dtype=_label_dtype(self.p)).reshape(len(rows), self.packed.V)

    def tail(self, start: int) -> "PivotBasis":
        """Basis of the subgroup of elements whose labels vanish at every
        position before `start`."""
        i = int(np.searchsorted(self.keys, start))
        return self._replace(
            order=self.p ** (len(self.keys) - i),
            keys=self.keys[i:],
            acts=self.acts[i:],
        )

    def stabilizer(self, depth: int) -> "PivotBasis":
        """Basis of the level-`depth` stabilizer: the tail from the first
        vertex at that depth.  The group's level-`depth` image therefore has
        order `order // stabilizer(depth).order`."""
        return self.tail(_depth_start(self.p, depth))

    def member(self, perm: Union[LevelPerm, np.ndarray]) -> bool:
        """Exact membership: strip the leading label with a row power until
        nothing is left (member) or no row has that key (not a member).  A
        permutation outside the wreath power is not a member."""
        p, n, keys = self.p, self.n, self.keys
        if isinstance(perm, LevelPerm):
            if perm.n != n:
                raise LevelMismatch(f"basis level {n}, permutation level {perm.n}")
            perm = perm.images
        if len(perm) != p**n:
            raise LevelMismatch("degree mismatch")
        packed = self.packed
        F, fmask = packed.F, packed.fmask
        try:
            x = packed.pack(_leaf_to_labels(perm, p, n))
        except StructureError:
            return False
        while x:
            idx = ((x & -x).bit_length() - 1) // F
            r = int(np.searchsorted(keys, idx))
            if r == len(keys) or keys[r] != idx:
                return False
            x = packed.act(self.acts[r][p - ((x >> idx * F) & fmask)], x)
        return True


def tree_pivot_basis(
    gen_arrays: Sequence[np.ndarray],
    p: int,
    n: int,
    conj_arrays: Optional[Sequence[np.ndarray]] = None,
    depth_rows: Optional[Sequence[int]] = None,
) -> PivotBasis:
    """Pivot basis of the permutation group the arrays generate, assuming
    they respect the p-ary tree structure (checked); a generator may also
    be its label vector packed as `_PackedVectors(p, n)` packs it.  With
    `conj_arrays` the subgroup is first closed under conjugation by those
    permutations, so the result describes a normal closure.

    Each element's leading shift (first breadth-first vertex with a
    nonzero label) sits at a distinct vertex and is normalized to 1.
    Incoming material is reduced by multiplying away leading shifts with
    basis powers; whatever survives becomes a new basis element and is
    closed against p-th powers, commutators with the existing basis, and
    the conjugators.
    Once the work queue drains, the subgroups generated by basis tails
    form a chain with quotients of order exactly p (the tail elements all
    fix the next pivot vertex's shift), so the group order is
    p ** len(basis).

    Every element, row and conjugator lives only as a packed label vector
    (`_PackedVectors`): one Python int with F bits per label.  The next
    pivot is the lowest set bit divided by F.  A vertex map is never
    carried: it follows from the labels and is rebuilt only when a row is
    installed, to invert the row and to find its support.  Multiplying by
    an element permutes the labels by a few masked rotations of sibling
    blocks, widest first, and then adds the element's labels by xor at
    p = 2 or by a SWAR add mod p.  Each row keeps the rotations and labels
    of its powers and of its inverse, built when it is installed; the
    returned basis keeps those of the powers and the packing for
    `PivotBasis.member`.

    The commutators of a fresh basis element with the earlier rows are
    queued as a pending generator; when that entry is popped they are
    formed from the stored rows, three packed products each, and reduced
    before the next entry.  Rows never change once installed, so these
    commutators and their place in the FIFO order are those of the
    install step, while memory stays O(rows x V) for V label-carrying
    vertices: the rows and a queue of generators plus at most
    1 + len(conj_arrays) packed vectors per row.

    For p = 2 the deepest vertex band is elementary abelian: its elements
    are plain bit vectors, eliminated with bitset arithmetic, and band
    pairs, which commute, are skipped outright.  Its rows are closed under
    conjugation by the generators and the conjugators only, not by every
    top row.  A subgroup that a generating set normalizes is normal, so
    the band span is normalized by the whole group and, as it is abelian,
    every commutator of a top row with a band row lies in it.  The top
    rows never read the band rows, so they are those of any closure order;
    on return the band rows are put in reduced echelon form (no band row
    has a bit set at another's pivot), so they depend only on the band
    subgroup.

    `depth_rows`, if given, must bound from above, for each depth d, the
    number of rows keyed at depth d, which is log_p |St(d) : St(d+1)| for
    the group's level stabilizers St.  The rows keyed at depth d or deeper
    lie in St(d), and their products in key order are distinct, so once
    each of those depths has met its bound, those products are all of
    St(d).  From then on every item whose leading position lies at depth
    d or deeper reduces to the identity, as one more row would give more
    elements than St(d) has, so it is dropped unreduced; so are the
    commutators of two rows of which one is keyed there, which lie in
    St(d).  At p = 2 a full band ends the band elimination and clears its
    queue, and once every depth is full the build returns.  This is exact:
    rows never change once installed, so the keys and labels are those of
    a build that drains its queue."""
    V = _depth_start(p, n)
    packed = _PackedVectors(p, n)
    F, fmask, pack, act = packed.F, packed.fmask, packed.pack, packed.act
    # each conjugator as the actions of itself and of its inverse
    conjs, conj_invs = [], []
    for c_leaf in conj_arrays or ():
        ca, ca_inv, _ = packed.element(_leaf_to_labels(c_leaf, p, n), 0)
        conjs.append(ca)
        conj_invs.append(ca_inv)

    # the row index of each pivot position, None where there is none yet;
    # per row its key, the actions of its powers 1 .. p-1 and of its
    # inverse, and its support (the positions it relabels or moves) as a
    # bit mask
    key2row: list = [None] * V
    row_keys: list[int] = []
    row_acts: list[list] = []
    row_invs: list = []
    row_supports: list[int] = []

    # FIFO work: packed label vectors, or the pending generator of a new
    # row's commutators with the earlier rows; `batch` yields the popped
    # generator's commutators before the next entry
    work: deque = deque(
        g if isinstance(g, int) else pack(_leaf_to_labels(g, p, n)) for g in gen_arrays
    )
    batch = iter(())

    # the rows each depth may still take, and full_from, the first position
    # of the run of full depths that ends at the deepest one (V if none)
    room = None if depth_rows is None else list(depth_rows)
    full_depth, full_from = n, V

    def fill(d):
        """Count a row keyed at depth d and move full_from past the depths
        that are now full."""
        nonlocal full_depth, full_from
        if room is None:
            return
        room[d] -= 1
        while full_depth and not room[full_depth - 1]:
            full_depth -= 1
        full_from = _depth_start(p, full_depth)

    # the band of deepest vertices: for p = 2 its elements are plain bit
    # vectors (trivial vertex action), handled by integer xor elimination;
    # bot[pb] is the bitset keyed at band position pb
    bottom0 = _depth_start(p, n - 1) if p == 2 and n else V
    bot: list = [None] * (V - bottom0)
    botwork: deque = deque()
    # the vertex maps that close the band: the generators' and conjugators'
    movers = []
    if bot:
        movers = [packed.row_action(packed.unpack(g), 0)[0] for g in work]
        movers += [rots for rots, _ in conjs]

    def install_bottom(pb, bits):
        bot[pb] = bits
        fill(n - 1)
        if full_from <= bottom0:
            botwork.clear()
            return
        # its images under conjugation by every mover; the band only
        # exists at p = 2, where adding 0 is an xor
        for rots in movers:
            c = act((rots, 0), bits << bottom0) >> bottom0
            if c != bits:
                botwork.append(c)

    def reduce_bits(bits):
        while bits:
            pb = (bits & -bits).bit_length() - 1
            row = bot[pb]
            if row is None:
                install_bottom(pb, bits)
                return
            bits ^= row

    def commutators(k):
        """Packed nonzero commutators "first row j, then row k, then the
        inverse of row j, then that of row k" of row k with each earlier
        row j whose support meets it, unless one of the two is keyed at a
        full depth."""
        hk, hk_inv, sup = row_acts[k][1], row_invs[k][1], row_supports[k]
        for j in range(k):
            if row_supports[j] & sup and max(row_keys[j], row_keys[k]) < full_from:
                c = act(row_acts[j][1], act(hk, act(row_invs[j], hk_inv)))
                if c:
                    yield c

    def install(idx, s, x):
        """Install the packed element x, leading shift s at idx, as a row
        with shift 1 there, and queue its closure work."""
        h = x
        t = pow(s, -1, p)
        if t > 1:
            xa = packed.row_action(packed.unpack(x), idx)
            for _ in range(t - 1):
                h = act(xa, h)
        k = len(row_acts)
        key2row[idx] = k
        row_keys.append(idx)
        fill(_depth_of(p, idx))
        ha, inv, support = packed.element(packed.unpack(h), idx)
        acts, power = [None, ha], h
        for _ in range(p - 2):
            power = act(ha, power)
            acts.append(packed.row_action(packed.unpack(power), idx))
        row_acts.append(acts)
        row_invs.append(inv)
        row_supports.append(support)
        power = act(ha, power)
        if power:
            work.append(power)
        if k:
            work.append(commutators(k))
        for ca, ca_inv in zip(conjs, conj_invs):
            c = act(ca, act(ha, ca_inv[1]))
            # labels determine the vertex map, so equal labels mean equal
            if c != h:
                work.append(c)

    # without depth_rows, full_from is 0 only for n = 0, and the loop ends
    # when the queue drains
    while full_from:
        if botwork:
            reduce_bits(botwork.popleft())
            continue
        x = next(batch, None)
        if x is None:
            if not work:
                break
            x = work.popleft()
            if not isinstance(x, int):
                batch = x
                continue
        while x:
            idx = ((x & -x).bit_length() - 1) // F
            if idx >= full_from:
                break
            if idx >= bottom0:
                reduce_bits(x >> bottom0)
                break
            s = (x >> idx * F) & fmask
            row = key2row[idx]
            if row is None:
                install(idx, s, x)
                break
            x = act(row_acts[row][p - s], x)
    # the band in reduced echelon form, highest pivot first: a row with a
    # bit at a higher pivot takes that pivot's row, which is already
    # reduced and so carries no other higher pivot
    bot_keys = [pb for pb, bits in enumerate(bot) if bits is not None]
    pivots = 0
    for pb in reversed(bot_keys):
        bits = bot[pb]
        hits = bits & pivots
        while hits:
            q = (hits & -hits).bit_length() - 1
            bits ^= bot[q]
            hits ^= 1 << q
        bot[pb] = bits
        pivots |= 1 << pb
    # rows in key order; bottom-band rows act on labels only, by an xor
    top_keys = [key for key in range(bottom0) if key2row[key] is not None]
    keys = np.array(top_keys + [bottom0 + pb for pb in bot_keys], dtype=np.int64)
    acts = [row_acts[key2row[key]] for key in top_keys]
    acts += [[None, ([], bot[pb] << bottom0)] for pb in bot_keys]
    return PivotBasis(p ** len(keys), p, n, keys, packed, acts)


# ---------------------------------------------------------------------------
# group-level constructions


def group_desc(spec: GroupSpec) -> SubgroupDesc:
    return SubgroupDesc("G", generating_set(spec), False, spec)


def depth_row_bounds(spec: GroupSpec, n: int) -> Optional[list[int]]:
    """For each depth d < n, a proven upper bound on the number of rows of
    G_n's basis keyed at depth d, which is x_(d+1) - x_d for
    x_k = log_p |G_k|; read off one basis of G_s for s = m + 2, and None
    for n <= s.

    Below depth s the counts are exact: they are those of G_s's basis.
    Every section of an element of G lies in G.  An element g of
    St_G(d) fixes level d + 1 - s, so its action on level d + 1 is that of
    its sections at the p^(d+1-s) vertices of depth d + 1 - s on their
    subtrees of depth s; each section lies in G and fixes level s - 1.  So
    the kernel St_{G_(d+1)}(d) of G_(d+1) -> G_d embeds into
    St_{G_s}(s-1)^(p^(d+1-s)), and x_(d+1) - x_d <= p^(d+1-s) (x_s - x_(s-1))
    for d >= s - 1.

    Equality is the pattern-closure hypothesis (Sunic 2011), and it holds
    on every non-degenerate spec enumerated so far; only the inequality is
    used here.  On the dihedral spec it is loose."""
    p, s = spec.p, spec.m + 2
    if n <= s:
        return None
    base = chain_from(group_desc(spec), s)
    # rows[d]: the rows of G_s keyed at depth d or deeper
    rows = [len(base.stabilizer(d).keys) for d in range(s)] + [0]
    return [rows[d] - rows[d + 1] if d < s else rows[s - 1] * p ** (d + 1 - s) for d in range(n)]


def group_chain(spec: GroupSpec, n: int) -> PivotBasis:
    """Basis of the full level quotient G_n.  Above level m + 2 the build
    drops the work that falls in depths full to `depth_row_bounds` and
    stops once every depth is full, which gives the same basis as
    draining its queue."""
    gen_arrays = [level_perm(g, n).images for g in generating_set(spec)]
    return tree_pivot_basis(gen_arrays, spec.p, n, depth_rows=depth_row_bounds(spec, n))


def chain_from(desc: SubgroupDesc, n: int) -> PivotBasis:
    """Basis of the level-n image of the described subgroup.

    Normal closures are computed inside the level image: the generator
    images are closed under conjugation by the level images of the whole
    group's generators.  This equals the image of the symbolic normal
    closure because taking level images is a homomorphism.
    """
    spec = desc.spec
    check_level_cap(spec.p, n)
    gen_arrays = [level_perm(g, n).images for g in desc.generators]
    ambient = None
    if desc.normal_closure:
        ambient = [level_perm(g, n).images for g in generating_set(spec)]
    return tree_pivot_basis(gen_arrays, spec.p, n, conj_arrays=ambient)


def derived_chain(gen_arrays: Sequence[np.ndarray], p: int, n: int, k: int = 1) -> PivotBasis:
    """k-th derived subgroup of the level-n image that the leaf
    permutations `gen_arrays` generate.

    Each round takes commutators of the current generating set and closes
    them under conjugation by the original generators.  That gives the
    same subgroup as closing within the current term, because every
    derived term is normal in the starting group, and it keeps the
    conjugating set small across rounds.  One round's rows generate the
    next.  For i < j the commutator "first g_j, then g_i, then g_j^-1,
    then g_i^-1" is packed by three `act` calls from the actions of g_i,
    g_j and their inverses, read off their labels by
    `_PackedVectors.element` (a row's order can
    exceed p, so its inverse is not its (p-1)-th power).  Pairs with
    disjoint support commute and are skipped, as are trivial commutators.
    """
    if k < 1:
        raise ValueError("derivation depth must be >= 1")
    packed = _PackedVectors(p, n)
    act = packed.act
    # the current generators: labels, and the key before which they vanish
    cur = [(_leaf_to_labels(g, p, n), 0) for g in gen_arrays]
    for _ in range(k):
        elems = [packed.element(lv, key) for lv, key in cur]
        comms = [
            act(gj, act(gi, act(gj_inv, gi_inv[1])))
            for i, (gi, gi_inv, sup) in enumerate(elems)
            for gj, gj_inv, sup_j in elems[i + 1 :]
            if sup & sup_j
        ]
        out = tree_pivot_basis([c for c in comms if c], p, n, conj_arrays=gen_arrays)
        cur = list(zip(out.labels, out.keys.tolist()))
        if not cur:
            break
    return out


# ---------------------------------------------------------------------------
# stabilizers in derived terms


@dataclass(frozen=True)
class StabDerivedEntry:
    stab_level: int
    derivation: int
    stabilizer_order: int
    derived_order: int
    contained: bool


@dataclass(frozen=True)
class StabDerivedReport:
    p: int
    m: int
    n: int
    entries: tuple[StabDerivedEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.contained for e in self.entries)


def stab_in_derived_check(spec: GroupSpec, n: int) -> StabDerivedReport:
    """Congruence checks at level n: the level-(m+1) stabilizer lies in the
    derived subgroup; for odd p the level-(m+3) stabilizer also lies in
    the second derived subgroup.

    The first inclusion is proved, not computed.  By the lemma in
    `density_check`, for n >= m + 1 the map G_n/G_n' -> G_{m+1}/G_{m+1}'
    is an isomorphism, so G_n' is the kernel of G_n -> G_{m+1}/G_{m+1}',
    of index p^(m+1), and it contains St_{G_n}(m+1), the kernel of
    G_n -> G_{m+1}.  The same holds in G, whose abelianization is also
    generated by a and B of order p and maps onto G_{m+1}/G_{m+1}': so
    St_G(m+1) <= G'.  The first entry reads both orders off G_n's basis,
    which stops at `depth_row_bounds` as in `group_chain`; at odd p,
    `derived_chain` reuses its level-n generator images.

    The second inclusion is checked at level n, an exact necessary
    condition for the group-level one (level images of stabilizers
    surject onto the kernels between finite levels).
    """
    if spec.is_degenerate:
        raise DegenerateCase("(2, 1) is excluded from the congruence checks")
    p, m = spec.p, spec.m
    ell = m + 3 if p > 2 else m + 1  # the deepest stabilizer level checked
    if n <= ell:
        raise ValueError(f"need n > {ell} for this spec")
    gen_arrays = [level_perm(g, n).images for g in generating_set(spec)]
    chain = tree_pivot_basis(gen_arrays, p, n, depth_rows=depth_row_bounds(spec, n))
    entries = [
        StabDerivedEntry(
            m + 1, 1, chain.stabilizer(m + 1).order, chain.order // p ** (m + 1), True
        )
    ]
    if p > 2:
        derived = derived_chain(gen_arrays, p, n, 2)
        # the derived image lies in the level image, so its tail is its
        # intersection with the stabilizer, which is the stabilizer's
        # image exactly when the orders agree
        kernel_order = chain.stabilizer(ell).order
        contained = derived.stabilizer(ell).order == kernel_order
        entries.append(StabDerivedEntry(ell, 2, kernel_order, derived.order, contained))
    return StabDerivedReport(p, m, n, tuple(entries))


# ---------------------------------------------------------------------------
# branch and density checks


def branch_group_desc(spec: GroupSpec) -> SubgroupDesc:
    """The branching subgroup: for p = 2 (m >= 2) the normal closure of the
    commutators of a with the basis letters e_1, ..., e_{m-1} of
    rho(ker omega) (rho e_i = e_{i+1}, see `GroupSpec`); for odd p the
    derived subgroup as a normal closure of generator commutators."""
    if spec.is_degenerate:
        raise DegenerateCase("(2, 1) has no branching subgroup here")
    a = gen_a(spec)
    if spec.p == 2:
        gens = [commutator(a, gen_b(spec, i)) for i in range(1, spec.m)]
        return SubgroupDesc("K", gens, True, spec)
    gens = [commutator(a, x) for x in basis_gens(spec)]
    return SubgroupDesc("Gprime", gens, True, spec)


def branch_pair_check(spec: GroupSpec, n: int) -> bool:
    """For each defining generator k of the branching subgroup, embed its
    level-(n-1) permutation into one child subtree (identity elsewhere) and
    test membership in the subgroup's level-n image; true iff all p slots
    of all generators pass."""
    if n < 1:
        raise ValueError("need n >= 1")
    desc = branch_group_desc(spec)
    chain = chain_from(desc, n)
    p = spec.p
    block = p ** (n - 1)
    for k in desc.generators:
        small = level_perm(k, n - 1).images
        for slot in range(p):
            embedded = np.arange(p**n, dtype=np.int64)
            embedded[slot * block : (slot + 1) * block] = small + slot * block
            if not chain.member(embedded):
                return False
    return True


def density_check(spec: GroupSpec, H: SubgroupDesc, n: int) -> bool:
    """Whether the level-n images of H and of the whole group coincide.
    H lies in G, so equal orders at level L = min(n, m + 1) decide it;
    nothing above level m + 1 is built, which is exact because:

    - G_n is generated by a and B = F_p^m, all of order p, so G_n/G_n' is
      elementary abelian of order at most p^(m+1) and Phi(G_n) = G_n'.
    - At level m + 1 the label sum at each depth 0..m is a homomorphism
      of the wreath power, sending a to e_0 and b_x to
      (0, w(x), w(rho x), ..., w(rho^(m-1) x)).  These are independent:
      the matrix (w(rho^k e_j)) is anti-triangular with a unit
      anti-diagonal (the faithfulness lemma in `GroupSpec`).
    - So |G_{m+1} : G_{m+1}'| = p^(m+1), and for every n >= m + 1 the
      map G_n/G_n' -> G_{m+1}/G_{m+1}' is an isomorphism.
    - By Burnside's basis theorem H_n = G_n iff H_n Phi(G_n) = G_n iff
      H_{m+1} Phi(G_{m+1}) = G_{m+1} iff H_{m+1} = G_{m+1}."""
    level = min(n, spec.m + 1)
    return chain_from(H, level).order == group_chain(spec, level).order
