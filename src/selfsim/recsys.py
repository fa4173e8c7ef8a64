"""Tree automorphisms given by finite systems of recursion equations.

Some automorphisms that arise as conjugators live outside the group itself
but still have finite descriptions: each symbol S expands as a root cycle
power together with p sections, every section being a group element times
another symbol.  Unfolding the equations with `permq._unfold`, depth by
depth over the distinct (residual word, symbol) states of each depth,
yields exact level permutations, which is enough to test claimed
conjugation identities to a chosen depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import GroupSpec
from .errors import SpecMismatch
from .elements import Element, _concat, _wreath_letters, identity, multiply, power
from .boundary import check_odd_q, witness_pair
from .permq import LevelPerm, _unfold, check_level_cap, invert_perm, level_perm


@dataclass(frozen=True)
class RecEquation:
    """S = a^root_exp (w_0 S_{j_0}, ..., w_{p-1} S_{j_{p-1}})."""

    root_exp: int
    section_words: tuple[Element, ...]
    section_symbols: tuple[str, ...]


class RecSystem:
    """A finite self-referential description of a tree automorphism."""

    __slots__ = ("spec", "equations", "root_symbol")

    def __init__(
        self,
        spec: GroupSpec,
        equations: dict[str, RecEquation],
        root_symbol: str,
    ):
        p = spec.p
        for name, eq in equations.items():
            if len(eq.section_words) != p or len(eq.section_symbols) != p:
                raise ValueError(f"symbol {name!r} must have exactly {p} sections")
            for w in eq.section_words:
                if w.spec != spec:
                    raise SpecMismatch("section word over a different spec")
            for s in eq.section_symbols:
                if s not in equations:
                    raise ValueError(f"symbol {name!r} references undefined {s!r}")
        if root_symbol not in equations:
            raise ValueError(f"undefined root symbol {root_symbol!r}")
        self.spec = spec
        self.equations = dict(equations)
        self.root_symbol = root_symbol

    def __repr__(self) -> str:
        return f"RecSystem(root={self.root_symbol!r}, symbols={sorted(self.equations)})"


def build_conjugator(spec: GroupSpec, q: int) -> RecSystem:
    """The automorphism g with sections ((ba)^((q-1)/2) g, g) at a trivial
    root, where b is the dihedral witness.  Conjugation by g carries the
    index-q line subgroup's generating pair onto standard generators."""
    check_odd_q(q, 3)
    a, b = witness_pair(spec)
    w = power(multiply(b, a), (q - 1) // 2)
    eq = RecEquation(0, (w, identity(spec)), ("G0", "G0"))
    return RecSystem(spec, {"G0": eq}, "G0")


_State = tuple[tuple[int, ...], str]


def _children(r: RecSystem, state: _State) -> list[tuple[int, _State]]:
    """Out-edge chars and successor states for each input char 0..p-1,
    read off one wreath pass over the residual word."""
    spec = r.spec
    p = spec.p
    letters, symbol = state
    u_root, secs = _wreath_letters(spec, letters)
    eq = r.equations[symbol]
    out = []
    for c in range(p):
        mid = (c + eq.root_exp) % p
        child_u = _concat(spec, secs[mid], eq.section_words[c].letters)
        out.append(((mid + u_root) % p, (child_u, eq.section_symbols[c])))
    return out


def rec_level_perm(r: RecSystem, n: int) -> LevelPerm:
    """Exact permutation the system induces on level n (the depth-wise
    unfold of `permq._unfold`)."""
    return _unfold(r.spec.p, n, ((), r.root_symbol), lambda state: _children(r, state))


def conjugation_disagreement_level(
    r: RecSystem, x: Element, y: Element, depth: int = 12
) -> Optional[int]:
    """First level in 1..depth where r^-1 x r and y differ, or None.

    Level images of r are inverted as permutations, so the comparison is
    exact even though r itself is not a group element.  All three act on
    the tree, so one build at level `depth` serves every level k: the
    level-k image of vertex v is the level-depth image of the leaf
    v p^(depth-k), divided by p^(depth-k).
    """
    if x.spec != r.spec or y.spec != r.spec:
        raise SpecMismatch("elements over a different spec")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    p = r.spec.p
    check_level_cap(p, depth)
    Pr = rec_level_perm(r, depth).images
    conj = invert_perm(Pr)[level_perm(x, depth).images[Pr]]
    Py = level_perm(y, depth).images
    for k in range(1, depth + 1):
        step = p ** (depth - k)
        if not np.array_equal(conj[::step] // step, Py[::step] // step):
            return k
    return None
