"""Brute-force oracles for the level quotients: plain product closure of
permutations, independent of the pivot basis they check."""


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
