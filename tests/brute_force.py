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
