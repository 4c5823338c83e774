"""Brute-force reference implementations used only by the test suite.

Everything here is deliberately independent of the package internals:
convex-hull membership goes through Caratheodory subsets with a local
Gaussian elimination, so polytope degrees and weights can be cross-checked
against a second code path.  The determinant references either expand over
permutations or run every ring operation through ZqPi objects, skipping
nothing, with each product by `oracle_zqpi_mul` (the cap rule and a Z_q
multiply-accumulate loop), where the library's kernel works on bare scalars
and series and ZqPi.mul is that kernel's series product.  The leading-minor
reference reads every leading minor off one division-free Berkowitz pass,
where the library eliminates with valuation pivots once per degree cutoff.
The torus reference visits every point, with neither the library's row walk
nor its Frobenius-orbit reduction.  The binomial reference builds every
falling factorial trace by trace, where the library goes through power
moments and Stirling numbers.  The quotient-ring references multiply
polynomials in full and long-divide by the modulus, where the library
packs each operand into one integer, W bits a coefficient, and folds the
product's high slots in through packed rows of x^(d+i); the exp reference
runs the recurrence on plain dicts with a double loop per product and the
window carried by hand, where the library takes each step as one packed
sum of products; the reduction references
long-divide a T-series head by a monic integer polynomial mod p^M, or
substitute T = pi by Horner's rule with a full CycElement product per
step, where the library reduces a coefficient list by one x-step per
coefficient.  The splitting-kernel references exponentiate a general log
series by the full derivative recurrence and revert E(pi) - 1 = T in exact
rationals, where the library uses the Artin-Hasse shortcut and substitutes
T = E(pi) - 1 the other way.
The criterion reference expands the kernel product on every cone point to
a pi-cap past the largest cell degree and divides each coefficient by
pi^deg(u) as a ZqPi over Fraction degrees, where the library expands only
the exact-degree terms on the integer degree grid.  The kernel reference
expands every monomial to the global pi-cap and the transfer-matrix
reference reads its entries from that, where the library expands only the
pi-digits each matrix cell reads.  The field-search references run the
x^(p^a) irreducibility test on every candidate and test g^(q-1) = 1 on every
candidate generator; they are also the one search behind the library's
committed presentations (scripts/field_presentations.py), which it reads
with no search for a >= 2.  The embedding-root references look at every
element of the big field, or walk the powers of h = g^((Q-1)/(q-1)) by
field products, where the library reads the big field's kept walk of
them (subfield_logs).
The trace-table reference steps the power-sum recurrence one entry at a
time, where the library advances a whole packed block per big-int step.
The coefficient-orbit reference applies every torus scaling and Frobenius
power to a coefficient vector, where the library reduces discrete logs
against a Hermite basis of the scaling lattice; the basis reference runs
Euclid column by column, where the library reads the basis off the
integer column echelon that also gives Newton polytopes their kernels.
The face references evaluate every facet equation at every point, where
the library intersects the facets' point sets; the torus-zero reference
evaluates a face's gradient at every point of the tori over F_q and
F_{q^2}, where the library first tries certificates that need no search.  The polygon references
read the agreement prefix of the two hulls over their whole common range
and cut it afterwards, and give dominance and each half of the verdict a
window and a checkpoint set of their own, each value a scan of Fraction
vertices, where the library walks one merged pass over two integer-grid
hulls per comparison, over one window function.

The rest are library code the package itself never calls, kept here as
references: pi-shifts and cap cuts of a ZqPi, the L-function as an Euler
product over closed points (traces through fresh Teichmuller lifts per
point), the division-free inverse of the exp recurrence, slope multisets
with their convolution, Frobenius powers, polygon edges and two-sided
polygon equality, exact polygon readings (polygons read from Fraction
vertex lists) and a hull's value by a scan of its edges, the ambient point
of reduced coordinates, polytope degrees as Fractions (of reduced points,
checked against the cone, and of unreduced points) with the cofacial
defect and the NotInConeError they raise, and the exponent of the degree
monoid.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import mul
from typing import Optional

import math

from tadic import dwork
from tadic.arith import (
    CycElement,
    _mul_rows,
    _reduction_rows,
    binomial_guard,
    one_plus_T_pow,
    prime_factors,
    teichmuller_lift,
)
from tadic.dwork import (
    CRITERION_DIM_LIMIT,
    DIM_LIMIT,
    ZqPi,
    _cone_prefix,
    _lifted_factors,
    _ZqScalars,
    artin_hasse,
    e_factor,
)
from tadic.errors import (
    DomainError,
    IntegralityError,
    PrecisionError,
    TheoremViolation,
)
from tadic.polytope import DegreeData, LaurentPoly, newton_data
from tadic.series import (
    NewtonPolygon,
    SSeries,
    TSeries,
    lower_hull,
    polygon_dominates,
    power,
    vp,
)
from tadic.sums import TORUS_LIMIT, _orbit_size


def _solve_unique(columns, target):
    """Solve the linear system with the given columns if the solution is
    unique; None when inconsistent or underdetermined."""
    rows = len(target)
    cols = len(columns)
    A = [[Fraction(columns[j][i]) for j in range(cols)] + [Fraction(target[i])] for i in range(rows)]
    pivots = []
    used = set()
    for c in range(cols):
        pr = next((i for i in range(rows) if i not in used and A[i][c] != 0), None)
        if pr is None:
            return None  # free column: not unique
        used.add(pr)
        pivots.append((pr, c))
        inv = 1 / A[pr][c]
        A[pr] = [v * inv for v in A[pr]]
        for i in range(rows):
            if i != pr and A[i][c] != 0:
                f = A[i][c]
                A[i] = [v - f * w for v, w in zip(A[i], A[pr])]
    for i in range(rows):
        if i not in used and A[i][cols] != 0:
            return None
    sol = [Fraction(0)] * cols
    for pr, c in pivots:
        sol[c] = A[pr][cols]
    return sol


def in_convex_hull(points, x):
    """Exact membership of x in conv(points) via Caratheodory subsets."""
    x = tuple(Fraction(c) for c in x)
    pts = [tuple(Fraction(c) for c in p) for p in points]
    dim = len(x)
    for size in range(1, dim + 2):
        for subset in combinations(pts, size):
            cols = [p + (Fraction(1),) for p in subset]
            lam = _solve_unique(cols, x + (Fraction(1),))
            if lam is not None and all(l >= 0 for l in lam):
                return True
    return False


def oracle_degree(delta_points, u, D, kmax):
    """min{k/D : u in (k/D)*Delta} by direct scaled-hull membership, or None."""
    u = tuple(Fraction(c) for c in u)
    for k in range(kmax + 1):
        c = Fraction(k, D)
        if c == 0:
            if all(v == 0 for v in u):
                return Fraction(0)
            continue
        scaled = [tuple(c * Fraction(v) for v in p) for p in delta_points]
        if in_convex_hull(scaled, u):
            return c
    return None


def oracle_cone_count(delta_points, D, K, box):
    """Number of integer points in the box with oracle degree <= K/D."""
    from itertools import product

    count = 0
    for u in product(*[range(-box, box + 1) for _ in delta_points[0]]):
        d = oracle_degree(delta_points, u, D, K)
        if d is not None:
            count += 1
    return count


def oracle_zqpi_mul(x: ZqPi, y: ZqPi) -> ZqPi:
    """The product of two ZqPi by its cap rule and a Z_q multiply-accumulate
    loop: the cap is min(capA + ordB, capB + ordA), with a zero operand's
    cap standing in for its ord, and every pair of stored terms below that
    cap meets once through ctx.zq_mul and ctx.zq_add."""
    assert x.ctx is y.ctx and x.den == y.den
    prec = min(x.prec, y.prec)
    ox = min(x.coeffs) if x.coeffs else x.cap
    oy = min(y.coeffs) if y.coeffs else y.cap
    cap = min(x.cap + oy, y.cap + ox)
    ctx = x.ctx
    out = {}
    for i, s in x.coeffs.items():
        for j, t in y.coeffs.items():
            k = i + j
            if k >= cap:
                continue
            v = ctx.zq_mul(s, t, prec)
            out[k] = ctx.zq_add(out[k], v, prec) if k in out else v
    return ZqPi(ctx, prec, cap, out, x.den)


def oracle_berkowitz(entries, zero, one, keep):
    """First keep+1 coefficients of det(1 - A*s) over ZqPi entries.

    The reference for the library's bare-ring kernel: every product is
    oracle_zqpi_mul and every sum a ZqPi sum, with nothing skipped.  Row by
    row, the vector of the leading r x r block is the previous one
    convolved with (1, -a_rr, -s_0, -s_1, ...), where s_j is
    row*block^j*column.
    """
    cv = [one]
    n = len(entries)
    for r in range(1, n + 1):
        a_rr = entries[r - 1][r - 1]
        col = [entries[i][r - 1] for i in range(r - 1)]
        toep = [one, a_rr.neg()]
        for j in range(keep - 1):
            if not col:
                break
            toep.append(_oracle_dot(entries[r - 1][: r - 1], col, zero).neg())
            if j + 2 <= keep - 1:
                col = [_oracle_dot(entries[i][: r - 1], col, zero) for i in range(r - 1)]
        new = []
        for m in range(min(r, keep) + 1):
            acc = None
            for i in range(max(0, m - len(toep) + 1), min(m, len(cv) - 1) + 1):
                t = oracle_zqpi_mul(cv[i], toep[m - i]) if m - i > 0 else cv[i]
                acc = t if acc is None else acc.add(t)
            new.append(acc if acc is not None else zero)
        cv = new
    while len(cv) < keep + 1:
        cv.append(zero)
    return cv


def _oracle_dot(row, col, zero):
    acc = None
    for x, y in zip(row, col):
        t = oracle_zqpi_mul(x, y)
        acc = t if acc is None else acc.add(t)
    return acc if acc is not None else zero


def oracle_trace(entries, zero, k):
    """Tr(A^k) over ZqPi entries by plain matrix powers."""
    n = len(entries)
    cols = [[entries[i][j] for i in range(n)] for j in range(n)]
    power = [list(row) for row in entries]
    for _ in range(k - 1):
        power = [[_oracle_dot(row, col, zero) for col in cols] for row in power]
    acc = zero
    for i in range(n):
        acc = acc.add(power[i][i])
    return acc


def oracle_det(ctx, prec, grid):
    """Determinant of a matrix of Z_q tuples mod p^prec by the Leibniz
    expansion over permutations (small matrices only)."""
    from itertools import permutations

    n = len(grid)
    pm = ctx.p**prec
    total = (0,) * ctx.a
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = (1,) + (0,) * (ctx.a - 1)
        for i, j in enumerate(perm):
            term = ctx.zq_mul(term, grid[i][j], prec)
        if inversions % 2:
            term = tuple(-c % pm for c in term)
        total = ctx.zq_add(total, term, prec)
    return total


def leading_minors(sc, rows):
    """det of every leading r x r block, r = 0..n, over _ZqScalars `sc`,
    from one division-free Berkowitz pass with nothing skipped: the vector
    of det(1 - A_r*s) is the previous one convolved with (1, -a_rr, -s_0,
    ..., -s_(r-2)), s_j = row*block^j*column, and det(A_r) = (-1)^r [s^r]
    det(1 - A_r*s)."""

    def dot(xs, ys):
        return sc.dot(list(zip(xs, ys)), sc.zero)

    dets, cv = [sc.one], [sc.one]
    for w, row in enumerate(rows):
        col = [rows[i][w] for i in range(w)]
        toep = [sc.one, sc.neg(row[w])]
        for _ in range(w):
            toep.append(sc.neg(dot(row[:w], col)))
            col = [dot(rows[i][:w], col) for i in range(w)]
        cv = [dot(cv[: m + 1], toep[m::-1]) for m in range(w + 2)]
        dets.append(sc.neg(cv[-1]) if w % 2 == 0 else cv[-1])
    return dets


def oracle_recurrence_trace_table(big, prec):
    """Tr(teich(g)^j) mod p^prec for j = 0..q-2 as the power sums of
    chi(x) = prod_{i<d} (x - w^(p^i)), w = teich(g), d = [F:F_p]: s_1..s_d
    by Newton's identities, then one entry per step of the order-d
    recurrence chi(w) = 0, d multiply-adds each."""
    p, d = big.p, big.a
    pm = p**prec
    Q1 = big.q - 1
    conj = teichmuller_lift(big, big.generator, prec)
    chi = [big.one()]  # Z_q coefficients, lowest first
    for i in range(d):
        if i:
            conj = big.zq_pow(conj, p, prec)
        nxt = [big.zero()] + chi
        for e, c in enumerate(chi):
            wc = big.zq_mul(conj, c, prec)
            nxt[e] = tuple((u - v) % pm for u, v in zip(nxt[e], wc))
        chi = nxt
    if any(any(c[1:]) for c in chi):
        raise AssertionError("characteristic polynomial of teich(g) is not over Z_p")
    c = [co[0] for co in chi[:d]]
    s = [d % pm]
    for k in range(1, min(d, Q1 - 1) + 1):
        s.append(-(k * c[d - k] + sum(c[d - i] * s[k - i] for i in range(1, k))) % pm)
    neg_c = [-ci for ci in c]
    for k in range(len(s), Q1):
        s.append(sum(map(mul, neg_c, s[k - d : k])) % pm)
    return tuple(s)


def oracle_torus_trace_counts(f, k, prec):
    """{Tr(f^(x)) mod p^prec: count} over every point of the torus of
    F_{q^k}, one point at a time.

    Traces of teich(g)^j come from a zq_mul/zq_trace walk and the
    coefficients' discrete logs from a walk over all powers of g, so
    nothing is shared with the library's trace table or its walk.
    """
    ctx = f.ctx
    big = ctx.ext(k)
    Q1 = big.q - 1
    pm = ctx.p**prec
    w = tuple(big.generator)
    for _ in range(prec + 2):  # Teichmuller lift: fixed point of t -> t^q
        w = big.zq_pow(w, big.q, prec)
    traces = []
    dlog = {}
    cur, g = tuple(big.one()), big.one()
    for j in range(Q1):
        traces.append(big.zq_trace(cur, prec))
        dlog[g] = j
        cur = big.zq_mul(cur, w, prec)
        g = big.mul(g, big.generator)
    phi = ctx.embed_into(big)
    terms = [(dlog[phi(c)], u) for u, c in f.terms]
    counts = {}
    for jvec in product(range(Q1), repeat=f.n):
        t = sum(traces[(cl + sum(a * b for a, b in zip(u, jvec))) % Q1] for cl, u in terms)
        counts[t % pm] = counts.get(t % pm, 0) + 1
    return counts


def oracle_scaling_basis(exps, Q1):
    """A triangular basis of U*Z^n + Q1*Z^r (rows of U the exponent
    vectors), column by column: column i's pivot is the gcd, by Euclid's
    steps on whole rows, of Q1*e_i and the generators left from column
    i - 1, the columns of U first, and entries past a pivot are kept mod
    Q1.  Its rows differ from the library's past the pivots, but its
    pivots and reduced representatives do not."""
    r = len(exps)
    gens = [[u[j] % Q1 for u in exps] for j in range(len(exps[0]))]
    basis = []
    for i in range(r):
        piv = [0] * r
        piv[i] = Q1
        left = []
        for v in gens:
            while v[i]:
                t = piv[i] // v[i]
                piv, v = v, [x - t * y for x, y in zip(piv, v)]
            left.append([x % Q1 for x in v])
        basis.append((0,) * i + (piv[i],) + tuple(x % Q1 for x in piv[i + 1 :]))
        gens = left
    return tuple(basis)


def oracle_face_points(dd, facets):
    """The points of dd.red_points on every one of ``facets``, by
    evaluating each facet's equation at every point."""
    return tuple(
        q
        for q in dd.red_points
        if all(sum(a * b for a, b in zip(f.normal, q)) == f.offset for f in facets)
    )


def oracle_closed_faces(dd):
    """dd.closed_faces() with each face's points found by oracle_face_points."""
    seen = {}
    for size in range(1, len(dd.facets) + 1):
        for combo in combinations(dd.facets, size):
            pts = oracle_face_points(dd, combo)
            if pts:
                seen.setdefault(pts)
    return tuple(seen)


def _unit_powers(big):
    """The units of ``big`` and, for each, its powers x^0..x^(Q-2) by
    repeated field products (Q = |big|), so x^e is row[e % (Q - 1)] for
    every integer e."""
    units = [x for x in big.elements() if x != big.zero()]
    rows = []
    for x in units:
        row = [big.one()]
        for _ in range(len(units) - 1):
            row.append(big.mul(row[-1], x))
        rows.append(row)
    return units, rows


def _partials_in(g: LaurentPoly, big):
    """The partial derivatives of g as (exponent, coefficient) lists, each
    coefficient embedded into ``big``."""
    ctx = g.ctx
    phi = ctx.embed_into(big)
    return [
        [
            (tuple(e - (j == i) for j, e in enumerate(u)), big.mul(phi(ctx.from_int(u[i])), phi(c)))
            for u, c in g.terms
            if u[i] % ctx.p
        ]
        for i in range(g.n)
    ]


def is_torus_zero(g: LaurentPoly, codes, r: int) -> bool:
    """Whether the point of (F_{q^r}^x)^n with encodings ``codes`` is a
    common zero of every partial derivative of g, by field products and
    powers."""
    big = g.ctx.ext(r)
    point = [big.decode(c) for c in codes]
    if big.zero() in point:
        return False
    for d in _partials_in(g, big):
        acc = big.zero()
        for e, c in d:
            for x, ei in zip(point, e):
                c = big.mul(c, big.pow(x, ei))
            acc = big.add(acc, c)
        if acc != big.zero():
            return False
    return True


def oracle_torus_zero(g: LaurentPoly, max_r: int = 2):
    """(point, r): a common zero of every partial derivative of g on
    (F_{q^r}^x)^n for the least r <= max_r that has one, or None.  Every
    point is visited and every monomial is a product of field powers,
    with no discrete log and no certificate."""
    for r in range(1, max_r + 1):
        big = g.ctx.ext(r)
        partials = _partials_in(g, big)
        units, rows = _unit_powers(big)
        Q1 = len(units)
        for point in product(range(Q1), repeat=g.n):
            for d in partials:
                acc = big.zero()
                for e, c in d:
                    for k, ei in zip(point, e):
                        c = big.mul(c, rows[k][ei % Q1])
                    acc = big.add(acc, c)
                if acc != big.zero():
                    break
            else:
                return tuple(units[k] for k in point), r
    return None


def coefficient_orbits(ctx, exps) -> dict:
    """{coefficient vector: orbit number} for every vector of units on the
    support ``exps``, orbits under c_i -> lambda^(u_i) * c_i^(p^s) for
    lambda in (F_q^*)^n and s < a.

    Each orbit is listed by applying every group element to its first
    vector, with field products and powers only: no discrete logs and no
    lattice.
    """
    units = [x for x in ctx.elements() if x != ctx.zero()]
    scalings = []
    for lam in product(units, repeat=len(exps[0])):
        row = []
        for u in exps:
            c = ctx.one()
            for x, e in zip(lam, u):
                c = ctx.mul(c, ctx.pow(x, e))
            row.append(c)
        scalings.append(row)
    orbit_of = {}
    count = 0
    for vec in product(units, repeat=len(exps)):
        if vec in orbit_of:
            continue
        count += 1
        for s in range(ctx.a):
            frob = [ctx.pow(c, ctx.p**s) for c in vec]
            for row in scalings:
                orbit_of[tuple(map(ctx.mul, row, frob))] = count
    return orbit_of


def oracle_binomial_sum(counts, p, M_out, N, t_prec):
    """sum of c * (1+T)^t over {t: c} mod (p^M_out, T^N), one falling
    factorial t(t-1)...(t-j+1) mod p^t_prec per trace and per j, each
    checked on its own to be divisible by the p-part of j!."""
    big = p**t_prec
    out_mod = p**M_out
    ts = list(counts)
    cs = [counts[t] for t in ts]
    falling = [1] * len(ts)
    coeffs = {0: sum(cs)}
    fact_v, fact_unit = 0, 1
    for j in range(1, N):
        falling = [x * (t - (j - 1)) % big for x, t in zip(falling, ts)]
        v = vp(j, p)
        fact_v += v
        fact_unit = fact_unit * (j // p**v) % out_mod
        pv = p**fact_v
        if pv > 1 and any(x % pv for x in falling):
            raise IntegralityError(f"binom(t,{j}) not p-integral at working precision")
        total = sum(map(mul, cs, falling))
        coeffs[j] = (total // pv) * pow(fact_unit, -1, out_mod) % out_mod
    return TSeries(p, M_out, N, coeffs)


def _oracle_remainder(f, g, modulus):
    """f mod (g, modulus) by schoolbook long division; g is the full
    coefficient list of a monic polynomial, low degree first."""
    r = list(f)
    d = len(g) - 1
    for top in range(len(r) - 1, d - 1, -1):
        c = r[top]
        for i, gi in enumerate(g):
            r[top - d + i] -= c * gi
    return [c % modulus for c in r[:d]]


def oracle_mulmod(x, y, low, modulus):
    """x * y in (Z/modulus)[t]/(g), g = t^d + sum low[i] t^i: the full
    product of the two polynomials, then long division by g."""
    prod = [0] * (len(x) + len(y) - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            prod[i + j] += u * v
    return tuple(_oracle_remainder(prod, list(low) + [1], modulus))


def poly_remainder(ts: TSeries, g, p: int, M: int):
    """Remainder of the known head of a T-series modulo monic integer g,
    coefficients mod p^M, by long division; shorter than deg g when the
    head is."""
    pm = p**M
    deg = len(g) - 1
    x = [ts.coeff(j) % pm for j in range(ts.cap)]
    for i in range(len(x) - 1, deg - 1, -1):
        c = x[i]
        if c:
            x[i] = 0
            for t in range(deg):
                x[i - deg + t] = (x[i - deg + t] - c * g[t]) % pm
    return x[:deg]


def cyc_horner(ts: TSeries, cyc, prec: int):
    """The head of a T-series at T = pi by Horner's rule over CycElements,
    one full product per coefficient; pi = -2 when e = 1 (zeta_2 = -1)."""
    pi = CycElement(cyc, prec, (0, 1) + (0,) * (cyc.e - 2) if cyc.e > 1 else (-2,))
    acc = cyc.zero(prec)
    for j in range(ts.cap - 1, 0, -1):
        acc = acc.add(cyc.from_int(ts.coeff(j), prec))
        acc = acc.mul(pi)
    return acc.add(cyc.from_int(ts.coeff(0), prec))


def oracle_smallest_irreducible(p, a):
    """Non-leading coefficients of the monic irreducible of degree a over
    F_p whose encoding sum c_i p^i is smallest, found by trial division by
    every monic polynomial of degree 1..a//2."""
    divisors = [
        list(low) + [1] for deg in range(1, a // 2 + 1) for low in product(range(p), repeat=deg)
    ]
    for enc in range(p**a):
        low = tuple(enc // p**i % p for i in range(a))
        f = list(low) + [1]
        if all(any(_oracle_remainder(f, g, p)) for g in divisors):
            return low
    raise AssertionError(f"no irreducible of degree {a} over F_{p}")


def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_gcd(A, B, p):
    """gcd of two F_p polynomials (dense lists, low degree first) by
    Euclid's algorithm, not made monic; [0] when both are zero."""
    A = _poly_trim(list(A))
    B = _poly_trim(list(B))
    while B:
        inv = pow(B[-1], -1, p)
        while A and len(A) >= len(B):
            c = A[-1] * inv % p
            shift = len(A) - len(B)
            for j in range(len(B)):
                A[shift + j] = (A[shift + j] - c * B[j]) % p
            A = _poly_trim(A)
        A, B = B, A
    return A or [0]


def oracle_is_irreducible(low, p):
    """Monic x^a + sum low[i] x^i irreducible over F_p, by x^(p^a) = x mod f
    and gcd(x^(p^(a/l)) - x, f) = 1 for every prime l | a, with no
    linear-factor shortcut in front."""
    a = len(low)
    if a == 1:
        return True
    x = (0, 1) + (0,) * (a - 2)
    rows = _reduction_rows.__wrapped__(low, p)

    def x_pow(e):
        return power(x, e, lambda u, v: _mul_rows(u, v, rows, p), (1,) + (0,) * (a - 1))

    if x_pow(p**a) != x:
        return False
    for l in prime_factors(a):
        g = list(x_pow(p ** (a // l)))
        g[1] = (g[1] - 1) % p
        if len(_poly_gcd(g, list(low) + [1], p)) > 1:
            return False
    return True


def oracle_find_poly(p, a):
    """The first candidate, in encoding order, oracle_is_irreducible keeps."""
    for enc in range(p**a):
        low = tuple(enc // p**i % p for i in range(a))
        if oracle_is_irreducible(low, p):
            return low
    raise AssertionError(f"no irreducible of degree {a} over F_{p}")


def oracle_generator(p, low):
    """The smallest-encoded element g of F_p[y]/(y^a + sum low[i] y^i) with
    g^(q-1) = 1 and no g^((q-1)/l) = 1 for a prime l | q-1, both tested on
    every candidate, each product by oracle_mulmod."""
    a = len(low)
    q = p**a
    one = (1,) + (0,) * (a - 1)
    facs = prime_factors(q - 1) if q > 2 else []

    def pw(g, e):
        return power(g, e, lambda u, v: oracle_mulmod(u, v, low, p), one)

    for enc in range(1, q):
        g = tuple(enc // p**i % p for i in range(a))
        if pw(g, q - 1) != one:
            continue
        if all(pw(g, (q - 1) // l) != one for l in facs):
            return g
    raise AssertionError(f"no generator of F_{q}")


def oracle_embedding_root(sub, big):
    """The smallest-encoded root of sub's defining polynomial in ``big``,
    found by evaluating it at every element of the big field in order."""
    defining = list(sub.poly_low) + [1]
    for y in big.elements():
        if big.eval_int_poly(defining, y) == big.zero():
            return y
    raise AssertionError("embedding root not found")


def oracle_embedding_walk(sub, big):
    """The root of sub's defining polynomial that sub.embed_into(big) sends
    y to, by its own walk: the first root among h^0, h^1, ..., h^(q-2) for
    h = g^((Q-1)/(q-1)), stepped by big.mul, then the smallest-encoded of
    its conjugates r^(p^i), i < a; zero for the polynomial y itself."""
    defining = list(sub.poly_low) + [1]
    if not any(sub.poly_low):
        return big.zero()
    h = big.pow(big.generator, (big.q - 1) // (sub.q - 1))
    root = big.one()
    for _ in range(sub.q - 1):
        if big.eval_int_poly(defining, root) == big.zero():
            break
        root = big.mul(root, h)
    else:
        raise AssertionError("embedding root not found")
    conj = [root]
    for _ in range(sub.a - 1):
        conj.append(big.pow(conj[-1], sub.p))
    return min(conj, key=big.encode)


def oracle_exp_fractions(g, N):
    """exp of sum_j g[j] X^j (g[0] = 0) to order N, exact rationals, by
    k*e_k = sum_j j*g_j*e_{k-j} over every j."""
    e = [Fraction(1)] + [Fraction(0)] * (N - 1)
    for k in range(1, N):
        e[k] = sum(j * g[j] * e[k - j] for j in range(1, k + 1)) / k
    return e


@dataclass(frozen=True)
class PiOfT:
    """The inverse uniformizer change: pi as a series in T with pi(0) = 0,
    leading coefficient 1, defined by E(pi(T)) = 1 + T."""

    p: int
    cap: int
    coeffs: tuple  # exact rationals, coeffs[j] multiplies T^j


def _compose_fractions(outer, inner, N: int):
    """outer(inner(X)) mod X^N for rational coefficient lists, inner[0] = 0."""
    res = [Fraction(0)] * N
    for c in reversed(outer[:N]):
        # res = res*inner + c
        new = [Fraction(0)] * N
        for i, ri in enumerate(res):
            if ri:
                for j, bj in enumerate(inner[: N - i]):
                    if bj:
                        new[i + j] += ri * bj
        new[0] += c
        res = new
    return res


def pi_of_t(p: int, M: int, N: int) -> PiOfT:
    """Revert E(pi) - 1 = T coefficient by coefficient.

    b_k is determined linearly once b_1..b_{k-1} are known, because the
    kernel has leading coefficient 1.  The full round trip is re-checked at
    the end; a failure means the reversion or the kernel is wrong, so it
    raises rather than returns.
    """
    if N < 2:
        raise DomainError("reversion needs at least the linear term")
    E = artin_hasse(p, N)
    b = [Fraction(0)] * N
    b[1] = Fraction(1)
    # pw[m][t] = coefficient of T^t in (pi(T))^m, filled in step order
    pw = [[Fraction(0)] * N for _ in range(N)]
    pw[0][0] = Fraction(1)
    pw[1][1] = Fraction(1)
    for t in range(2, N):
        for m in range(2, t + 1):
            acc = Fraction(0)
            for j in range(1, t - m + 2):
                if b[j] and pw[m - 1][t - j]:
                    acc += b[j] * pw[m - 1][t - j]
            pw[m][t] = acc
        b[t] = -sum(E[m] * pw[m][t] for m in range(2, t + 1))
        pw[1][t] = b[t]
    for j, c in enumerate(b):
        if c.denominator % p == 0:
            raise IntegralityError(f"reversion coefficient {j} has denominator {c.denominator}")
    check = _compose_fractions(list(E), b, N)
    want = [Fraction(1), Fraction(1)] + [Fraction(0)] * (N - 2)
    if check != want:
        raise TheoremViolation("uniformizer round trip failed")
    return PiOfT(p=p, cap=N, coeffs=tuple(b))


def full_kernel_product(dd, ctx, factors, prec: int, cap: int):
    """prod E(pi * c * x^u) over the (c, u_reduced) factors, every monomial
    and every pi-exponent below the cap: {v: ZqPi on the integer pi-grid}.

    The running coefficients are bare (cap, {key: scalar}) pairs under
    ZqPi's rules: a piece pi^m-shifted from a cap-c series has cap c + m,
    and a sum takes the smaller cap.  Keys at or above a cap and zero
    coefficients are dropped once per factor.  The library's kernel
    expands only the digits its caller asks for.
    """
    sc = _ZqScalars(ctx, prec)
    mul, add, is_zero = sc.mul, sc.add, sc.is_zero
    ah = artin_hasse(ctx.p, cap)
    acc = {(0,) * dd.rank: (cap, {0: sc.one})}
    for c, u in factors:
        fac = sorted(e_factor(ah, ctx, c, prec, cap).coeffs.items())
        fac = [(m, sc.from_tuple(t)) for m, t in fac]
        new = {}
        for v, (scap, ser) in acc.items():
            lead = min(ser)
            for m, t in fac:
                if lead + m >= cap:
                    break
                piece = {}
                for j, s in ser.items():
                    x = mul(s, t)
                    if not is_zero(x):
                        piece[j + m] = x
                if not piece:
                    continue
                v2 = tuple(x + m * y for x, y in zip(v, u))
                held = new.get(v2)
                if held is None:
                    new[v2] = [scap + m, piece]
                    continue
                held[0] = min(held[0], scap + m)
                out = held[1]
                for k, x in piece.items():
                    out[k] = add(out[k], x) if k in out else x
        acc = {}
        for v, (vcap, ser) in new.items():
            ser = {k: x for k, x in ser.items() if k < vcap and not is_zero(x)}
            if ser:
                acc[v] = (vcap, ser)
    tt = sc.to_tuple
    return {
        v: ZqPi(ctx, prec, vcap, {k: tt(x) for k, x in ser.items()}, den=1)
        for v, (vcap, ser) in acc.items()
    }


def oracle_transfer_entries(f, B: int, M: int, N_pi: int):
    """The entries of psi_a_matrix(f, B, M, N_pi) from the full kernel
    product to pi^(N_pi + B + 1): the entry at (w, u) is the coefficient of
    x^(q*w - u) times pi^(deg(u) - deg(w)), cut at pi^N_pi, after checking
    that its ord is at least (p - 1)*deg(w).  The factors come from
    dwork._lifted_factors at call time, so a test that patches them
    patches both sides."""
    ctx = f.ctx
    p, a, q = ctx.p, ctx.a, ctx.q
    dd = newton_data(f)
    D = dd.D
    pts = _cone_prefix(dd, B * D, DIM_LIMIT, "operator basis", "dimension limit")
    factors = []
    for i in range(a):
        factors.extend(dwork._lifted_factors(f, dd, M, power_of_p=i))
    raw = full_kernel_product(dd, ctx, factors, M, N_pi + B + 1)
    rows = []
    for w, ew in pts:
        row = []
        for u, eu in pts:
            ser = raw.get(tuple(q * x - y for x, y in zip(w, u)))
            if ser is None:
                row.append(ZqPi(ctx, M, N_pi * D, {}, den=D))
                continue
            if ser.coeffs and min(ser.coeffs) * D + eu - ew < (p - 1) * ew:
                raise TheoremViolation(f"entry at row {w}, column {u} below the valuation bound")
            alpha = shift(ser.rescale_den(D), eu - ew)
            row.append(with_cap(alpha, min(alpha.cap, N_pi * D)))
        rows.append(tuple(row))
    return tuple(rows)


def _alpha_map(f, dd, B_grid: int, M: int, N_pi: int):
    """alpha coefficients on the cone prefix deg(u) <= B_grid/D, reduced keys.

    alpha_u is the coefficient of x^u in the kernel product divided by
    pi^deg(u) exactly; inexact division means the degree function and the
    expansion disagree, which raises IntegralityError.
    """
    D = dd.D
    cap_raw = N_pi + math.ceil(Fraction(B_grid, D)) + 1
    pts = dd.cone_points_upto(B_grid)
    raw = full_kernel_product(dd, f.ctx, _lifted_factors(f, dd, M), M, cap_raw)
    out = {}
    for ur, e in pts:
        ser = raw.get(ur)
        if ser is None:
            out[ur] = ZqPi(f.ctx, M, N_pi * D, {}, den=D)
            continue
        alpha = shift(ser.rescale_den(D), -e)
        out[ur] = with_cap(alpha, min(alpha.cap, N_pi * D))
    return out


def e_f_expansion(f, B_needed: int, M: int, N_pi: int):
    """The alpha map keyed by ambient exponent tuples, deg(u) <= B_needed."""
    dd = newton_data(f)
    amap = _alpha_map(f, dd, B_needed * dd.D, M, N_pi)
    return {from_reduced(dd, ur): al for ur, al in amap.items()}


def _alpha0(amap, v):
    """alpha_v mod pi^(1/D) as a Z_q tuple, None when v escapes the map."""
    al = amap.get(v)
    if al is None:
        return None
    return al.coeff(0) if 0 < al.cap else None


def criterion_matrix(f, dd, K: int, M: int):
    """(points with Fraction degrees, scalar ring, criterion matrix) from
    the full alpha map: the entry at (w, u) is alpha_(p*w - u) mod
    pi^(1/D) when deg(p*w - u) + deg(u) = p*deg(w), zero otherwise."""
    ctx = f.ctx
    cone = _cone_prefix(dd, K, CRITERION_DIM_LIMIT, "criterion matrix", "criterion dimension limit")
    pts = [(ur, Fraction(g, dd.D)) for ur, g in cone]
    p = ctx.p
    cells = []
    for w, _ in pts:
        row = []
        for u, _ in pts:
            v = tuple(p * x - y for x, y in zip(w, u))
            row.append((v, degree_reduced(dd, v)) if dd.in_cone_reduced(v) else None)
        cells.append(row)
    max_deg = max((math.ceil(c[1]) for row in cells for c in row if c is not None), default=0)
    amap = _alpha_map(f, dd, max_deg * dd.D, M, 1)
    sc = _ZqScalars(ctx, M)
    mat = []
    for (w, dw), cell_row in zip(pts, cells):
        row = []
        for (u, du), cell in zip(pts, cell_row):
            if cell is None:
                row.append(sc.zero)
                continue
            v, dv = cell
            defect = dv + du - p * dw
            assert defect >= 0
            if defect > 0:
                row.append(sc.zero)
                continue
            a0 = _alpha0(amap, v)
            row.append(sc.from_tuple(a0) if a0 is not None else sc.zero)
        mat.append(row)
    return pts, sc, mat


# ---------------------------------------------------------------------------
# references the package itself never calls: pi-shifts and cap cuts, the
# Euler product, the inverse exp recurrence, slope multisets, Frobenius
# powers, polygon edges and equality, point degrees, the monoid exponent
# ---------------------------------------------------------------------------


def shift(z: ZqPi, k: int) -> ZqPi:
    """z * pi^(k/den); the cap moves with the shift.  k < 0 is exact
    division and must not truncate away knowledge of a nonzero coefficient."""
    if k < 0 and any(j + k < 0 for j in z.coeffs):
        raise IntegralityError(f"pi-division by {-k} is not exact")
    return ZqPi(z.ctx, z.prec, z.cap + k, {j + k: t for j, t in z.coeffs.items()}, z.den)


def with_cap(z, cap: int):
    """The same series certified only below the smaller cap."""
    if cap > z.cap:
        raise PrecisionError("cannot certify beyond the computed cap")
    return z._like(z.coeffs, z.prec, cap)


def closed_point_traces(f: LaurentPoly, d: int, prec: int) -> dict:
    """trace -> count over closed torus points of exact degree d.

    Traces are evaluated through fresh Teichmuller lifts per point rather
    than the shared power table, so this path exercises the arithmetic
    independently of torus_trace_counts.
    """
    ctx = f.ctx
    big = ctx.ext(d)
    if (big.q - 1) ** f.n > TORUS_LIMIT:
        raise DomainError("torus too large to enumerate")
    phi = ctx.embed_into(big)
    coeffs = [phi(c) for _, c in f.terms]
    exps = [u for u, _ in f.terms]
    Q1 = big.q - 1
    counts = {}
    for jvec in product(range(Q1), repeat=f.n):
        # closed point of exact degree d <=> orbit of size d; keep its
        # lex-smallest member
        if _orbit_size(jvec, ctx.q, Q1) != d:
            continue
        acc = None
        for cb, u in zip(coeffs, exps):
            val = cb
            for ji, ui in zip(jvec, u):
                if ui:
                    val = big.mul(val, big.pow(big.generator, ji * ui % Q1))
            lift = teichmuller_lift(big, val, prec)
            acc = lift if acc is None else big.zq_add(acc, lift, prec)
        t = big.zq_trace(acc, prec)
        counts[t] = counts.get(t, 0) + 1
    return counts


def l_function_euler(f: LaurentPoly, deg_s: int, M: int, N: int) -> SSeries:
    """L as the Euler product over closed points of degree <= deg_s:
    prod (1 - (1+T)^Tr s^deg)^(-1), an independent recomputation of
    l_function used for cross-assertion."""
    p = f.ctx.p
    prec_t = M + binomial_guard(N, p)
    one = TSeries.const(p, M, N, 1)
    zero = TSeries.zero(p, M, N)
    out = SSeries([one] + [zero] * deg_s)
    for d in range(1, deg_s + 1):
        for t, c in sorted(closed_point_traces(f, d, prec_t).items()):
            u = one_plus_T_pow(t, p, M, N, prec_t)
            local = [one] + [zero] * deg_s
            local[d] = u.neg()
            out = out.mul(SSeries(local).pow_int(-c))
    return out


def oracle_exp_generating(weighted, one):
    """exp_generating's recurrence F_m = (1/m) sum_{j=1..m} w_j F_(m-j)
    on bare (prec, cap, {exponent: residue}) windows: each product is a
    double loop over both operands' terms, the window of F_m is carried by
    hand as the smallest prec and cap of every w_j and F_(m-j) it reads,
    and the division by m checks each residue against p^vp(m) itself.
    Returns the list of TSeries F_0..F_n."""
    p = one.p
    out = [(one.prec, one.cap, dict(one.coeffs))]
    for m in range(1, len(weighted) + 1):
        prec, cap, acc = out[0][0], out[0][1], {}
        for j in range(1, m + 1):
            w, (fp, fc, fk) = weighted[j - 1], out[m - j]
            prec, cap = min(prec, w.prec, fp), min(cap, w.cap, fc)
            for a, c in w.coeffs.items():
                for b, d in fk.items():
                    acc[a + b] = acc.get(a + b, 0) + c * d
        pm = p**prec
        v = vp(m, p)
        if prec - v <= 0:
            raise PrecisionError(f"division by {m} exhausts p-precision {prec}")
        new_pm = p ** (prec - v)
        inv = pow(m // p**v, -1, new_pm)
        quot = {}
        for e, c in acc.items():
            if e < cap:
                c %= pm
                if c % p**v:
                    raise IntegralityError(f"residue {c} not divisible by {p}^{v}")
                quot[e] = c // p**v * inv % new_pm
        out.append((prec - v, cap, quot))
    return [TSeries(p, prec, cap, coeffs) for prec, cap, coeffs in out]


def log_generating(F: SSeries):
    """Inverse of exp_generating: returns the weighted list w_k = k*g_k.

    Division-free:  w_m = m*a_m - sum_{j<m} w_j a_{m-j}  (a_0 = 1 required).
    """
    if not F.coeffs[0].is_one():
        raise DomainError("log requires constant coefficient 1")
    w = []
    for m in range(1, len(F.coeffs)):
        acc = F.coeffs[m].mul_int(m)
        for j in range(1, m):
            acc = acc.sub(w[j - 1].mul(F.coeffs[m - j]))
        w.append(acc)
    return w


def unit_slopes(P: NewtonPolygon, upto: int):
    """Slope of P over each unit interval [i, i+1) for i < upto."""
    if upto > P.last_x:
        raise DomainError("polygon too short for requested slopes")
    return [P.value_at(i + 1) - P.value_at(i) for i in range(upto)]


@dataclass(frozen=True)
class SlopeSeries:
    """Finite multiset of slopes with multiplicities, sorted ascending.

    ``cap`` is the bound below which the multiset is complete (None for a
    finite, fully known multiset such as the slopes of a polynomial).
    """

    items: tuple
    cap: Optional[Fraction] = None

    @classmethod
    def from_polygon(cls, P: NewtonPolygon, upto: int) -> "SlopeSeries":
        if Fraction(upto) > P.certified_upto:
            raise DomainError("cannot read slopes beyond the certified prefix")
        counts = {}
        for s in unit_slopes(P, upto):
            counts[s] = counts.get(s, 0) + 1
        top = max(counts) if counts else Fraction(0)
        return cls(items=tuple(sorted(counts.items())), cap=top + 1)

    def to_polygon(self) -> NewtonPolygon:
        verts = [(Fraction(0), Fraction(0))]
        x, y = Fraction(0), Fraction(0)
        for s, m in self.items:
            x, y = x + m, y + s * m
            verts.append((x, y))
        return exact_polygon(verts, x)

    def prefix(self, count: int):
        """First ``count`` slopes with multiplicity, flattened."""
        out = []
        for s, m in self.items:
            for _ in range(m):
                out.append(s)
                if len(out) == count:
                    return out
        return out


def slope_series_mul(A: SlopeSeries, B: SlopeSeries, slope_cap) -> SlopeSeries:
    """Multiset convolution {a+b}, truncated to slopes < slope_cap.

    The factors must be complete below the relevant ranges: slopes of A+B
    below slope_cap only need a-slopes and b-slopes below slope_cap minus
    the other factor's minimum, which the caller guarantees by generating
    both inputs at least that far.
    """
    cap = Fraction(slope_cap)
    for S in (A, B):
        if S.cap is not None and S.cap < cap:
            raise DomainError("slope factor not complete below requested cap")
    counts = {}
    for sa, ma in A.items:
        for sb, mb in B.items:
            s = sa + sb
            if s < cap:
                counts[s] = counts.get(s, 0) + ma * mb
    return SlopeSeries(items=tuple(sorted(counts.items())), cap=cap)


def geometric_slopes(n: int, slope_cap: int) -> SlopeSeries:
    """Slope multiset of 1/(1-t)^n: slope j with multiplicity C(n+j-1, j)."""
    items = tuple((Fraction(j), math.comb(n + j - 1, j)) for j in range(slope_cap))
    return SlopeSeries(items=items, cap=Fraction(slope_cap))


def frob_power(ctx, c, i: int):
    """c^(p^i); on Teichmuller coefficients this realizes the i-th Frobenius."""
    return ctx.pow(c, ctx.p**i)


def edges(P: NewtonPolygon):
    """(slope, width) per edge, slopes nondecreasing."""
    out = []
    for (x0, y0), (x1, y1) in zip(P.vertices, P.vertices[1:]):
        out.append(((y1 - y0) / (x1 - x0), x1 - x0))
    return out


def polygons_equal_on(P: NewtonPolygon, Q: NewtonPolygon, upto=None) -> bool:
    hi = _common_range(P, Q, upto)
    return polygon_dominates(P, Q, hi) and polygon_dominates(Q, P, hi)


def _grid_of(vertices) -> tuple:
    """A vertex list of exact rationals with integer x on the integer grid
    of series.NewtonPolygon: (L, xs, ys), L the least common denominator
    of the ordinates."""
    pts = [(Fraction(x), Fraction(y)) for x, y in vertices]
    assert all(x.denominator == 1 for x, _ in pts), "polygon vertices need integer x"
    L = math.lcm(*(y.denominator for _, y in pts))
    return L, tuple(int(x) for x, _ in pts), tuple(int(y * L) for _, y in pts)


def polygon_from_vertices(vertices, certified_upto, upper, floor_upto, upper_upto):
    """A NewtonPolygon given by its two hulls as lists of exact rational
    vertices with integer x."""
    floor, ceiling = _grid_of(vertices), _grid_of(upper)
    return NewtonPolygon(floor, certified_upto, ceiling, floor_upto, upper_upto)


def exact_polygon(vertices, certified_upto) -> NewtonPolygon:
    """A polygon known exactly, read as hodge_polygon_absolute builds one:
    the vertices are its floor to the last vertex and its ceiling to
    certified_upto."""
    vs = tuple((Fraction(x), Fraction(y)) for x, y in vertices)
    upto = Fraction(certified_upto)
    return polygon_from_vertices(vs, upto, vs, vs[-1][0], upto)


def _hull_value(vs, x: Fraction) -> Fraction:
    """A vertex list's value at x, by a scan of its edges in Fractions."""
    if x < vs[0][0] or x > vs[-1][0]:
        raise DomainError(f"x={x} outside polygon range")
    for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
        if x0 <= x <= x1:
            if x == x0:
                return y0
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return vs[-1][1]


def _equal_prefix(f_verts, g_verts) -> Fraction:
    """Largest x such that two piecewise-linear functions agree on [x0, x]."""

    def val(verts, x):
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            if x0 <= x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        if x == verts[0][0] == verts[-1][0]:
            return verts[0][1]
        return None

    hi = min(f_verts[-1][0], g_verts[-1][0])
    checkpoints = sorted(
        {x for x, _ in f_verts if x <= hi} | {x for x, _ in g_verts if x <= hi}
    )
    good = None
    for x in checkpoints:
        fv, gv = val(f_verts, x), val(g_verts, x)
        if fv is None or gv is None or fv != gv:
            break
        good = x
    if good is None:
        raise DomainError("polygons disagree at the left endpoint")
    return good


def oracle_certified_polygon(points, ray=None, lower=None, vals_exact=True) -> NewtonPolygon:
    """series.certified_polygon with the agreement prefix read by
    _equal_prefix over the whole of both hulls and cut afterwards."""
    pts = sorted(points)
    if not pts or pts[0][0] != 0:
        raise DomainError("polygon data must start at x=0")

    def lo(x):
        return Fraction(0) if lower is None else max(Fraction(0), Fraction(lower(x)))

    floor_pts = []
    for x, v, c in pts:
        fx = Fraction(x)
        if v is None:
            floor_pts.append((fx, max(Fraction(c), lo(fx))))
        elif vals_exact:
            floor_pts.append((fx, Fraction(v)))
        else:
            b = lo(fx)
            if b > Fraction(v):
                raise TheoremViolation(
                    f"valuation {v} visible at x={x} undercuts the proven bound {b}"
                )
            floor_pts.append((fx, b))
    exact_pts = [(Fraction(x), Fraction(v)) for x, v, c in pts if v is not None]
    if not exact_pts:
        raise DomainError("no certified valuations at all")
    hull_floor = lower_hull(floor_pts)
    hull_exact = lower_hull(exact_pts)
    cut_x = hull_floor[-1][0]
    if ray is not None:
        ts, v0, slope = Fraction(ray[0]), Fraction(ray[1]), Fraction(ray[2])
        cut_x = None
        for i, (xv, yv) in enumerate(hull_floor):
            if xv >= ts:
                cut_x = xv
                break
            at_start = (v0 - yv) / (ts - xv)
            min_chord = at_start if yv > v0 + slope * (xv - ts) else slope
            out_slope = None
            if i + 1 < len(hull_floor):
                x1, y1 = hull_floor[i + 1]
                out_slope = (y1 - yv) / (x1 - xv)
            if out_slope is None or min_chord < out_slope:
                cut_x = xv
                break
        if cut_x is None:
            cut_x = hull_floor[-1][0]
    certified = min(_equal_prefix(hull_floor, hull_exact), cut_x, exact_pts[-1][0])
    return polygon_from_vertices(hull_floor, certified, hull_exact, cut_x, exact_pts[-1][0])


def _common_range(P: NewtonPolygon, Q: NewtonPolygon, upto=None) -> Fraction:
    hi = min(P.certified_upto, Q.certified_upto, P.last_x, Q.last_x)
    if upto is not None:
        hi = min(hi, Fraction(upto))
    if hi <= 0:
        raise DomainError("no common certified range to compare polygons on")
    return hi


def oracle_polygon_dominates(P: NewtonPolygon, Q: NewtonPolygon, upto=None) -> bool:
    """series.polygon_dominates with its own window and checkpoint set."""
    hi = _common_range(P, Q, upto)
    xs = {Fraction(0), hi}
    for x, _ in P.vertices:
        if 0 <= x <= hi:
            xs.add(x)
    for x, _ in Q.vertices:
        if 0 <= x <= hi:
            xs.add(x)
    return all(_hull_value(P.vertices, x) >= _hull_value(Q.vertices, x) for x in sorted(xs))


def oracle_polygon_verdict(P: NewtonPolygon, Q: NewtonPolygon, upto=None) -> str:
    """series.polygon_verdict with a window and a checkpoint set per half."""
    cap = None if upto is None else Fraction(upto)

    def window(a, a_valid, b, b_valid):
        w = min(a_valid, b_valid, a[-1][0], b[-1][0])
        return w if cap is None else min(w, cap)

    def checkpoints(a, b, w):
        xs = {Fraction(0), w}
        xs.update(x for x, _ in a if 0 <= x <= w)
        xs.update(x for x, _ in b if 0 <= x <= w)
        return sorted(xs)

    pf, pu = P.vertices, P.upper
    qf, qu = Q.vertices, Q.upper

    w = window(pf, P.floor_upto, qu, Q.upper_upto)
    if w > 0 and any(
        _hull_value(pf, x) > _hull_value(qu, x) for x in checkpoints(pf, qu, w)
    ):
        return "false"

    w = window(pu, P.upper_upto, qf, Q.floor_upto)
    if w > 0 and all(
        _hull_value(pu, x) <= _hull_value(qf, x) for x in checkpoints(pu, qf, w)
    ):
        return "true"
    return "uncertified"


class NotInConeError(DomainError):
    """Lattice point lies outside the cone spanned by the Newton polytope."""


def from_reduced(dd: DegreeData, r) -> tuple:
    """The ambient lattice point with reduced coordinates r."""
    return tuple(sum(b[i] * c for b, c in zip(dd.basis, r)) for i in range(dd.n))


def degree_reduced(dd: DegreeData, ur) -> Fraction:
    if not dd.in_cone_reduced(ur):
        raise NotInConeError(f"{ur} violates a through-origin facet")
    return Fraction(dd.grid_degree(ur), dd.D)


def degree_of(dd: DegreeData, u) -> Fraction:
    ur = dd.to_reduced(u)
    if ur is None:
        raise NotInConeError(f"{tuple(u)} is outside the span of the polytope")
    return degree_reduced(dd, ur)


def cofacial_defect(dd: DegreeData, u, v) -> Fraction:
    return degree_of(dd, u) + degree_of(dd, v) - degree_of(dd, tuple(a + b for a, b in zip(u, v)))


def exponent_I(dd: DegreeData, search_bound: int):
    """Smallest d <= search_bound with d*M(Delta) inside the monoid generated
    by degree-1 lattice points, checked on the finite generating region of
    degree <= rank (monoid generators all live there); '>= bound' as a string
    when no d works."""
    gens = [ur for ur, g in dd.cone_points_upto(dd.D) if g == dd.D]
    if not gens:
        return f">= {search_bound}"
    region = [ur for ur, g in dd.cone_points_upto(dd.rank * dd.D) if g > 0]
    for d in range(1, search_bound + 1):
        cap = Fraction(d * dd.rank + 2)
        members = {(0,) * dd.rank}
        frontier = [(0,) * dd.rank]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = tuple(a + b for a, b in zip(x, g))
                    if y in members:
                        continue
                    if degree_reduced(dd, y) <= cap:
                        members.add(y)
                        nxt.append(y)
            frontier = nxt
        if all(tuple(d * c for c in ur) in members for ur in region):
            return d
    return f">= {search_bound}"
