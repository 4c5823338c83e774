"""Release gate: one test per headline property, one verdict line each.

Every test prints a single ``[gate] NN <name>: PASS|FAIL`` line so a log
scrape shows the whole checklist at a glance.  The checks are deliberately
redundant with the unit suites; what matters here is that each property is
exercised end to end, on fixed seeds, at sizes that finish on a laptop.
"""

import random
from fractions import Fraction

from tadic.arith import (
    FieldContext,
    binomial_guard,
    one_plus_T_pow,
    teichmuller_lift,
)
from tadic.dwork import (
    artin_hasse,
    char_c_crosscheck,
    facial_criterion,
    psi_a_matrix,
    verify_trace_formula,
)
from tadic.polytope import LaurentPoly
from tadic.series import (
    SSeries,
    polygon_dominates,
    polygon_from_sseries,
    polygon_rescale,
)
from tadic.sums import (
    c_function,
    congruence_check,
    convert_l_to_c,
    l_function,
    np_report,
    s_f_T,
    s_f_psi,
    specialize,
)

from oracles import SlopeSeries, geometric_slopes, pi_of_t, polygons_equal_on, slope_series_mul

SPERBER = [(1, 0), (0, 1), (-1, -1)]

# the three supports every two-path check runs on: a line, a cusp-like
# diagonal, and the reflexive simplex
CORE = [([(1,)], "x"), ([(3,)], "x^3"), (SPERBER, "simplex")]


def poly(exps, p=3, a=1, coeffs=None):
    ctx = FieldContext(p, a)
    if coeffs is None:
        term_map = {e: ctx.one() for e in exps}
    else:
        term_map = {e: c for e, c in zip(exps, coeffs)}
    return LaurentPoly.make(len(exps[0]), term_map, ctx)


def gate(label: str, ok: bool, detail=None):
    print(f"[gate] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{label}: {detail}"


def sample_poly(rng: random.Random) -> LaurentPoly:
    """Random Laurent polynomial, biased small enough that two torus levels
    stay cheap to enumerate exactly."""
    while True:
        n = rng.choice([1, 1, 2])
        p = rng.choice([2, 3, 5])
        a = rng.choice([1, 2]) if n == 1 else 1
        q = p**a
        if (q**2 - 1) ** n > 60_000:
            continue
        lo, hi = (-3, 4) if n == 1 else (-2, 2)
        support = set()
        for _ in range(rng.randint(1, 3)):
            u = tuple(rng.randint(lo, hi) for _ in range(n))
            if any(u):
                support.add(u)
        if not support:
            continue
        ctx = FieldContext(p, a)
        term_map = {u: ctx.pow(ctx.generator, rng.randrange(q - 1)) for u in support}
        return LaurentPoly.make(n, term_map, ctx)


def test_gate_01_torsion_point_interpolation():
    # the T-series sum evaluated at the order-p^m torsion point must be the
    # directly computed character sum, exactly, for both levels and both
    # extension degrees
    rng = random.Random(11)
    bad = []
    for i in range(20):
        f = sample_poly(rng)
        p = f.ctx.p
        prec = 2
        n_t = p * (p - 1) * prec  # covers the m = 2 substitution
        for k in (1, 2):
            S = s_f_T(f, k, prec, n_t)
            for m in (1, 2):
                if specialize(S, m, prec) != s_f_psi(f, k, m, prec):
                    bad.append((i, f.terms, k, m))
    gate("01 torsion-point interpolation", not bad, bad)


def _two_path_sizes(f):
    if f.n == 1:
        return dict(deg_s=4, B=4, M=4, N_pi=4)
    return dict(deg_s=2, B=2, M=4, N_pi=2)


def test_gate_02_operator_char_series_matches_c():
    bad = []
    for exps, name in CORE:
        for p in (2, 3, 5):
            f = poly(exps, p=p)
            kw = _two_path_sizes(f)
            Mx = psi_a_matrix(f, kw["B"], kw["M"], kw["N_pi"])
            cc = char_c_crosscheck(Mx, f, kw["deg_s"])
            if not cc["pass"]:
                bad.append((name, p, cc["mismatched_coefficients"]))
    gate("02 operator char series = C", not bad, bad)


def test_gate_03_trace_formula():
    bad = []
    for exps, name in CORE:
        for p in (2, 3, 5):
            f = poly(exps, p=p)
            kw = _two_path_sizes(f)
            Mx = psi_a_matrix(f, kw["B"], kw["M"], kw["N_pi"])
            for k in (1, 2):
                chk = verify_trace_formula(Mx, f, k)
                if not chk["pass"]:
                    bad.append((name, p, k))
    gate("03 trace formula k=1,2", not bad, bad)


def test_gate_04_combinatorial_lower_bound():
    # any certified dip below the combinatorial polygon is a release blocker:
    # np_report raises on one, and the explicit domination check double-reads
    # the same data
    rng = random.Random(4)
    bad = []
    for i in range(50):
        f = sample_poly(rng)
        rep = np_report(f, [], 2, 3, 8)
        if not polygon_dominates(rep["np_t"], rep["hp_q"]):
            bad.append((i, f.terms))
    gate("04 combinatorial lower bound x50", not bad, bad)


def test_gate_05_specialization_bound_and_transfer():
    cases = [
        ([(1,)], 3, dict(deg_s=3, M=4, N=16)),
        ([(1,)], 5, dict(deg_s=3, M=4, N=24)),
        ([(2,)], 3, dict(deg_s=3, M=4, N=16)),
        ([(3,)], 2, dict(deg_s=3, M=4, N=16)),
        ([(3,)], 7, dict(deg_s=3, M=4, N=48)),
        (SPERBER, 3, dict(deg_s=4, M=4, N=16)),
    ]
    bad = []
    certified = 0
    for exps, p, kw in cases:
        f = poly(exps, p=p)
        rep = np_report(f, [1, 2], kw["deg_s"], kw["M"], kw["N"])
        for m in (1, 2):
            if not polygon_dominates(rep["np_pi"][m], rep["np_t"]):
                bad.append((exps, p, m, "dips below the T-polygon"))
        if rep["per_m"][1]["rigid"] == "true":
            certified += 1
            if rep["per_m"][2]["rigid"] != "true":
                bad.append((exps, p, "equality at m=1 did not transfer"))
    if certified < 3:
        bad.append(("too few certified-equality instances", certified))
    gate("05 specialization bound + transfer", not bad, bad)


def test_gate_06_sharp_equality_cases():
    bad = []
    for d, p in [(2, 3), (2, 7), (3, 7)]:
        f = poly([(d,)], p=p)
        rep = np_report(f, [], 3, 4, 16)
        shared = [
            v
            for v in rep["np_t"].vertices
            if v in rep["hp_q"].vertices and v[0] <= rep["np_t"].certified_upto
        ]
        if rep["flags"]["t_ordinary"] != "true" or len(shared) < 3:
            bad.append((d, p, rep["flags"]["t_ordinary"], shared))
    f = poly(SPERBER, p=3)
    rep = np_report(f, [1], 4, 4, 16)
    if rep["per_m"][1]["ordinary"] != "true":
        bad.append(("simplex", 3, rep["per_m"][1]))
    gate("06 sharp equality cases", not bad, bad)


def test_gate_07_l_and_c_determine_each_other():
    bad = []
    for exps, name in CORE:
        for p in (2, 3, 5):
            f = poly(exps, p=p)
            n, q = f.n, f.ctx.q
            L = l_function(f, 3, 3, 8)
            C = c_function(f, 3, 3, 8)
            C2 = convert_l_to_c(L, n, q, "l_to_c")
            L2 = convert_l_to_c(C, n, q, "c_to_l")
            if not all(x.agrees_with(y) for x, y in zip(C.coeffs, C2.coeffs)):
                bad.append((name, p, "L -> C"))
            if not all(x.agrees_with(y) for x, y in zip(L.coeffs, L2.coeffs)):
                bad.append((name, p, "C -> L"))
            if n == 1:
                ratio = C.mul(C.scale_s(lambda k: q**k).inverse())
                if not all(x.agrees_with(y) for x, y in zip(L.coeffs, ratio.coeffs)):
                    bad.append((name, p, "L(s) != C(s)/C(qs)"))
    gate("07 L and C determine each other", not bad, bad)


def test_gate_08_slope_multiset_product():
    # the q-normalized slopes of C are the slopes of the degree-n!Vol
    # polynomial convolved with the nonnegative integers weighted by the
    # n-fold geometric multiplicities
    bad = []

    # n = 1: the polynomial side is L itself
    f = poly([(2,)], p=3)
    rep = np_report(f, [1], 4, 4, 16)
    unit = Fraction(1, 1 * (3 - 1))
    Pc = polygon_rescale(rep["np_pi"][1], unit)
    Lm = specialize(l_function(f, 4, 4, 16), 1, 4)
    Pl = polygon_rescale(polygon_from_sseries(Lm), unit)
    # degree 2 = n!Vol, so the polynomial's slope multiset is complete
    S_L = SlopeSeries(SlopeSeries.from_polygon(Pl, 2).items, None)
    prod = slope_series_mul(S_L, geometric_slopes(1, 4), 3).to_polygon()
    if not polygons_equal_on(Pc, prod, upto=3):
        bad.append(("x^2/F_3", Pc.vertices, prod.vertices))

    # n = 2: the polynomial side is the reciprocal of L, a polynomial of
    # degree 3 = n!Vol; drop the identically-zero tail before reading slopes
    # (no finite precision can tell a zero coefficient from one at the cap)
    f = poly(SPERBER, p=3)
    rep = np_report(f, [1], 4, 4, 16)
    Pc = polygon_rescale(rep["np_pi"][1], unit)
    Linv = SSeries(l_function(f, 4, 4, 16).inverse().coeffs[:4])
    Pl = polygon_rescale(polygon_from_sseries(specialize(Linv, 1, 4)), unit)
    S_L = SlopeSeries(SlopeSeries.from_polygon(Pl, 3).items, None)
    prod = slope_series_mul(S_L, geometric_slopes(2, 3), 2).to_polygon()
    if not polygons_equal_on(Pc, prod, upto=4):
        bad.append(("simplex/F_3", Pc.vertices, prod.vertices))

    gate("08 slope multiset product", not bad, bad)


def test_gate_09_high_coefficient_congruence():
    cases = [
        ([(1,)], 3, 1, [2, 3], 12),
        ([(1,)], 3, 2, [4, 5], 20),
        ([(1,)], 5, 1, [2, 3], 12),
        ([(1,)], 5, 2, [6, 7], 36),
        (SPERBER, 3, 1, [4, 5], 12),
    ]
    bad = []
    for exps, p, m, ks, n_t in cases:
        f = poly(exps, p=p)
        rep = congruence_check(f, m, ks, 3, n_t)
        if min(ks) != rep["degree_bound"] + 1:
            bad.append((exps, p, m, "window not anchored past the bound"))
        for c in rep["checks"]:
            if c["status"] != "pass" or c["proven_mod_exponent"] < 1:
                bad.append((exps, p, m, c["k"], c["status"]))
    gate("09 high-coefficient congruence", not bad, bad)


def test_gate_10_facial_decomposition():
    bad = []
    for exps, p in [(SPERBER, 3), ([(1, 0), (0, 1)], 3)]:
        fr = facial_criterion(poly(exps, p=p), 3, 4)
        if tuple(fr["conjunction"]) != tuple(fr["whole"]["verdicts"]):
            bad.append((exps, p, fr["conjunction"], fr["whole"]["verdicts"]))
    gate("10 facial decomposition", not bad, bad)


def test_gate_11_arithmetic_infrastructure():
    bad = []

    # Teichmuller lifts are multiplicative on every unit, fields up to q=64
    for p, a in [(2, 1), (2, 2), (2, 3), (2, 6), (3, 1), (3, 3), (5, 2), (7, 2)]:
        ctx = FieldContext(p, a)
        prec = 3
        units = []
        cur = ctx.one()
        for _ in range(ctx.q - 1):
            units.append(cur)
            cur = ctx.mul(cur, ctx.generator)
        lifts = {ctx.encode(u): teichmuller_lift(ctx, u, prec) for u in units}
        for x in units:
            for y in units:
                lhs = ctx.zq_mul(lifts[ctx.encode(x)], lifts[ctx.encode(y)], prec)
                if lhs != lifts[ctx.encode(ctx.mul(x, y))]:
                    bad.append(("teich", p, a, x, y))
    # binomial series exponential law, 100 random pairs
    rng = random.Random(7)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        M, N = 3, 6
        tp = M + binomial_guard(N, p)
        t1, t2 = rng.randrange(p**tp), rng.randrange(p**tp)
        a = one_plus_T_pow(t1, p, M, N, tp)
        b = one_plus_T_pow(t2, p, M, N, tp)
        if a.mul(b) != one_plus_T_pow((t1 + t2) % p**tp, p, M, N, tp):
            bad.append(("binomial", p, t1, t2))
    # kernel coefficients stay p-integral deep into the tail
    for p in (2, 3, 5, 7):
        ah = artin_hasse(p, 41)
        if any(c.denominator % p == 0 for c in ah):
            bad.append(("kernel integrality", p))
    # uniformizer reversion round-trips through the kernel exactly
    for p in (2, 3, 5):
        E = list(artin_hasse(p, 41))
        b = list(pi_of_t(p, 4, 41).coeffs)
        res = [Fraction(0)] * 41
        for c in reversed(E):
            acc = [Fraction(0)] * 41
            for i, r in enumerate(res):
                if r:
                    for j, x in enumerate(b[: 41 - i]):
                        if x:
                            acc[i + j] += r * x
            acc[0] += c
            res = acc
        if res != [Fraction(1), Fraction(1)] + [Fraction(0)] * 39:
            bad.append(("round trip", p))
    gate("11 arithmetic infrastructure", not bad, bad)
