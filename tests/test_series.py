import math
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from tadic.errors import DomainError, IntegralityError, PrecisionError, TheoremViolation
from tadic.polytope import DegreeData, hodge_polygon_absolute, hodge_ray
from tadic.series import (
    NewtonPolygon,
    SSeries,
    TSeries,
    _pack,
    _packed_dot,
    _slot_reducer,
    _unpack,
    certified_polygon,
    exp_generating,
    lower_hull,
    polygon_dominates,
    polygon_from_sseries,
    polygon_rescale,
    polygon_verdict,
    vp,
    vp_factorial,
)

from oracles import (
    SlopeSeries,
    exact_polygon,
    geometric_slopes,
    log_generating,
    oracle_certified_polygon,
    oracle_exp_generating,
    oracle_polygon_dominates,
    oracle_polygon_verdict,
    polygons_equal_on,
    slope_series_mul,
)


def ts(p, prec, cap, coeffs):
    return TSeries(p, prec, cap, coeffs)


class TestTSeries:
    def test_inverse_of_one_plus_t_is_alternating(self):
        # geometric series oracle: 1/(1+T) = 1 - T + T^2 - T^3 + ...
        s = ts(5, 4, 6, {0: 1, 1: 1})
        inv = s.inverse()
        pm = 5**4
        assert inv.sorted_items() == [(j, (-1) ** j % pm) for j in range(6)]
        assert s.mul(inv).is_one()

    def test_mul_truncates_at_common_cap(self):
        a = ts(3, 5, 4, {0: 1, 3: 2})
        b = ts(3, 5, 7, {1: 1})
        c = a.mul(b)
        assert c.cap == 4
        assert c.sorted_items() == [(1, 1)]  # exponent 4 term dropped

    def test_divexact_spends_precision(self):
        a = ts(3, 4, 3, {0: 9, 1: 18})
        b = a.divexact_int(9)
        assert b.prec == 2
        assert b.sorted_items() == [(0, 1), (1, 2)]

    def test_divexact_rejects_non_divisible(self):
        a = ts(3, 4, 3, {0: 1})
        with pytest.raises(IntegralityError):
            a.divexact_int(3)

    def test_divexact_by_unit_keeps_precision(self):
        a = ts(3, 4, 3, {0: 2})
        b = a.divexact_int(2)
        assert b.prec == 4 and b.is_one()

    def test_precision_exhaustion(self):
        a = ts(3, 1, 3, {0: 3})
        with pytest.raises(PrecisionError):
            a.divexact_int(3)

    def test_val_data_distinguishes_zero_from_unknown(self):
        a = ts(5, 2, 8, {})
        assert a.val_data() == (None, Fraction(8))
        b = ts(5, 2, 8, {3: 5})
        assert b.val_data() == (Fraction(3), Fraction(8))

    @given(
        st.integers(min_value=0, max_value=3).flatmap(
            lambda seed: st.tuples(
                st.dictionaries(st.integers(0, 7), st.integers(0, 342), max_size=5),
                st.dictionaries(st.integers(0, 7), st.integers(0, 342), max_size=5),
                st.dictionaries(st.integers(0, 7), st.integers(0, 342), max_size=5),
            )
        )
    )
    def test_ring_axioms(self, dicts):
        da, db, dc = dicts
        a, b, c = (ts(7, 3, 8, d) for d in (da, db, dc))
        assert a.mul(b) == b.mul(a)
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.add(a.neg()).is_zero()

    @given(st.dictionaries(st.integers(1, 6), st.integers(1, 48), min_size=0, max_size=4))
    def test_inverse_round_trip(self, tail):
        a = ts(7, 2, 7, {**tail, 0: 1})
        assert a.mul(a.inverse()).is_one()


WIDTHS = st.sampled_from([16, 32, 64, 72, 136])  # struct slots and whole-byte ones past 64


def slot_lists(W, max_size=12):
    return st.lists(st.integers(0, (1 << W) - 1), max_size=max_size)


def true_slots(plus, pairs, B):
    """Slot j < B of plus + sum x*y, the slots of each operand given as
    lists, computed slot by slot with no carry between slots."""
    out = (list(plus) + [0] * B)[:B]
    for xs, ys in pairs:
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                if i + j < B:
                    out[i + j] += x * y
    return out


class TestSlotCodec:
    """_pack/_unpack/_packed_dot/_slot_reducer, the one Kronecker codec of
    the package."""

    @given(WIDTHS, st.data())
    def test_unpack_inverts_pack(self, W, data):
        xs = data.draw(slot_lists(W))
        assert list(_unpack(_pack(xs, W), W, len(xs))) == xs

    @given(WIDTHS, st.data())
    def test_unpack_drops_every_slot_at_and_past_B(self, W, data):
        xs = data.draw(slot_lists(W))
        B = data.draw(st.integers(0, len(xs)))
        assert list(_unpack(_pack(xs, W), W, B)) == xs[:B]

    @settings(deadline=None)
    @given(WIDTHS, st.integers(1, 3), st.integers(1, 6), st.integers(1, 8), st.data())
    def test_packed_dot_is_the_slotwise_sum_below_the_bound(self, W, n, L, B, data):
        # every true slot below B is at most (n*L + 1)*m^2 < 2^W: at most
        # n*L products of operands up to m, plus one slot of plus up to m^2
        m = math.isqrt(((1 << W) - 1) // (n * L + 1))
        operand = st.lists(st.integers(0, m), min_size=1, max_size=L)
        pairs = data.draw(st.lists(st.tuples(operand, operand), min_size=n, max_size=n))
        low = data.draw(st.lists(st.integers(0, m * m), max_size=B))
        high = data.draw(slot_lists(W, 3))  # the slots of plus at and past B
        plus = _pack(low + [0] * (B - len(low)) + high, W)
        xs, ys = ([_pack(v, W) for v in side] for side in zip(*pairs))
        assert list(_packed_dot(xs, ys, W, B, plus)) == true_slots(low, pairs, B)

    @settings(deadline=None)
    @given(WIDTHS, st.sampled_from([2, 3, 5, 7]), st.data())
    def test_slot_reducer_is_the_slotwise_mod_below_the_bound(self, W, p, data):
        # m = p^M below 2^(W-2), and the widest bound the reduction takes at
        # W: slots below 2^k with (2^k - 1)*floor(2^k/m) < 2^W
        m = p ** data.draw(st.integers(1, int((W - 2) / math.log2(p))))
        ks = [k for k in range(m.bit_length(), W) if ((1 << k) - 1) * ((1 << k) // m) >> W == 0]
        if not ks:
            reject()
        k = max(ks)
        xs = data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=8))
        xs[data.draw(st.integers(0, len(xs) - 1))] = (1 << k) - 1  # the bound itself
        packed, slots = _slot_reducer(W, len(xs), m, k)
        v = _pack(xs, W)
        assert list(slots(v)) == [x % m for x in xs]
        assert packed(v) == _pack([x % m for x in xs], W)
        # a slot one unit past the no-carry bound, x*mu >= 2^W, carries
        mu = (1 << k) // m
        past = -(-(1 << W) // mu)
        if past < 1 << W:
            assert list(_slot_reducer(W, 1, m, k)[1](past)) != [past % m]

    @pytest.mark.parametrize("W", [16, 72])
    def test_one_unit_past_the_bound_carries(self, W):
        # slot 0 of x*y + plus is 2^W - 1 at the bound and 2^W one past it
        x, y = 3, ((1 << W) - 1) // 3
        for extra in (0, 1):
            got = list(_packed_dot([_pack([x], W)], [_pack([y], W)], W, 2, _pack([extra], W)))
            assert (got == true_slots([extra], [([x], [y])], 2)) == (extra == 0)


@st.composite
def exp_inputs(draw):
    """(weighted, one) for exp_generating: TSeries of mixed prec and cap.
    Half are the power sums w_k = sum_i c_i u_i^k of random T-polynomials,
    whose exp prod_i (1 - u_i s)^(-c_i) is integral at every window; the
    rest are random and may not divide."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 7))
    windows = st.tuples(st.integers(1, 7), st.integers(1, 9))
    prec, cap = draw(windows)
    one = TSeries.const(p, prec, cap, 1)
    residues = st.dictionaries(st.integers(0, 8), st.integers(0, p**7 - 1), max_size=5)
    if draw(st.booleans()):
        factors = draw(st.lists(st.tuples(residues, st.integers(-2, 2)), min_size=1, max_size=3))
        sums = []
        for k in range(1, n + 1):
            acc = TSeries.zero(p, 7, 9)
            for u, c in factors:
                acc = acc.add(TSeries(p, 7, 9, u).pow_int(k).mul_int(c))
            sums.append(acc)
    else:
        sums = [TSeries(p, 7, 9, draw(residues)) for _ in range(n)]
    weighted = []
    for s in sums:
        wp, wc = draw(windows)
        weighted.append(TSeries(p, wp, wc, s.coeffs))
    return weighted, one


def _exp_outcome(fn, weighted, one):
    try:
        return [(c.prec, c.cap, c.coeffs) for c in fn(weighted, one)]
    except (IntegralityError, PrecisionError) as exc:
        return type(exc)


class TestExpLog:
    def test_exp_of_s_gives_inverse_factorials(self):
        p, prec = 101, 3
        one = TSeries.const(p, prec, 1, 1)
        w = [one] + [one.zero_like()] * 4  # w_k = k*g_k for g = s
        F = exp_generating(w, one)
        pm = p**prec
        for m in range(6):
            assert F.coeffs[m].coeff(0) == pow(math.factorial(m), -1, pm)

    def test_exp_matches_direct_expansion(self):
        # exp(2s + 3s^2) expanded via sum P^k/k! with exact fractions
        p, prec, deg = 101, 4, 5
        g = {1: 2, 2: 3}
        poly = [Fraction(0)] * (deg + 1)
        powk = [Fraction(1)] + [Fraction(0)] * deg  # P^0
        expd = [Fraction(0)] * (deg + 1)
        for k in range(deg + 1):
            fk = Fraction(1, math.factorial(k))
            for i, c in enumerate(powk):
                expd[i] += c * fk
            nxt = [Fraction(0)] * (deg + 1)
            for i, c in enumerate(powk):
                if c:
                    for j, gj in g.items():
                        if i + j <= deg:
                            nxt[i + j] += c * gj
            powk = nxt
        one = TSeries.const(p, prec, 1, 1)
        w = [one.mul_int(1 * g.get(1, 0)), one.mul_int(2 * g.get(2, 0))] + [
            one.zero_like()
        ] * (deg - 2)
        F = exp_generating(w, one)
        pm = p**prec
        for m in range(deg + 1):
            frac = expd[m]
            want = frac.numerator * pow(frac.denominator, -1, pm) % pm
            assert F.coeffs[m].coeff(0) == want

    @settings(deadline=None, max_examples=200)
    @given(exp_inputs())
    def test_exp_matches_oracle_with_windows(self, inputs):
        weighted, one = inputs
        got = _exp_outcome(lambda w, o: exp_generating(w, o).coeffs, weighted, one)
        assert got == _exp_outcome(oracle_exp_generating, weighted, one)

    def test_exp_slots_hold_the_largest_sums(self):
        # every residue of every w_k is p^5 - 1: the slots are 80 bits wide
        # for 7 pairs of cap 16, where one pair's bound gives 72, and the
        # last steps' sums pass 2^72; p = 101 makes every division a unit's
        p, top = 101, 101**5 - 1
        one = TSeries.const(p, 5, 16, 1)
        weighted = [TSeries(p, 5, 16, dict.fromkeys(range(16), top))] * 7
        got = _exp_outcome(lambda w, o: exp_generating(w, o).coeffs, weighted, one)
        assert got == _exp_outcome(oracle_exp_generating, weighted, one)

    def test_exp_rejects_a_sum_that_does_not_divide(self):
        # F_3 = (w_1 F_2 + w_2 F_1 + w_3 F_0) / 3 = 1/3 at p = 3
        one = TSeries.const(3, 4, 3, 1)
        zero = one.zero_like()
        with pytest.raises(IntegralityError):
            exp_generating([zero, zero, one], one)

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=5))
    @settings(deadline=None)
    def test_log_undoes_exp(self, ws):
        one = TSeries.const(103, 3, 1, 1)
        weighted = [one.mul_int(c) for c in ws]
        F = exp_generating(weighted, one)
        back = log_generating(F)
        for orig, rec in zip(weighted, back):
            assert orig == rec


class TestSSeries:
    def test_inverse_geometric(self):
        one = TSeries.const(5, 3, 1, 1)
        # 1 - s  ->  inverse is all-ones
        F = SSeries([one, one.neg(), one.zero_like(), one.zero_like()])
        G = F.inverse()
        assert all(c.is_one() for c in G.coeffs)
        assert F.mul(G).coeffs[0].is_one()
        assert all(c.is_zero() for c in F.mul(G).coeffs[1:])

    def test_scale_s(self):
        one = TSeries.const(5, 3, 1, 1)
        F = SSeries([one, one, one])
        G = F.scale_s(lambda k: 2**k)
        assert [c.coeff(0) for c in G.coeffs] == [1, 2, 4]

    def test_pow_negative(self):
        one = TSeries.const(5, 4, 1, 1)
        F = SSeries([one, one.mul_int(3), one.zero_like()])
        assert F.pow_int(-2).mul(F.pow_int(2)).coeffs[0].is_one()


class TestHull:
    def test_frozen_example(self):
        pts = [(0, 0), (1, 2), (2, 1), (3, 3), (4, 9)]
        hull = lower_hull(pts)
        assert hull == [
            (Fraction(0), Fraction(0)),
            (Fraction(2), Fraction(1)),
            (Fraction(3), Fraction(3)),
            (Fraction(4), Fraction(9)),
        ]

    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(-30, 30)),
            min_size=1,
            max_size=12,
        )
    )
    def test_hull_properties(self, raw):
        pts = [(Fraction(x), Fraction(y)) for x, y in raw]
        hull = lower_hull(pts)
        # vertices are input points
        assert set(hull) <= {(x, min(y for a, y in pts if a == x)) for x, _ in pts}
        # slopes strictly increase
        slopes = [
            (y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])
        ]
        assert all(s0 < s1 for s0, s1 in zip(slopes, slopes[1:]))
        # every point lies on or above the hull
        P = exact_polygon(hull, hull[-1][0])
        for x, y in pts:
            if hull[0][0] <= x <= hull[-1][0]:
                assert y >= P.value_at(x)


class TestCertifiedPolygon:
    def test_all_exact_is_fully_certified(self):
        P = certified_polygon([(0, 0, 10), (1, 1, 10), (2, 3, 10)])
        assert P.certified_upto == 2
        assert P.vertices == ((0, 0), (1, 1), (2, 3))

    def test_unknown_coefficient_caps_certification(self):
        # x=2 only known to have valuation >= 2; the floor hull bends there
        P = certified_polygon([(0, 0, 10), (1, 1, 10), (2, None, 2), (3, 6, 10)])
        assert P.certified_upto == 1

    def test_high_cap_unknown_does_not_block(self):
        # unknown at cap 100 sits far above the exact hull; prefix unaffected
        P = certified_polygon([(0, 0, 10), (1, 1, 10), (2, None, 100), (3, 3, 10)])
        assert P.certified_upto == 3
        assert P.value_at(2) == 2

    def test_ray_cuts_certification(self):
        # exact data climbs at slope 3 but the tail bound only promises
        # slope 1 from x=3, so later terms could cut in below x=2
        pts = [(0, 0, 50), (1, 3, 50), (2, 6, 50)]
        P = certified_polygon(pts, ray=(3, 7, 1))
        assert P.certified_upto < 2

    def test_steep_ray_is_harmless(self):
        pts = [(0, 0, 50), (1, 1, 50), (2, 2, 50)]
        P = certified_polygon(pts, ray=(3, 3, 1))
        assert P.certified_upto == 2

    def test_polygon_from_sseries_reads_val_data(self):
        one = TSeries.const(3, 4, 8, 1)
        c1 = TSeries(3, 4, 8, {2: 2})  # valuation 2
        c2 = TSeries(3, 4, 8, {})  # unknown, cap 8 (above the hull, harmless)
        c3 = TSeries(3, 4, 8, {6: 1})
        P = polygon_from_sseries(SSeries([one, c1, c2, c3]))
        assert P.value_at(1) == 2
        assert P.certified_upto == 3


class TestPolygonOps:
    def test_rescale(self):
        P = exact_polygon(((0, 0), (2, 3)), 2)
        Q = polygon_rescale(P, Fraction(1, 3))
        assert Q.value_at(2) == 1

    def test_dominates_and_equal(self):
        lo = exact_polygon(((0, 0), (3, 3)), 3)
        hi = exact_polygon(((0, 0), (1, 2), (3, 4)), 3)
        assert polygon_dominates(hi, lo)
        assert not polygon_dominates(lo, hi)
        assert polygons_equal_on(lo, lo, upto=3)

    def test_fractional_window_reads_its_end(self):
        # the hulls agree up to x = 1 and part between 1 and 2: a window
        # ending at 3/2 must compare them there, not at a vertex
        P = exact_polygon(((0, 0), (1, 1), (2, 1)), 2)
        Q = exact_polygon(((0, 0), (1, 1), (2, 3)), 2)
        assert polygon_dominates(P, Q, 1)
        assert not polygon_dominates(P, Q, Fraction(3, 2))
        assert polygon_verdict(Q, P, 1) == "true"
        assert polygon_verdict(Q, P, Fraction(3, 2)) == "false"

    def test_no_common_range_is_an_error(self):
        P = exact_polygon(((0, 0),), 0)
        with pytest.raises(DomainError):
            polygon_dominates(P, P)


_small = st.integers(0, 30).map(lambda k: Fraction(k, 3))


@st.composite
def valuation_data(draw, builds=False):
    """certified_polygon arguments: points with None entries under caps,
    an optional ray, an optional lower bound (as a table over x) and
    vals_exact either way.  With ``builds`` the data start at valuation 0
    and the bound stays under every visible valuation, as C's do."""
    n = draw(st.integers(1, 7))
    pts = [(x, draw(st.none() | _small), draw(_small)) for x in range(n)]
    ray = draw(st.none() | st.tuples(st.integers(0, n + 2), _small, _small))
    lower = draw(st.none() | st.lists(_small, min_size=n, max_size=n))
    if builds:
        pts[0] = (0, Fraction(0), pts[0][2])
        if lower is not None:
            lower = [b if v is None else min(b, v) for b, (_, v, _) in zip(lower, pts)]
    return pts, ray, lower, draw(st.booleans())


def _outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (DomainError, TheoremViolation) as exc:
        return type(exc), str(exc)


def _build(data, build=certified_polygon):
    pts, ray, lower, vals_exact = data
    bound = None if lower is None else (lambda x: lower[int(x)])
    return _outcome(build, pts, ray, bound, vals_exact)


@st.composite
def polygon_pairs(draw):
    """Two certified polygons, or one against an exact reading of either of
    its hulls, so that every verdict turns up."""
    P = _build(draw(valuation_data(builds=True)))
    kind = draw(st.sampled_from(["independent", "floor", "upper"]))
    if kind == "independent":
        Q = _build(draw(valuation_data(builds=True)))
    else:
        hull = P.vertices if kind == "floor" else P.upper
        Q = exact_polygon(hull, draw(st.integers(0, int(hull[-1][0]))))
    if draw(st.booleans()):
        P, Q = Q, P
    return P, Q, draw(st.none() | _small)


class TestPolygonReferences:
    """One window function and one checkpoint walk against the references
    with a window and checkpoint set of their own per comparison."""

    @settings(max_examples=300, deadline=None)
    @given(valuation_data())
    def test_certified_polygon(self, data):
        assert _build(data) == _build(data, oracle_certified_polygon)

    @settings(max_examples=300, deadline=None)
    @given(polygon_pairs())
    def test_dominates_and_verdict(self, pair):
        P, Q, upto = pair
        for cap in (None, upto):
            assert _outcome(polygon_dominates, P, Q, cap) == _outcome(
                oracle_polygon_dominates, P, Q, cap
            )
            assert polygon_verdict(P, Q, cap) == oracle_polygon_verdict(P, Q, cap)


_fractional = st.builds(Fraction, st.integers(0, 40), st.integers(1, 7))


@st.composite
def hodge_grids(draw):
    """A Hodge polygon of a random small support: absolute, rescaled by
    a(p-1) or by 1/(a(p-1)) for p <= 7 and a <= 3, so that its ordinates
    have denominators dividing D*a(p-1)."""
    n = draw(st.integers(1, 2))
    support = draw(
        st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=3, unique=True)
    )
    try:
        dd = DegreeData(support, n)
    except DomainError:
        reject()
    absolute = hodge_polygon_absolute(dd, draw(st.integers(0, 2 * dd.D)))
    scale = draw(st.sampled_from((2, 3, 5, 7))) - 1
    scale *= draw(st.integers(1, 3))
    return polygon_rescale(absolute, draw(st.sampled_from((1, scale, Fraction(1, scale)))))


@st.composite
def hodge_valuation_data(draw):
    """certified_polygon arguments read off a Hodge polygon H: valuations
    H(x) or None, fractional caps, H's ray from a random start with its
    fractional value and slope, and a lower bound at most H."""
    H = draw(hodge_grids())
    n = min(H.last_x, 6) + 1
    pts = []
    for x in range(n):
        v = H.value_at(x) + draw(st.sampled_from((0, 0, Fraction(1, 2))))
        pts.append((x, draw(st.none() | st.just(v)), v + draw(_fractional)))
    if pts[0][1] is None and draw(st.booleans()):
        pts[0] = (0, H.value_at(0), pts[0][2])
    ray = draw(st.none() | st.integers(0, H.last_x).map(lambda x: hodge_ray(H, x)))
    lower = draw(st.none() | st.just([H.value_at(x) - draw(_fractional) / 4 for x in range(n)]))
    return H, (pts, ray, lower, draw(st.booleans()))


class TestPolygonGrids:
    """The integer grid where denominators are not 1: Hodge polygons of
    random supports, their rays and fractional windows, against the
    references."""

    @settings(max_examples=120, deadline=None)
    @given(hodge_valuation_data(), hodge_grids(), st.none() | _fractional)
    def test_against_references(self, data, other, upto):
        H, args = data
        P = _build(args)
        assert P == _build(args, oracle_certified_polygon)
        pairs = [(H, other), (other, H), (H, H)]
        if isinstance(P, NewtonPolygon):
            pairs += [(P, H), (H, P), (P, other)]
        for A, B in pairs:
            assert _outcome(polygon_dominates, A, B, upto) == _outcome(
                oracle_polygon_dominates, A, B, upto
            )
            assert polygon_verdict(A, B, upto) == oracle_polygon_verdict(A, B, upto)


class TestSlopeSeries:
    def test_from_polygon_and_back(self):
        P = exact_polygon(((0, 0), (2, 1), (3, 2)), 3)
        S = SlopeSeries.from_polygon(P, upto=3)
        assert S.items == ((Fraction(1, 2), 2), (Fraction(1), 1))
        assert S.to_polygon().vertices == P.vertices

    def test_mul_small_example(self):
        A = SlopeSeries(items=((Fraction(0), 1), (Fraction(1), 1)), cap=None)
        B = SlopeSeries(items=((Fraction(0), 1), (Fraction(1), 2), (Fraction(2), 3)), cap=None)
        C = slope_series_mul(A, B, slope_cap=2)
        assert C.items == ((Fraction(0), 1), (Fraction(1), 3))

    def test_geometric_multiplicities(self):
        S = geometric_slopes(2, 5)
        assert [m for _, m in S.items] == [1, 2, 3, 4, 5]
        T = geometric_slopes(1, 4)
        assert all(m == 1 for _, m in T.items)

    def test_mul_rejects_short_factor(self):
        A = geometric_slopes(1, 2)
        with pytest.raises(DomainError):
            slope_series_mul(A, A, slope_cap=5)


def test_vp_helpers():
    assert vp(12, 2) == 2
    assert vp(12, 3) == 1
    assert vp_factorial(10, 2) == 8  # 5 + 2 + 1
    assert vp_factorial(10, 3) == 4
