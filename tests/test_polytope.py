import math
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from oracles import (
    NotInConeError,
    _solve_unique,
    cofacial_defect,
    degree_of,
    edges,
    exponent_I,
    from_reduced,
    in_convex_hull,
    is_torus_zero,
    oracle_closed_faces,
    oracle_degree,
    oracle_face_points,
    oracle_torus_zero,
    polygons_equal_on,
)
from tadic import polytope
from tadic.arith import FieldContext, field_context
from tadic.errors import DomainError
from tadic.polytope import (
    DegreeData,
    LaurentPoly,
    common_points,
    hodge_polygon,
    hodge_polygon_absolute,
    hodge_polygon_to_width,
    hodge_ray,
    integer_kernel,
    is_nondegenerate,
    newton_data,
    primitive,
    restrict_to_face,
    saturated_span,
)
from tadic.series import polygon_rescale


SPERBER = [(1, 0), (0, 1), (-1, -1)]


def ctx3():
    return FieldContext(3, 1)


def poly(exps, p=3, a=1):
    ctx = FieldContext(p, a)
    return LaurentPoly.make(len(exps[0]), {e: ctx.one() for e in exps}, ctx)


class TestLinearAlgebra:
    def test_kernel_simple(self):
        ker, _ = integer_kernel([(1, 2)], 2)
        assert len(ker) == 1
        assert ker[0] in [(2, -1), (-2, 1)]

    def test_kernel_full_rank(self):
        assert integer_kernel([(1, 0), (0, 1)], 2) == ([], [])

    def test_kernel_saturated(self):
        # kernel of (2, 4) must contain (2, -1), not just (4, -2)
        ker, _ = integer_kernel([(2, 4)], 2)
        assert len(ker) == 1
        assert primitive(ker[0]) == ker[0] or primitive(ker[0]) == tuple(-c for c in ker[0])

    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
            min_size=1,
            max_size=3,
        )
    )
    def test_kernel_annihilates(self, rows):
        ker, inverse = integer_kernel(rows, 3)
        for v in ker:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0
        # the integer left inverse: inverse * ker is the identity
        assert [[sum(a * b for a, b in zip(l, v)) for v in ker] for l in inverse] == [
            [int(i == j) for j in range(len(ker))] for i in range(len(ker))
        ]

    def test_saturated_span(self):
        basis, inverse = saturated_span([(2, 0)], 2)
        assert len(basis) == 1
        assert basis[0] in [(1, 0), (-1, 0)]
        assert inverse[0] in [(1, 0), (-1, 0)]


@st.composite
def supports_and_points(draw):
    """A support of rank r <= n (integer combinations of r drawn
    generators, so often r < n), with one point on its span (a combination
    of the support) and one arbitrary point."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-3, 3)] * n)
    gens = draw(st.lists(vec, min_size=1, max_size=n))
    combos = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(gens)), min_size=1, max_size=4))
    support = sorted({tuple(sum(c * g[i] for c, g in zip(cs, gens)) for i in range(n)) for cs in combos})
    mult = draw(st.tuples(*[st.integers(-2, 2)] * len(support)))
    on = tuple(sum(m * u[i] for m, u in zip(mult, support)) for i in range(n))
    return support, n, [on, draw(vec)]


class TestReducedCoordinates:
    @settings(deadline=None, max_examples=80)
    @given(supports_and_points())
    @example(([(2, 2)], 2, [(1, 1), (1, 0)]))
    @example(([(2, 0, 0), (0, 2, 2)], 3, [(1, 1, 1), (1, 1, 0)]))
    @example((SPERBER, 2, [(1, 2), (-3, 1)]))
    def test_to_reduced_against_exact_solve(self, case):
        # integer coordinates in the saturated basis exactly when the exact
        # rational solve finds a (necessarily integral) solution, else None
        support, n, points = case
        try:
            dd = DegreeData(support, n)
        except DomainError:
            reject()
        for u in points:
            sol = _solve_unique(dd.basis, u)
            assert sol is None or all(x.denominator == 1 for x in sol)
            want = None if sol is None else tuple(int(x) for x in sol)
            assert dd.to_reduced(u) == want
            if want is not None:
                assert from_reduced(dd, want) == u

    def test_one_degree_data_per_support(self):
        f = poly(SPERBER, p=3)
        ctx = FieldContext(5, 2)
        g = LaurentPoly.make(
            2, {(1, 0): ctx.generator, (0, 1): ctx.one(), (-1, -1): ctx.from_int(2)}, ctx
        )
        dd = newton_data(f)
        assert newton_data(g) is dd
        assert newton_data(poly(SPERBER, p=7)) is dd
        assert newton_data(poly([(1, 0), (0, 1)])) is not dd
        # nothing in the shared object changes as it is read but the cone
        # scan it keeps, which only deepens and answers as a fresh scan does
        before = dict(vars(dd))
        dd.to_reduced((2, 1))
        dd.to_reduced((-1, 3))
        pts = dd.cone_points_upto(4)
        is_nondegenerate(g)
        after = dict(vars(dd))
        kept, was = after.pop("_cone"), before.pop("_cone")
        assert after == before
        assert kept[0] >= max(4, -1 if was is None else was[0])
        assert pts == DegreeData(SPERBER, 2).cone_points_upto(4)


class TestDegreeData:
    def test_sperber_facets(self):
        dd = DegreeData(SPERBER, 2)
        assert dd.rank == 2
        assert dd.D == 1
        normals = sorted(f.normal for f in dd.facets_height)
        assert normals == [(-2, 1), (1, -2), (1, 1)]
        assert not dd.facets_origin  # origin is interior

    def test_sperber_degrees(self):
        dd = DegreeData(SPERBER, 2)
        assert degree_of(dd, (1, 0)) == 1
        assert degree_of(dd, (0, 1)) == 1
        assert degree_of(dd, (-1, -1)) == 1
        assert degree_of(dd, (0, -1)) == 2
        assert degree_of(dd, (0, 0)) == 0

    def test_degrees_match_oracle(self):
        dd = DegreeData(SPERBER, 2)
        pts = SPERBER + [(0, 0)]
        for u in [(1, 1), (2, 1), (0, -1), (-2, 1), (3, 3), (-1, 0)]:
            got = degree_of(dd, u)
            assert got == oracle_degree(pts, u, dd.D, kmax=12)

    def test_cofacial_defect_same_facet(self):
        dd = DegreeData(SPERBER, 2)
        assert cofacial_defect(dd, (1, 0), (0, 1)) == 0

    def test_cofacial_defect_opposite_corners_via_oracle(self):
        # the value is computed from the brute-force degree oracle, not
        # assumed: deg(1,0) + deg(-1,-1) - deg(0,-1)
        dd = DegreeData(SPERBER, 2)
        pts = SPERBER + [(0, 0)]
        want = (
            oracle_degree(pts, (1, 0), 1, 8)
            + oracle_degree(pts, (-1, -1), 1, 8)
            - oracle_degree(pts, (0, -1), 1, 8)
        )
        assert cofacial_defect(dd, (1, 0), (-1, -1)) == want
        assert want == 0  # both endpoints sit on the facet with normal (1,-2)

    def test_defect_of_zero(self):
        dd = DegreeData(SPERBER, 2)
        assert cofacial_defect(dd, (1, 0), (0, 0)) == 0

    def test_not_in_cone(self):
        dd = DegreeData([(3,)], 1)
        with pytest.raises(NotInConeError):
            degree_of(dd, (-1,))

    def test_interval_with_negative_end(self):
        dd = DegreeData([(-2,), (3,)], 1)
        assert degree_of(dd, (3,)) == 1
        assert degree_of(dd, (-2,)) == 1
        assert degree_of(dd, (-1,)) == Fraction(1, 2)
        assert dd.D == 6

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
    @settings(deadline=None, max_examples=40)
    def test_subadditivity(self, u0, u1, v0, v1):
        dd = DegreeData(SPERBER, 2)
        u, v = (u0, u1), (v0, v1)
        s = (u0 + v0, u1 + v1)
        assert degree_of(dd, s) <= degree_of(dd, u) + degree_of(dd, v)
        assert (degree_of(dd, u) * dd.D).denominator == 1

    def test_lower_dimensional_diagonal(self):
        dd = DegreeData([(1, 1)], 2)
        assert dd.rank == 1
        assert degree_of(dd, (2, 2)) == 2
        with pytest.raises(NotInConeError):
            degree_of(dd, (1, 0))

    def test_box_limit_is_checked_before_the_scan(self, monkeypatch):
        dd = newton_data(poly(SPERBER))
        # degree <= 2 on the Sperber triangle scans the box [-2, 2]^2
        monkeypatch.setattr(polytope, "BOX_LIMIT", 25)
        assert len(dd.cone_points_upto(2)) == 10
        monkeypatch.setattr(polytope, "BOX_LIMIT", 24)
        with pytest.raises(DomainError, match="holds 25 lattice points, past the box limit 24"):
            dd.cone_points_upto(2)
        # a negative depth scans the mirrored box, and is refused the same
        with pytest.raises(DomainError, match="holds 25 lattice points, past the box limit 24"):
            dd.weight_counts(-2)

    @pytest.mark.parametrize("support, K", [([(-2,), (3,)], 7), ([(2, 3), (-1, 1), (1, -2)], 40)])
    def test_box_is_the_lattice_hull_of_the_scaled_polytope(self, support, K, monkeypatch):
        # with D > 1 the ends of K/D * Delta are fractional: the box runs from
        # their ceilings to their floors (6 and 24 points here, where the
        # floor-to-ceiling box held 8 and 48), and the refusal counts it
        dd = DegreeData(support, len(support[0]))
        assert dd.D > 1
        ends = zip(*[[Fraction(x * K, dd.D) for x in u] for u in dd.red_points])
        box = math.prod(math.floor(max(c)) - math.ceil(min(c)) + 1 for c in ends)
        monkeypatch.setattr(polytope, "BOX_LIMIT", box - 1)
        with pytest.raises(DomainError, match=f"holds {box} lattice points, past the box limit"):
            dd.cone_points_upto(K)

    def test_weight_counts_interval(self):
        dd = DegreeData([(4,)], 1)
        assert dd.weight_counts(9) == [1] * 10

    def test_weight_counts_sperber(self):
        dd = DegreeData(SPERBER, 2)
        W = dd.weight_counts(5)
        assert W == [1, 3, 6, 9, 12, 15]

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(1, 2).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=3, unique=True
            )
        ),
        st.integers(0, 6),
    )
    @example(SPERBER, 3)
    @example([(1, 1)], 2)
    @example([(-2,), (3,)], 7)
    def test_weight_counts_against_oracle(self, support, K):
        # points and grid degrees of the cone scan against a brute-force
        # scaled-hull scan of the box around K/D * Delta in ambient coordinates
        n = len(support[0])
        try:
            dd = DegreeData(support, n)
        except DomainError:
            reject()
        pts = list(support) + [(0,) * n]
        got = {from_reduced(dd, ur): g for ur, g in dd.cone_points_upto(K)}
        span = max(abs(c) for u in support for c in u) * K // dd.D
        want = {}
        for u in product(range(-span, span + 1), repeat=n):
            d = oracle_degree(pts, u, dd.D, K)
            if d is not None:
                want[u] = d * dd.D
        assert got == want
        assert dd.weight_counts(K) == [list(want.values()).count(k) for k in range(K + 1)]


class TestHodge:
    def test_cubic_example(self):
        # slope classes j = 0..K with slope a(p-1)j/D = 2j and width 1 each
        dd = DegreeData([(3,)], 1)
        P = hodge_polygon(dd, p=7, a=1, K=2)
        assert P.vertices == (
            (0, 0),
            (1, 0),
            (2, 2),
            (3, 6),
        )
        deeper = hodge_polygon(dd, p=7, a=1, K=3)
        assert deeper.vertices[-1] == (4, 12)

    def test_depth_zero(self):
        dd = DegreeData([(3,)], 1)
        P = hodge_polygon(dd, p=7, a=1, K=0)
        assert P.vertices == ((0, 0), (1, 0))

    def test_negative_depth_refused(self):
        dd = DegreeData([(3,)], 1)
        with pytest.raises(DomainError, match="cutoff must be >= 0"):
            hodge_polygon(dd, p=7, a=1, K=-1)
        with pytest.raises(DomainError, match="cutoff must be >= 0"):
            hodge_polygon_absolute(dd, -2)

    def test_absolute_times_scale_is_q_variant(self):
        dd = DegreeData(SPERBER, 2)
        p, a, K = 3, 2, 4
        P = hodge_polygon(dd, p, a, K)
        Q = polygon_rescale(hodge_polygon_absolute(dd, K), a * (p - 1))
        assert polygons_equal_on(P, Q)

    def test_convexity(self):
        dd = DegreeData(SPERBER, 2)
        P = hodge_polygon(dd, 3, 1, 6)
        slopes = [s for s, _ in edges(P)]
        assert all(s0 < s1 for s0, s1 in zip(slopes, slopes[1:]))

    def test_to_width_and_ray(self):
        dd = DegreeData([(2,)], 1)
        P = hodge_polygon_to_width(dd, p=3, a=1, width=5)
        assert P.last_x >= 5
        start, v0, slope = hodge_ray(P, 3)
        # the ray is a lower bound for the polygon beyond its start
        for x in range(3, int(P.last_x) + 1):
            assert P.value_at(x) >= v0 + slope * (x - start)


class TestVolume:
    def test_interval(self):
        assert DegreeData([(5,)], 1).normalized_volume() == 5

    def test_sperber(self):
        assert DegreeData(SPERBER, 2).normalized_volume() == 3

    def test_unit_square(self):
        dd = DegreeData([(1, 0), (0, 1), (1, 1)], 2)
        assert dd.normalized_volume() == 2

    def test_lower_dim_segment(self):
        assert DegreeData([(1, 1)], 2).normalized_volume() == 1

    def test_big_simplex(self):
        # conv(0, 2e1, 3e2): 2! * area = 6
        assert DegreeData([(2, 0), (0, 3)], 2).normalized_volume() == 6


class TestFaces:
    def test_sperber_codim1(self):
        f = poly(SPERBER)
        dd = newton_data(f)
        assert len(dd.facets_height) == 3
        for facet in dd.facets_height:
            assert len(facet.points) == 2

    def test_restrict_to_edge(self):
        f = poly(SPERBER)
        dd = newton_data(f)
        for face in dd.closed_faces():
            if dd.to_reduced((1, 0)) in face and dd.to_reduced((0, 1)) in face:
                g = restrict_to_face(f, dd, face)
                assert sorted(g.exponents()) == [(0, 1), (1, 0)]
                return
        pytest.fail("edge through (1,0),(0,1) not found")

    def test_restriction_polytope_has_single_height_facet(self):
        f = poly(SPERBER)
        dd = newton_data(f)
        g = restrict_to_face(f, dd, dd.facets_height[0].points)
        dd2 = newton_data(g)
        assert len(dd2.facets_height) == 1

    def test_monomial_face(self):
        f = poly([(3,)], p=7)
        dd = newton_data(f)
        assert len(dd.facets_height) == 1
        g = restrict_to_face(f, dd, dd.facets_height[0].points)
        assert g.exponents() == [(3,)]

    def test_closed_faces_sperber(self):
        dd = DegreeData(SPERBER, 2)
        faces = dd.closed_faces()
        # 3 edges + 3 vertices, none containing the interior origin
        assert len(faces) == 6
        assert all((0, 0) not in face for face in faces)

    def test_closed_faces_interval_with_origin_vertex(self):
        dd = DegreeData([(3,)], 1)
        faces = dd.closed_faces()
        assert len(faces) == 2
        assert sum((0,) in face for face in faces) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=5, unique=True
            )
        )
    )
    def test_faces_match_the_equation_scan(self, exps):
        # the faces, and the face point sets the facial dimensions of
        # facial_criterion are read from, against evaluating every facet
        # equation at every point
        try:
            dd = DegreeData(exps, len(exps[0]))
        except DomainError:
            reject()
        assert dd.closed_faces() == oracle_closed_faces(dd)
        height = dd.facets_height
        for size in range(1, len(height) + 1):
            for combo in combinations(height, size):
                assert common_points(combo) == oracle_face_points(dd, combo)


@st.composite
def face_polys(draw):
    """f over F_q, q = p^a <= 9, in n <= 2 variables, with 2 to 4 terms of
    exponents in [-3, 4]^n and random unit coefficients."""
    ctx = field_context(*draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)])))
    n = draw(st.integers(1, 2))
    exps = draw(st.lists(st.tuples(*[st.integers(-3, 4)] * n), min_size=2, max_size=4, unique=True))
    return LaurentPoly.make(n, {e: ctx.decode(draw(st.integers(1, ctx.q - 1))) for e in exps}, ctx)


class TestNondegeneracy:
    @settings(max_examples=200, deadline=None)
    @given(face_polys())
    @example(poly([(2, 1), (1, 2)], p=3))
    def test_certificate_passes_no_face_with_a_torus_zero(self, f):
        # every face off the origin with no single-monomial partial: the
        # exponent-row certificate (the search switched off, so a pass can
        # only be its own) never passes a face whose gradient the
        # exhaustive search finds a torus zero of; at the example the rows
        # (2, 1), (1, 2) have rank 2 but determinant 3, and (1, 1) is a zero
        try:
            dd = newton_data(f)
        except DomainError:
            reject()
        origin = dd.to_reduced((0,) * f.n)
        with mock.patch.object(polytope, "NONDEGENERACY_SEARCH_DEGREE", 0):
            for face in dd.closed_faces():
                if origin in face:
                    continue
                g = restrict_to_face(f, dd, face)
                if any(len(g.partial(i)) == 1 for i in range(f.n)):
                    continue
                if polytope._face_poly_verdict(f, dd, face)[0] == "pass":
                    assert oracle_torus_zero(g) is None, (g.terms, face)

    @settings(max_examples=200, deadline=None)
    @given(face_polys())
    @example(poly([(2, 1), (1, 2)], p=3))
    def test_search_finds_a_witness_exactly_when_the_torus_has_a_zero(self, f):
        # every face no certificate settles: the search by discrete logs
        # calls it degenerate exactly when the exhaustive search by field
        # products finds a zero in a round within the torus limit, in the
        # same round, and its witness is a zero; the two visit the units
        # in different orders, so the witnesses themselves may differ
        try:
            dd = newton_data(f)
        except DomainError:
            reject()
        origin = dd.to_reduced((0,) * f.n)
        rounds = range(1, polytope.NONDEGENERACY_SEARCH_DEGREE + 1)
        max_r = sum((f.ctx.q**r - 1) ** f.n <= polytope.TORUS_LIMIT for r in rounds)
        for face in dd.closed_faces():
            if origin in face:
                continue
            with mock.patch.object(polytope, "NONDEGENERACY_SEARCH_DEGREE", 0):
                if polytope._face_poly_verdict(f, dd, face)[0] != "open":
                    continue
            g = restrict_to_face(f, dd, face)
            status, witness = polytope._face_poly_verdict(f, dd, face)
            zero = oracle_torus_zero(g, max_r)
            assert (status == "degenerate") == (zero is not None), (g.terms, face)
            if zero is not None:
                assert witness[1] == zero[1] and is_torus_zero(g, *witness), (g.terms, witness)

    def test_monomial_good(self):
        assert is_nondegenerate(poly([(4,)], p=3)) == "nondegenerate"

    def test_monomial_bad(self):
        verdict = is_nondegenerate(poly([(3,)], p=3))
        assert verdict[0] == "degenerate"

    def test_sperber_certified(self):
        assert is_nondegenerate(poly(SPERBER, p=3)) == "nondegenerate"
        assert is_nondegenerate(poly(SPERBER, p=2)) == "nondegenerate"

    def test_binomial_with_torus_zero(self):
        # f = x^2 y + x y^2 over F_3: the edge through (2,1) and (1,2)
        # misses the origin and carries both terms; its partials
        # 2xy + y^2 and x^2 + 2xy share the torus zero (1, 1)
        f = poly([(2, 1), (1, 2)], p=3)
        verdict = is_nondegenerate(f)
        assert verdict[0] == "degenerate"

    @pytest.mark.parametrize("limit,rounds", [(15, []), (16, [1]), (576, [1, 2])])
    def test_search_rounds_stop_at_the_torus_limit(self, monkeypatch, limit, rounds):
        # over F_5 the edge g^3*x^-3 + g^3*y^-3 + x^-1*y^-2 has no
        # certificate (three exponent rows in rank 2) and no torus zero:
        # round r walks (5^r - 1)^2 points, 16 then 576, and a round past
        # the limit is not walked, leaving the face open
        ctx = FieldContext(5, 1)
        g3 = ctx.pow(ctx.generator, 3)
        f = LaurentPoly.make(2, {(-3, 0): g3, (0, -3): g3, (-1, -2): ctx.one()}, ctx)
        walked = []
        ext = ctx.ext
        monkeypatch.setattr(ctx, "ext", lambda r: walked.append(r) or ext(r))
        monkeypatch.setattr(polytope, "TORUS_LIMIT", limit)
        assert is_nondegenerate(f) == "unknown"
        assert walked == rounds

    def test_additive_polynomial_detected(self):
        # f = x^3 + x over F_3: the facet restriction x^3 has zero derivative
        f = poly([(3,), (1,)], p=3)
        verdict = is_nondegenerate(f)
        assert verdict[0] == "degenerate"


class TestExponentI:
    def test_interval(self):
        for d in (1, 2, 3, 4):
            dd = DegreeData([(d,)], 1)
            assert exponent_I(dd, 6) == d

    def test_sperber(self):
        dd = DegreeData(SPERBER, 2)
        assert exponent_I(dd, 4) == 1

    def test_bound_exceeded(self):
        dd = DegreeData([(5,)], 1)
        assert exponent_I(dd, 3) == ">= 3"

    def test_I_at_least_D_when_origin_is_a_vertex(self):
        for exps in [[(2,)], [(3,)], SPERBER]:
            dd = DegreeData(exps, len(exps[0]))
            I = exponent_I(dd, 12)
            assert isinstance(I, int) and I >= dd.D

    def test_two_sided_interval_collapses(self):
        # endpoints -2 and 3 have degree 1 and generate all of Z as a
        # monoid, so the exponent drops to 1 even though D = 6
        dd = DegreeData([(-2,), (3,)], 1)
        assert dd.D == 6
        assert exponent_I(dd, 12) == 1


class TestLaurentPoly:
    def test_rejects_zero_coefficient(self):
        ctx = ctx3()
        with pytest.raises(DomainError):
            LaurentPoly.make(1, {(1,): ctx.zero()}, ctx)

    def test_rejects_origin_only(self):
        ctx = ctx3()
        with pytest.raises(DomainError):
            LaurentPoly.make(1, {(0,): ctx.one()}, ctx)

    def test_partial(self):
        ctx = ctx3()
        f = LaurentPoly.make(1, {(3,): ctx.one(), (1,): ctx.one()}, ctx)
        d = f.partial(0)
        assert d == {(0,): ctx.one()}  # 3x^2 drops mod 3


class TestHullOracle:
    def test_membership_basics(self):
        tri = [(0, 0), (2, 0), (0, 2)]
        assert in_convex_hull(tri, (1, 1))
        assert in_convex_hull(tri, (0, 0))
        assert not in_convex_hull(tri, (2, 1))
        assert in_convex_hull(tri, (Fraction(1, 2), Fraction(1, 2)))
