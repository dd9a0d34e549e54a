import random

import pytest

import isozeta.intpoly as ip
from isozeta.errors import InputError
from isozeta.graphs import IsogenyGraph, out_degrees, random_graph, random_oriented_regular_graph
from isozeta.walks import count_closed_walks
from isozeta.zeta import (
    FRF,
    adjacency_matrix,
    associated_permutation,
    classical_ihara_zeta,
    cycle_count_series,
    hashimoto_series,
    ihara_matrix,
    ihara_zeta,
    poly_det,
    self_map_det_factors,
    zeta_involution_form,
    zeta_numerator,
)


# -- associated permutations ------------------------------------------------


def test_associated_permutation_identity():
    cc = associated_permutation([0, 1, 2, 3, 4])
    assert cc.cycles == {1: 5}
    assert cc.domain == frozenset(range(5))


def test_associated_permutation_collapsing_map():
    cc = associated_permutation([0, 0])
    assert cc.domain == frozenset({0})
    assert cc.cycles == {1: 1}


def test_associated_permutation_rho_shape():
    # 3 -> 2 -> 0 -> 1 -> 0: stable subset is the 2-cycle {0, 1}
    cc = associated_permutation([1, 0, 0, 2])
    assert cc.domain == frozenset({0, 1})
    assert cc.cycles == {2: 1}


def test_associated_permutation_empty_domain_rejected():
    with pytest.raises(InputError):
        associated_permutation([])


# -- det(1 + s F) ------------------------------------------------------------


def _brute_det_factors(f):
    n = len(f)
    mat = [[((1 if i == j else 0), (1 if f[j] == i else 0)) for j in range(n)] for i in range(n)]
    return poly_det([[ip.trim(e) for e in row] for row in mat])


def test_self_map_det_identity():
    z = self_map_det_factors([0, 1, 2])
    num, den = z.expand()
    assert den == (1,)
    assert num == ip.pow_((1, 1), 3)


def test_self_map_det_three_cycle_sign():
    # a 3-cycle is even, so det(1 + s P) = 1 + s^3
    z = self_map_det_factors([1, 2, 0])
    num, den = z.expand()
    assert (num, den) == ((1, 0, 0, 1), (1,))
    assert num == _brute_det_factors([1, 2, 0])


def test_self_map_det_two_cycle():
    z = self_map_det_factors([1, 0])
    num, _ = z.expand()
    assert num == (1, 0, -1)


def test_self_map_det_collapsing():
    z = self_map_det_factors([0, 0])
    num, den = z.expand()
    assert (num, den) == ((1, 1), (1,))


def test_self_map_det_matches_brute_force_200_maps():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 8)
        f = [rng.randrange(n) for _ in range(n)]
        num, den = self_map_det_factors(f).expand()
        assert den == (1,)
        assert num == _brute_det_factors(f)


# -- matrices and determinants --------------------------------------------------


def test_adjacency_and_q(loops3, two_vertex):
    assert adjacency_matrix(loops3) == [[3]]
    assert adjacency_matrix(two_vertex) == [[1, 3], [2, 2]]
    assert ihara_matrix(loops3) == [[(1, -3, 2)]]  # Q = 2
    edgeless = IsogenyGraph(2, (), (), (0, 1))
    assert adjacency_matrix(edgeless) == [[0, 0], [0, 0]]
    assert ihara_matrix(edgeless) == [[(1, 0, -1), ()], [(), (1, 0, -1)]]  # Q = -I
    assert out_degrees(two_vertex) == [4, 4]


def test_poly_det_one_by_one(loops3):
    det = poly_det(ihara_matrix(loops3))
    assert det == (1, -3, 2)  # (1 - u)(1 - 2u)


def test_poly_det_identity_matrix():
    mat = [[(1,) if i == j else () for j in range(4)] for i in range(4)]
    assert poly_det(mat) == (1,)


def test_poly_det_two_vertex(two_vertex):
    det = poly_det(ihara_matrix(two_vertex))
    want = ip.mul(ip.mul((1, -1), (1, -3)), (1, 1, 3))
    assert det == want


def test_poly_det_random_vs_cofactor():
    def slow(mat):
        n = len(mat)
        if n == 0:
            return (1,)
        if n == 1:
            return mat[0][0]
        out = ()
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            term = ip.mul(mat[0][j], slow(minor))
            out = ip.add(out, ip.scale(term, (-1) ** j))
        return out

    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 4)
        mat = [
            [tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3))) for _ in range(n)]
            for _ in range(n)
        ]
        mat = [[ip.trim(e) for e in row] for row in mat]
        assert poly_det(mat) == ip.trim(slow(mat))


# -- the zeta function itself --------------------------------------------------------


def test_ihara_zeta_three_loops(loops3):
    z = ihara_zeta(loops3)
    want = FRF([((1, 1), -1), ((1, -1), -1), ((1, -2), -1)])
    assert z.equals(want)
    assert cycle_count_series(z, 3) == [2, 6, 8]


def test_ihara_zeta_two_vertex(two_vertex):
    z = ihara_zeta(two_vertex)
    want = FRF([((1, -1), 1), ((1, 0, -1), -1), ((1, -3), -1), ((1, 1, 3), -1)])
    assert z.equals(want)


def test_ihara_zeta_edgeless_graph_is_one():
    g = IsogenyGraph(3, (), (), (0, 1, 2))
    assert ihara_zeta(g).equals(FRF([]))


def test_ihara_zeta_rejects_noncommuting_degree_and_diamond():
    # a dual 4-cycle over a vertex swap plus one tail edge at vertex 1:
    # out-degrees (2, 3) do not commute with the swap
    from isozeta.graphs import validate

    bad = IsogenyGraph(
        2,
        ((0, 0), (0, 1), (1, 1), (1, 0), (1, 0)),
        (1, 2, 3, 0, 0),
        (1, 0),
    )
    assert validate(bad).ok
    assert out_degrees(bad) == [2, 3]
    with pytest.raises(InputError, match="commute"):
        ihara_zeta(bad)


def test_zeta_involution_form_matches(loops3, two_vertex):
    for g in (loops3, two_vertex):
        assert zeta_involution_form(g).equals(ihara_zeta(g))


def test_zeta_involution_form_rejects_long_cycles():
    # dual map is a genuine 4-cycle on a diamond-moved square
    g = IsogenyGraph(
        2,
        ((0, 1), (1, 0), (0, 1), (1, 0)),
        (1, 2, 3, 0),
        (0, 1),
    )
    if validate_ok(g):
        with pytest.raises(InputError):
            zeta_involution_form(g)


def validate_ok(g):
    from isozeta.graphs import validate

    return validate(g).ok


def test_classical_formula_on_random_orientable_graphs():
    rng = random.Random(12)
    for _ in range(20):
        ell = rng.choice((2, 3))
        n = rng.choice([k for k in range(2, 13) if k * (ell + 1) % 2 == 0])
        og = random_oriented_regular_graph(rng, n, ell + 1)
        assert ihara_zeta(og.as_isogeny_graph()).equals(classical_ihara_zeta(og))


# -- series -----------------------------------------------------------------------


def test_series_geometric():
    z = FRF([((1, -1), -1)])  # 1/(1-u)
    assert cycle_count_series(z, 6) == [1] * 6


def test_series_requires_value_one_at_zero():
    with pytest.raises(InputError):
        cycle_count_series(FRF([((2, 1), 1)]), 3)


def test_series_three_ways_match_on_random_graphs(loops3, two_vertex):
    rng = random.Random(13)
    graphs = [loops3, two_vertex]
    for _ in range(25):
        graphs.append(random_graph(rng))
    for _ in range(5):
        og = random_oriented_regular_graph(rng, 4, 3)
        graphs.append(og.as_isogeny_graph())
    for g in graphs:
        if g.num_edges > 60:
            continue
        if not _degrees_commute_with_diamond(g):
            continue
        r = 8
        s1 = cycle_count_series(ihara_zeta(g), r)
        s2 = hashimoto_series(g, r)
        s3 = [count_closed_walks(g, k) for k in range(1, r + 1)]
        assert s1 == s2 == s3


def _degrees_commute_with_diamond(g):
    degs = out_degrees(g)
    return all(degs[g.diamond[x]] == degs[x] for x in range(g.num_vertices))


def test_series_three_ways_match_when_diamond_has_long_cycles():
    # the orientation of L in Q L only matters when L has a cycle of
    # length >= 3; a transposed L gives wrong walk counts on these graphs
    checked = 0
    for seed in range(2000):
        g = random_graph(random.Random(seed), max_vertices=5)
        if max(associated_permutation(g.diamond).cycles) < 3:
            continue
        if not _degrees_commute_with_diamond(g):
            continue
        s1 = cycle_count_series(ihara_zeta(g), 6)
        s2 = hashimoto_series(g, 6)
        s3 = [count_closed_walks(g, r) for r in range(1, 7)]
        assert s1 == s2 == s3, seed
        checked += 1
    assert checked >= 1


def test_hashimoto_series_edgeless():
    g = IsogenyGraph(2, (), (), (0, 1))
    assert hashimoto_series(g, 4) == [0, 0, 0, 0]


# -- factored rational functions -------------------------------------------------------


def test_frf_canonicalization_merges_and_sorts():
    z = FRF([((1, 1), 2), ((1, -1), 1), ((1, 1), -1), ((1,), 7)])
    assert z.factors == (((1, -1), 1), ((1, 1), 1))


def test_frf_zero_factor_rejected():
    with pytest.raises(InputError):
        FRF([((0, 0), 1)])


def test_frf_equality_cross_multiplied():
    a = FRF([((1, 0, -1), 1), ((1, 1), -1)])  # (1-u^2)/(1+u) = 1-u
    b = FRF([((1, -1), 1)])
    assert a.equals(b)
    assert not a.equals(FRF([((1, 1), 1)]))


def test_frf_equality_randomized_evaluation_oracle():
    # canonical equality must agree with evaluating both sides at integers
    from fractions import Fraction

    rng = random.Random(14)
    for _ in range(40):
        factors = [
            (tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3))), rng.randint(-2, 2))
            for _ in range(rng.randint(0, 3))
        ]
        try:
            z = FRF(factors)
        except InputError:
            continue
        w = z * FRF([((1, 2), 1), ((1, 2), -1)])  # multiply by 1 in disguise
        assert z.equals(w)
        num, den = z.expand()
        for x in (2, 3, 5, 7, 11):
            nv, dv = ip.evaluate(num, x), ip.evaluate(den, x)
            wn, wd = w.expand()
            assert Fraction(nv) * ip.evaluate(wd, x) == Fraction(ip.evaluate(wn, x)) * dv


def test_frf_text_roundtrip():
    z = FRF([((1, 0, -1), -2), ((1, -3), 1)])
    lines = z.to_lines()
    assert lines == ["coeffs 1 -3 exp 1", "coeffs 1 0 -1 exp -2"]
    assert FRF.from_lines(lines) == z


def test_zeta_numerator_matches_quotient_data(two_vertex):
    # numerator = (1-u)(1+u)^{-1} for the two-vertex example
    assert zeta_numerator(two_vertex).equals(FRF([((1, -1), 1), ((1, 1), -1)]))
