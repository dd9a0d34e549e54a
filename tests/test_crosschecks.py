"""Cross-module identities tying built graphs to the closed formulas."""

import pytest

from isozeta.graphs import homotopy_rank, is_connected, oriented_graphs, euler_characteristic, quotients
from isozeta.quadforms import (
    borel_euler_characteristics,
    class_number,
    cycle_orders,
    embedding_multiplicity,
    modular_point_count,
    nr_from_class_numbers,
)
from isozeta.ssgraph import build_isogeny_graph
from isozeta.walks import enumerate_primes
from isozeta.zeta import cycle_count_series, ihara_zeta


def test_cycle_count_identity_against_class_numbers():
    # r c_r = sum of m_p(O) h(O) over I_r, for 2 < r with ell^r < p;
    # with every order inert at p this is the plain 2 sum h(O)
    for p, ell, rmax in ((11, 2, 3), (37, 2, 5), (37, 3, 3)):
        res = build_isogeny_graph(p, ell, "full:1")
        _, c = enumerate_primes(res.graph, rmax)
        for r in range(3, rmax + 1):
            orders = cycle_orders(r, p, ell)
            want = sum(
                embedding_multiplicity(o, p) * class_number(o.discriminant) for o in orders
            )
            assert r * c[r] == want, (p, ell, r)
            if all(embedding_multiplicity(o, p) == 2 for o in orders):
                assert want == 2 * sum(class_number(o.discriminant) for o in orders)


def test_ramified_order_counts_once():
    # p = 23 divides the discriminant -23, which contributes h not 2h
    res = build_isogeny_graph(23, 2, "full:1")
    _, c = enumerate_primes(res.graph, 3)
    i3 = cycle_orders(3, 23, 2)
    assert sorted(o.discriminant for o in i3) == [-31, -23]
    mults = {o.discriminant: embedding_multiplicity(o, 23) for o in i3}
    assert mults == {-23: 1, -31: 2}
    assert 3 * c[3] == 1 * class_number(-23) + 2 * class_number(-31)


def test_quotient_structure_of_level_graph():
    res = build_isogeny_graph(13, 3, "borel1:5")
    q = quotients(res.graph)
    assert q.num_vertex_classes == 6
    assert q.num_edge_classes == 24
    assert not q.self_dual_classes
    plus, minus = oriented_graphs(res.graph)
    assert euler_characteristic(plus) == euler_characteristic(minus) == -6


def test_connectivity_and_homotopy_rank_of_built_graphs():
    res13 = build_isogeny_graph(13, 2, "full:1")
    assert is_connected(res13.graph)
    assert homotopy_rank(res13.graph) == 1
    res11 = build_isogeny_graph(11, 3, "full:1")
    assert is_connected(res11.graph)
    assert homotopy_rank(res11.graph) == 0


def test_diamond_trivial_when_scalars_in_level_group():
    res = build_isogeny_graph(13, 3, "full:5")
    for v in range(res.num_vertices):
        for d in (1, 2, 3, 4):
            assert res.diamond_image(v, d) == v


def test_point_counts_match_genus_zero_curve():
    # X0(13) has genus 0, so its count over F_4 is 4 + 1 = 5
    res = build_isogeny_graph(13, 2, "full:1")
    plus, minus = oriented_graphs(res.graph)
    n2 = cycle_count_series(ihara_zeta(res.graph), 2)[1]
    got = modular_point_count(
        13, 2, 2, n2, euler_characteristic(plus), euler_characteristic(minus)
    )
    assert got == 5
    rep = borel_euler_characteristics(13, 2, 1)
    assert modular_point_count(
        13, 2, 2, nr_from_class_numbers(2, 13, 2), rep.chi_plus, rep.chi_minus
    ) == 5


def test_point_count_over_f2():
    res = build_isogeny_graph(11, 2, "full:1")
    plus, minus = oriented_graphs(res.graph)
    n1 = cycle_count_series(ihara_zeta(res.graph), 1)[0]
    got = modular_point_count(
        11, 2, 1, n1, euler_characteristic(plus), euler_characteristic(minus)
    )
    assert got == 5  # hand count of y^2 + y = x^3 - x^2 - 10x - 20 over F_2


def test_larger_isogeny_degrees_validate_and_agree():
    from isozeta.graphs import validate
    from isozeta.walks import count_closed_walks
    from isozeta.zeta import hashimoto_series

    for p, ell in ((11, 5), (13, 5), (11, 7)):
        res = build_isogeny_graph(p, ell, "full:1")
        rep = validate(res.graph)
        assert rep.ok and rep.regular_degree == ell + 1
        s1 = cycle_count_series(ihara_zeta(res.graph), 3)
        s2 = hashimoto_series(res.graph, 3)
        s3 = [count_closed_walks(res.graph, r) for r in (1, 2, 3)]
        assert s1 == s2 == s3


def test_degree_seven_cycle_identity_with_conductor_orders():
    # c_1 for the 7-isogeny graph mod 17 draws on orders of conductor
    # 1, 2 and 3 in two fields: 2h(-3) + 2h(-12) + 2h(-24) + 2h(-27) = 10
    res = build_isogeny_graph(17, 7, "full:1")
    n1 = cycle_count_series(ihara_zeta(res.graph), 1)[0]
    orders = cycle_orders(1, 17, 7)
    assert sorted(o.discriminant for o in orders) == [-27, -24, -12, -3]
    total = sum(
        embedding_multiplicity(o, 17) * class_number(o.discriminant) for o in orders
    )
    assert n1 == total == 10


def test_level_graph_three_way_oracle_agreement():
    from isozeta.walks import count_closed_walks
    from isozeta.zeta import hashimoto_series

    res = build_isogeny_graph(13, 3, "borel1:5")
    g = res.graph
    assert g.num_edges <= 60
    s1 = cycle_count_series(ihara_zeta(g), 6)
    s2 = hashimoto_series(g, 6)
    s3 = [count_closed_walks(g, r) for r in range(1, 7)]
    assert s1 == s2 == s3


def test_no_short_isogeny_cycles_in_characteristic_11():
    # no loop of the 2-isogeny graph mod 11 yields a prime of length one
    res = build_isogeny_graph(11, 2, "full:1")
    _, c = enumerate_primes(res.graph, 2)
    assert c[1] == 0
    assert cycle_orders(1, 11, 2) == []


def test_full_level_group_collapses_to_no_level():
    # H = GL2(Z/5) identifies all bases, so the graph matches the bare one
    bare = build_isogeny_graph(11, 3, "full:1")
    full5 = build_isogeny_graph(11, 3, "full:5")
    assert full5.num_vertices == bare.num_vertices
    assert sorted(full5.adjacency()) == sorted(bare.adjacency())
    assert ihara_zeta(full5.graph).equals(ihara_zeta(bare.graph))


def test_genus_zero_product_formula():
    # both modular curves for (p, ell) = (13, 2) have genus zero, so the
    # product collapses to the numerator 1/(1+u) with trivial inputs
    from isozeta.zeta import FRF, zeta_numerator

    res = build_isogeny_graph(13, 2, "full:1")
    z = ihara_zeta(res.graph)
    product = FRF(list(z.factors) + [((1, -1), 1), ((1, -2), 1)])
    assert product.equals(zeta_numerator(res.graph))
    assert product.equals(FRF([((1, 1), -1)]))


def test_asymptotic_report_trivial_cases():
    from isozeta.graphs import IsogenyGraph
    from isozeta.quadforms import asymptotic_report

    res = build_isogeny_graph(13, 2, "full:1")
    rows = asymptotic_report(res.graph, 1)
    assert rows[0].n_r == 2 and rows[0].ratio == 1
    tree = IsogenyGraph(2, ((0, 1), (1, 0)), (1, 0), (0, 1))  # 1-regular
    rows = asymptotic_report(tree, 3)
    assert all(r.ratio == 0 for r in rows)


@pytest.mark.parametrize("p, ell, level", [(11, 2, "borel1:7"), (5, 2, "borel1:13")])
def test_borel1_three_way_agreement_with_long_diamond_cycles(p, ell, level):
    from isozeta.walks import count_closed_walks
    from isozeta.zeta import associated_permutation, hashimoto_series

    g = build_isogeny_graph(p, ell, level).graph
    assert max(associated_permutation(g.diamond).cycles) >= 3
    s1 = cycle_count_series(ihara_zeta(g), 6)
    s2 = hashimoto_series(g, 6)
    s3 = [count_closed_walks(g, r) for r in range(1, 7)]
    assert s1 == s2 == s3
