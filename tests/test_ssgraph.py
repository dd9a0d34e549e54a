import pytest

from isozeta.curves import apply_isomorphism, isomorphisms, velu_isogeny
from isozeta.errors import GuardError, InputError
from isozeta.graphs import validate
from isozeta.quadforms import borel_vertex_count
from isozeta.ssgraph import (
    LevelSubgroup,
    build_isogeny_graph,
    diamond_order,
    format_provenance,
    level_from_spec,
    mat_inv,
    mat_mul,
    parse_provenance_header,
    scalar_matrix,
)
from isozeta.zeta import associated_permutation, ihara_zeta


# -- level subgroups -----------------------------------------------------------


def test_subgroup_sizes_mod_5():
    full = LevelSubgroup.full(5)
    b0 = LevelSubgroup.borel0(5)
    b1 = LevelSubgroup.borel1(5)
    assert len(full.elements) == 480
    assert len(b0.elements) == 80
    assert len(full.elements) // len(b0.elements) == 6  # = psi(5)
    assert len(b1.elements) == 20
    assert not b1.contains_minus_identity
    assert b0.contains_minus_identity
    # index of +-B1(5) is 12
    assert 480 // (2 * len(b1.elements)) == 12


def test_subgroup_trivial_level():
    h = LevelSubgroup.full(1)
    assert len(h.elements) == 1
    assert h.borel_range


def test_subgroup_closure_from_generators():
    h = LevelSubgroup.from_generators(5, [(1, 1, 0, 1), (2, 0, 0, 1)])
    # closed under multiplication and inverse
    for a in h.elements:
        assert mat_inv(a, 5) in h.elements
        for b in h.elements:
            assert mat_mul(a, b, 5) in h.elements
    with pytest.raises(InputError):
        LevelSubgroup.from_generators(4, [(2, 0, 0, 1)])


def test_borel_range_flag():
    assert LevelSubgroup.borel0(5).borel_range
    assert LevelSubgroup.borel1(5).borel_range
    assert not LevelSubgroup.full(5).borel_range


def test_level_from_spec():
    assert level_from_spec("full").n == 1
    assert level_from_spec("borel1:5").label == "borel1:5"
    with pytest.raises(InputError):
        level_from_spec("weird:5")


def test_diamond_order():
    assert diamond_order(3, LevelSubgroup.borel1(5)) == 2
    assert diamond_order(2, LevelSubgroup.full(1)) == 1
    assert diamond_order(2, LevelSubgroup.full(5)) == 1  # scalars in H
    assert diamond_order(3, LevelSubgroup.borel0(5)) == 1  # -I and scalars in B0


# -- built graphs ---------------------------------------------------------------


def test_build_characteristic_13():
    res = build_isogeny_graph(13, 2, "full:1")
    assert res.num_vertices == 1
    assert res.graph.num_edges == 3
    assert sum(1 for y in range(3) if res.graph.dual[y] == y) == 1
    assert validate(res.graph).ok


def test_build_characteristic_11_adjacency():
    res = build_isogeny_graph(11, 3, "full:1")
    assert res.num_vertices == 2
    assert res.adjacency() == [[1, 3], [2, 2]]


def test_build_level_structure_counts():
    res = build_isogeny_graph(13, 3, "borel1:5")
    assert res.num_vertices == 12
    assert res.graph.num_edges == 48
    cl = associated_permutation(res.graph.diamond)
    cj = associated_permutation(res.graph.dual)
    assert cl.cycles == {2: 6}
    assert cj.cycles == {4: 12}
    assert len(cl.domain) == 12 and len(cj.domain) == 48


def test_built_graphs_validate_and_are_regular():
    for p, ell, level in ((11, 2, "full:1"), (17, 3, "borel0:2"), (19, 2, "borel0:3")):
        res = build_isogeny_graph(p, ell, level)
        rep = validate(res.graph)
        assert rep.ok
        assert rep.regular_degree == ell + 1
        n = res.level.n
        assert res.num_vertices == borel_vertex_count(p, ell, n) or level.startswith("full")


def test_scalar_in_level_group_forces_involution():
    # ell * Id in H makes the dual-induced permutation an involution and
    # the diamond map the identity
    for p, ell, level in ((11, 2, "full:1"), (13, 2, "borel0:3"), (17, 2, "borel0:3")):
        res = build_isogeny_graph(p, ell, level)
        assert res.level.contains_scalar(ell) or res.level.n == 1
        g = res.graph
        assert g.diamond == tuple(range(g.num_vertices))
        cc = associated_permutation(g.dual)
        assert all(k <= 2 for k in cc.cycles)


def test_permutation_cycle_lengths_match_diamond_order():
    # p = 1 mod 12 with -ell a residue: all dual cycles have length 2m and
    # all diamond cycles length m
    res = build_isogeny_graph(37, 3, "borel1:4")
    m = diamond_order(3, res.level)
    assert m == 1
    cj = associated_permutation(res.graph.dual)
    assert set(cj.cycles) <= {2}
    res2 = build_isogeny_graph(13, 3, "borel1:5")
    m2 = diamond_order(3, res2.level)
    cl2 = associated_permutation(res2.graph.diamond)
    cj2 = associated_permutation(res2.graph.dual)
    assert set(cl2.cycles) == {m2} and set(cj2.cycles) == {2 * m2}


def test_vertex_count_closed_form_p_1_mod_12():
    # (p-1) [GL2 : +-H] / 12 vertices for p = 1 mod 12
    res = build_isogeny_graph(13, 3, "borel1:5")
    assert res.num_vertices == (13 - 1) * 12 // 12
    res2 = build_isogeny_graph(37, 2, "borel1:3")
    h = res2.level
    index = 48 // (2 * len(h.elements))
    assert res2.num_vertices == (37 - 1) * index // 12


def test_diamond_image_operator():
    res = build_isogeny_graph(13, 3, "borel1:5")
    n = res.num_vertices
    # <3> has order 2 on every vertex
    for v in range(n):
        w = res.diamond_image(v, 3)
        assert w == res.graph.diamond[v]
        assert res.diamond_image(w, 3) == v
        assert res.diamond_image(v, 1) == v
    with pytest.raises(InputError):
        res.diamond_image(0, 5)


def test_dual_orbit_pointers_consistent():
    for args in ((13, 2, "full:1"), (11, 3, "full:1"), (13, 3, "borel1:5")):
        res = build_isogeny_graph(*args)
        for oi, orb in enumerate(res.orbits):
            dual = res.orbits[orb.dual_orbit]
            # the dual orbit runs from the target back to the diamond image
            # of the source
            assert dual.source_vertex == orb.target_vertex
            assert dual.target_vertex == res.graph.diamond[orb.source_vertex]
            # double dual returns to the diamond translate of the orbit
            back = res.orbits[dual.dual_orbit]
            assert back.source_vertex == res.graph.diamond[orb.source_vertex]


def test_dual_kernels_give_the_dual_isogeny():
    # the dual pointers rest on dual_gen generating the kernel of the dual:
    # the Velu isogeny it gives, composed after iota o phi, is [ell] up to
    # an automorphism of the domain
    for args in ((13, 2, "full:1"), (11, 2, "full:1"), (11, 3, "full:1")):
        res = build_isogeny_graph(*args)
        ell = res.ell
        for cd in res.curves:
            e = cd.big
            field = e.field
            sample = []
            for idx in range(field.order):
                x = field.element_from_index(idx)
                y = field.sqrt(e.rhs(x))
                if y is not None:
                    sample.append((x, y))
                if len(sample) == 8:
                    break
            for k in cd.kernels:
                sample_k = sample + [k.gen]
                target = res.curves[k.target_curve]
                psi = velu_isogeny(target.big, k.dual_gen)
                back = [
                    psi(apply_isomorphism(k.iota, k.phi(pt))) for pt in sample_k
                ]
                want = [e.mul(ell, pt) for pt in sample_k]
                assert any(
                    [apply_isomorphism(u, pt) for pt in back] == want
                    for u in isomorphisms(psi.codomain, e)
                )


def test_rep_seed_preserves_zeta():
    base = ihara_zeta(build_isogeny_graph(11, 3, "full:1").graph)
    for seed in (0, 1, 2):
        z = ihara_zeta(build_isogeny_graph(11, 3, "full:1", rep_seed=seed).graph)
        assert z.equals(base)


def test_torsion_degree_guard():
    # N = 13, p = 11: -11 = 2 mod 13 has order 12, so degree 24 > 16
    with pytest.raises(GuardError):
        build_isogeny_graph(11, 2, "borel0:13")


def test_parameter_validation():
    with pytest.raises(InputError):
        build_isogeny_graph(9, 2, "full:1")
    with pytest.raises(InputError):
        build_isogeny_graph(11, 11, "full:1")
    with pytest.raises(InputError):
        build_isogeny_graph(11, 4, "full:1")
    with pytest.raises(InputError):
        build_isogeny_graph(11, 2, "borel0:22")


def test_provenance_roundtrip():
    res = build_isogeny_graph(11, 2, "full:1")
    text = format_provenance(res)
    header = parse_provenance_header(text)
    assert header["p"] == 11 and header["ell"] == 2 and header["N"] == 1
    assert header["borel-range"] == "yes"
    assert f"vertices {res.num_vertices}" in text
    assert text.count("edge ") == res.graph.num_edges


def test_build_deterministic():
    a = build_isogeny_graph(11, 3, "full:1")
    b = build_isogeny_graph(11, 3, "full:1")
    assert a.graph == b.graph
    assert format_provenance(a) == format_provenance(b)


def test_matrix_helpers():
    m = (1, 2, 3, 4)
    assert mat_mul(m, scalar_matrix(1, 5), 5) == m
    mi = mat_inv(m, 5)
    assert mat_mul(m, mi, 5) == scalar_matrix(1, 5)
    with pytest.raises(InputError):
        mat_inv((1, 2, 2, 4), 5)
