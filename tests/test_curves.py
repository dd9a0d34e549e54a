import random

import pytest

from isozeta.curves import (
    Curve,
    apply_isomorphism,
    automorphisms,
    count_points,
    curve_from_j,
    isomorphisms,
    j_invariant,
    multiplicative_order,
    poly_roots,
    supersingular_j_invariants,
    supersingular_model,
    torsion_basis_in,
    torsion_field_degree,
    velu_isogeny,
)
from isozeta.errors import InputError
from isozeta.fields import Fq, canonical_key, embedding


def test_j_invariant_examples():
    f = Fq(13)
    e = Curve(f, f(1), f(4))
    assert j_invariant(e) == f(5)
    assert j_invariant(Curve(f, f(2), f(0))) == f(1728)
    assert j_invariant(Curve(f, f(0), f(3))) == f(0)


def test_curve_from_j_roundtrip():
    f = Fq(13, 2)
    rng = random.Random(31)
    for _ in range(20):
        j = f.element_from_index(rng.randrange(f.order))
        try:
            e = curve_from_j(f, j)
        except InputError:
            continue
        assert j_invariant(e) == j


def test_singular_curve_rejected():
    f = Fq(13)
    with pytest.raises(InputError):
        Curve(f, f(0), f(0))


def test_group_law_scalar_consistency():
    f = Fq(13, 2)
    e = supersingular_model(f, f(5))
    rng = random.Random(32)
    pts = []
    for idx in range(f.order):
        x = f.element_from_index(idx)
        y = f.sqrt(e.rhs(x))
        if y is not None:
            pts.append((x, y))
        if len(pts) >= 5:
            break
    for p in pts:
        acc = None
        for n in range(1, 21):
            acc = e.add(acc, p)
            assert acc == e.mul(n, p)
        assert e.add(p, e.negate(p)) is None
    a, b = pts[0], pts[1]
    assert e.add(a, b) == e.add(b, a)
    c = pts[2]
    assert e.add(e.add(a, b), c) == e.add(a, e.add(b, c))


def test_supersingular_j_enumeration():
    f13 = Fq(13, 2)
    assert supersingular_j_invariants(13) == (f13(5),)
    js11 = supersingular_j_invariants(11)
    f11 = Fq(11, 2)
    assert set(js11) == {f11(0), f11(1728)}
    assert len(supersingular_j_invariants(37)) == 3
    # p = 1 mod 12: count is (p-1)/12 and no extra automorphisms
    for j in supersingular_j_invariants(37):
        assert j != f13(0)


def test_supersingular_model_has_full_count():
    for p in (11, 13, 17, 19, 23):
        f = Fq(p, 2)
        for j in supersingular_j_invariants(p):
            e = supersingular_model(f, j)
            assert count_points(e) == (p + 1) ** 2
            assert j_invariant(e) == f(j)


def test_torsion_field_degrees():
    assert torsion_field_degree(13, 5) == 4  # -13 = 2 mod 5 has order 4
    assert torsion_field_degree(11, 3) == 1  # -11 = 1 mod 3
    assert torsion_field_degree(13, 1) == 1
    assert multiplicative_order(2, 5) == 4


def test_torsion_basis_spans():
    e = supersingular_model(Fq(11, 2), 1728)
    ctx = torsion_basis_in(e, 3, (11 + 1))
    pts = {k for k in ctx.dlog_table}
    assert len(pts) == 9


def _nonzero_torsion(e, n, exponent):
    """The nonzero points of E[n], from a certified torsion basis."""
    r, s = torsion_basis_in(e, n, exponent).basis
    pts = [e.add(e.mul(a, r), e.mul(b, s)) for a in range(n) for b in range(n)]
    return [pt for pt in pts if pt is not None]


def test_velu_two_isogenies_from_j5_are_endomorphisms():
    # all three 2-isogenies from the lone supersingular curve in
    # characteristic 13 return to j = 5
    f = Fq(13, 2)
    e = supersingular_model(f, 5)
    for pt in _nonzero_torsion(e, 2, 14):
        phi = velu_isogeny(e, pt)
        assert phi.degree == 2
        assert j_invariant(phi.codomain) == f(5)
        for k in phi.kernel_points:
            assert phi(k) is None


def test_velu_degree_three_out_degrees():
    # from each of the two supersingular classes in characteristic 11, the
    # four 3-isogeny targets split 1+3 and 2+2
    f = Fq(11, 2)
    js = supersingular_j_invariants(11)
    split = {}
    for j in js:
        e = supersingular_model(f, j)
        ctx = torsion_basis_in(e, 3, 12)
        r, s = ctx.basis
        gens = [s] + [e.add(r, e.mul(i, s)) for i in range(3)]
        counts = {}
        for gen in gens:
            phi = velu_isogeny(e, gen)
            jt = j_invariant(phi.codomain)
            counts[jt.c] = counts.get(jt.c, 0) + 1
        split[j.c] = sorted(counts.values())
    assert sorted(split.values()) == [[1, 3], [2, 2]]


def test_velu_rejects_wrong_order():
    e = supersingular_model(Fq(11, 2), 0)
    ctx = torsion_basis_in(e, 6, 12)
    p6 = ctx.basis[0]
    assert e.point_order(p6, 6) == 6
    with pytest.raises(InputError):
        velu_isogeny(e, p6)
    with pytest.raises(InputError):
        velu_isogeny(e, None)


def test_velu_maps_evaluate_on_curve():
    e = supersingular_model(Fq(11, 2), 1728)
    field = e.field
    for gen in torsion_basis_in(e, 3, 12).basis:
        phi = velu_isogeny(e, gen)
        n_checked = 0
        for idx in range(field.order):
            x = field.element_from_index(idx)
            y = field.sqrt(e.rhs(x))
            if y is None:
                continue
            img = phi((x, y))
            if img is not None:
                assert phi.codomain.contains(img)
                n_checked += 1
            if n_checked > 10:
                break


def test_self_dual_kernel_exists_in_characteristic_13():
    # exactly one of the three 2-isogeny kernels is its own dual kernel
    f = Fq(13, 2)
    e = supersingular_model(f, 5)
    tors = _nonzero_torsion(e, 2, 14)
    assert len(tors) == 3
    self_dual = 0
    for pt in tors:
        phi = velu_isogeny(e, pt)
        iot = isomorphisms(phi.codomain, e)[0]
        imgs = [phi(t) for t in tors]
        gen = next(i for i in imgs if i is not None)
        dual_x = apply_isomorphism(iot, gen)[0]
        if dual_x == pt[0]:
            self_dual += 1
    assert self_dual == 1


def test_automorphism_group_sizes():
    f11 = Fq(11, 2)
    assert len(automorphisms(supersingular_model(f11, 1728))) == 4
    assert len(automorphisms(supersingular_model(f11, 0))) == 6
    f13 = Fq(13, 2)
    assert len(automorphisms(supersingular_model(f13, 5))) == 2
    for p in (13, 37):
        f = Fq(p, 2)
        for j in supersingular_j_invariants(p):
            assert len(automorphisms(supersingular_model(f, j))) == 2


def test_isomorphisms_between_distinct_j_empty():
    f = Fq(11, 2)
    e0 = supersingular_model(f, 0)
    e1 = supersingular_model(f, 1728)
    assert isomorphisms(e0, e1) == []


def test_isomorphisms_to_twist_found():
    f = Fq(13, 2)
    e = supersingular_model(f, 5)
    u = f([3, 1])
    twisted = Curve(f, e.a * u**4, e.b * u**6)
    isos = isomorphisms(e, twisted)
    assert u in isos or -u in isos
    for v in isos:
        assert v**4 * e.a == twisted.a and v**6 * e.b == twisted.b


def test_poly_roots_small_and_split_paths():
    f = Fq(13, 2)
    # (x - 3)(x - 7)(x - 7)
    from isozeta.curves import fp_mul

    poly = fp_mul(f, fp_mul(f, (-f(3), f.one), (-f(7), f.one)), (-f(7), f.one))
    assert poly_roots(f, poly) == sorted([f(3), f(7)], key=canonical_key)
    big = Fq(13, 8)
    emb = embedding(f, big)
    bigpoly = tuple(emb(c) for c in poly)
    assert poly_roots(big, bigpoly) == sorted([emb(f(3)), emb(f(7))], key=canonical_key)


def test_count_points_matches_group_exponent_model():
    # (p+1)^2 points means the exponent divides p+1
    f = Fq(19, 2)
    for j in supersingular_j_invariants(19):
        e = supersingular_model(f, j)
        found = 0
        for idx in range(f.order):
            x = f.element_from_index(idx)
            y = f.sqrt(e.rhs(x))
            if y is not None:
                assert e.mul(20, (x, y)) is None
                found += 1
            if found >= 5:
                break
