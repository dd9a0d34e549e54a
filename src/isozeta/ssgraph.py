"""Supersingular ell-isogeny graphs with level structure, built from
explicit curve and torsion arithmetic.

Vertices are isomorphism classes of pairs (E, [phi]): a supersingular
curve together with a class of bases of E[N] under precomposition by a
subgroup H of GL2(Z/N).  Fixing one basis (P, Q) per curve identifies
level structures with matrices, isomorphism classes with double cosets
A_E \\ GL2 / H (A_E the matrices of the curve automorphisms), and every
map we need with matrix arithmetic mod N:

  * edges out of a vertex correspond to the ell+1 cyclic kernels; the
    target class is the coset of M_beta g, with M_beta the matrix of the
    composed map (iso to the target model) o (kernel isogeny) on E[N];
  * the diamond map multiplies the level matrix by the scalar ell;
  * the dual map sends every edge of an automorphism-orbit of kernels to
    the edge of the representative's dual kernel (the image of the
    ell-torsion under the representative morphism) at the target vertex.

All torsion arithmetic happens in one working field F_{p^{2M}}, with M
the lcm of the N- and ell-torsion degrees for the trace -2p models.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, lcm

from .curves import (
    Curve,
    Isogeny,
    TorsionContext,
    apply_isomorphism,
    automorphisms,
    fp_mul,
    isomorphisms,
    j_invariant,
    multiplicative_order,
    supersingular_j_invariants,
    supersingular_model,
    torsion_basis_in,
    torsion_field_degree,
    velu_isogeny,
)
from .errors import GuardError, InputError, InternalCheckError
from .fields import Fel, Fq, canonical_key, embedding, is_prime
from .graphs import IsogenyGraph, validate

MAX_TORSION_DEGREE = 16

Matrix = tuple[int, int, int, int]  # row-major [[a, b], [c, d]]


# -- matrices mod N ------------------------------------------------------------


def mat_mul(m1: Matrix, m2: Matrix, n: int) -> Matrix:
    a, b, c, d = m1
    e, f, g, h = m2
    return ((a * e + b * g) % n, (a * f + b * h) % n, (c * e + d * g) % n, (c * f + d * h) % n)


def mat_det(m: Matrix, n: int) -> int:
    return (m[0] * m[3] - m[1] * m[2]) % n


def mat_identity(n: int) -> Matrix:
    return (1 % n, 0, 0, 1 % n)


def scalar_matrix(c: int, n: int) -> Matrix:
    return (c % n, 0, 0, c % n)


def mat_inv(m: Matrix, n: int) -> Matrix:
    det = mat_det(m, n)
    if n == 1:
        return (0, 0, 0, 0)
    if gcd(det, n) != 1:
        raise InputError("matrix not invertible")
    di = pow(det, -1, n)
    a, b, c, d = m
    return (d * di % n, -b * di % n, -c * di % n, a * di % n)


def _all_invertible(n: int) -> list[Matrix]:
    if n == 1:
        return [(0, 0, 0, 0)]
    out = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if gcd((a * d - b * c) % n, n) == 1:
                        out.append((a, b, c, d))
    return out


@dataclass(frozen=True)
class LevelSubgroup:
    n: int
    elements: frozenset
    label: str

    @staticmethod
    def full(n: int) -> "LevelSubgroup":
        return LevelSubgroup(n, frozenset(_all_invertible(n)), f"full:{n}")

    @staticmethod
    def borel0(n: int) -> "LevelSubgroup":
        els = [m for m in _all_invertible(n) if m[2] == 0]
        return LevelSubgroup(n, frozenset(els), f"borel0:{n}")

    @staticmethod
    def borel1(n: int) -> "LevelSubgroup":
        els = [m for m in _all_invertible(n) if m[2] == 0 and m[0] == 1 % n]
        return LevelSubgroup(n, frozenset(els), f"borel1:{n}")

    @staticmethod
    def from_generators(n: int, gens) -> "LevelSubgroup":
        for g in gens:
            if gcd(mat_det(g, n), n) != 1:
                raise InputError(f"non-invertible generator {g}")
        els = {mat_identity(n)}
        frontier = [mat_identity(n)]
        gens = [tuple(x % n for x in g) for g in gens]
        while frontier:
            m = frontier.pop()
            for g in gens:
                w = mat_mul(m, g, n)
                if w not in els:
                    els.add(w)
                    frontier.append(w)
        return LevelSubgroup(n, frozenset(els), f"generators:{n}")

    def __contains__(self, m: Matrix) -> bool:
        return tuple(x % self.n for x in m) in self.elements

    @property
    def contains_minus_identity(self) -> bool:
        return scalar_matrix(-1, self.n) in self.elements

    def contains_scalar(self, c: int) -> bool:
        return scalar_matrix(c, self.n) in self.elements

    @property
    def borel_range(self) -> bool:
        """True iff B1(N) <= H <= B0(N)."""
        if any(m[2] != 0 for m in self.elements):
            return False
        return LevelSubgroup.borel1(self.n).elements <= self.elements


def level_from_spec(spec: str) -> LevelSubgroup:
    """Parse 'full', 'full:N', 'borel0:N', or 'borel1:N'."""
    if spec == "full":
        return LevelSubgroup.full(1)
    try:
        kind, nstr = spec.split(":")
        n = int(nstr)
    except ValueError:
        raise InputError(f"bad level spec {spec!r}")
    if n < 1:
        raise InputError("level modulus must be >= 1")
    if kind == "full":
        return LevelSubgroup.full(n)
    if kind == "borel0":
        return LevelSubgroup.borel0(n)
    if kind == "borel1":
        return LevelSubgroup.borel1(n)
    raise InputError(f"unknown level kind {kind!r}")


def diamond_order(ell: int, level: LevelSubgroup) -> int:
    """[<ell * Id> : <ell * Id> intersect +-H], the common length of the
    diamond orbits."""
    n = level.n
    if n == 1:
        return 1
    if gcd(ell, n) != 1:
        raise InputError("ell must be a unit mod N")
    k = multiplicative_order(ell, n)
    hits = 0
    for i in range(k):
        s = scalar_matrix(pow(ell, i, n), n)
        if s in level.elements or scalar_matrix(-pow(ell, i, n), n) in level.elements:
            hits += 1
    return k // hits


# -- build data -----------------------------------------------------------------


@dataclass
class SSVertex:
    index: int
    curve_index: int
    j: Fel
    level: Matrix
    aut_scalars: tuple


@dataclass
class EdgeOrbit:
    """Double-coset orbit of edges out of one vertex: an automorphism
    orbit of kernels, its representative data, and the dual pointer."""

    source_vertex: int
    kernel_indices: tuple[int, ...]
    rep_kernel: int
    rep_aut: int
    target_vertex: int
    dual_orbit: int = -1


@dataclass
class _KernelData:
    index: int
    gen: tuple
    points: tuple
    kernel_id: tuple
    phi: Isogeny
    target_curve: int
    iota: Fel
    matrix: Matrix
    dual_gen: tuple  # generator of the dual kernel on the target model


@dataclass
class _CurveData:
    index: int
    j: Fel
    model: Curve
    big: Curve
    aut_scalars: list
    aut_matrices: list
    torsion: TorsionContext
    kernels: list
    kernel_lookup: dict
    aut_kernel_perm: list


@dataclass
class BuildResult:
    p: int
    ell: int
    level: LevelSubgroup
    graph: IsogenyGraph
    vertices: list
    curves: list
    orbits: list
    edge_owner: list  # edge index -> (vertex index, kernel index)
    _vertex_index: dict | None = None

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def adjacency(self) -> list[list[int]]:
        n = len(self.vertices)
        a = [[0] * n for _ in range(n)]
        for s, t in self.graph.edges:
            a[s][t] += 1
        return a

    def diamond_image(self, vertex: int, d: int) -> int:
        """Index of the class of (E, [d phi])."""
        n = self.level.n
        if gcd(d, max(n, 1)) != 1:
            raise InputError("d must be a unit mod N")
        v = self.vertices[vertex]
        cd = self.curves[v.curve_index]
        rep = _dcoset_rep(mat_mul(scalar_matrix(d, n), v.level, n), cd.aut_matrices, self.level)
        return self._vertex_index[(v.curve_index, rep)]


def _dcoset_rep(g: Matrix, aut_mats, level: LevelSubgroup) -> Matrix:
    n = level.n
    best = None
    for mu in aut_mats:
        left = mat_mul(mu, g, n)
        for h in level.elements:
            cand = mat_mul(left, h, n)
            if best is None or cand < best:
                best = cand
    return best


def _left_coset_eq(g1: Matrix, g2: Matrix, level: LevelSubgroup) -> bool:
    """g1 H == g2 H."""
    return mat_mul(mat_inv(g2, level.n), g1, level.n) in level


def _kernel_id(curve: Curve, gen) -> tuple:
    """Sort/dedup key: canonical keys of the monic kernel polynomial
    coefficients (product over distinct kernel x-coordinates)."""
    pts = [gen]
    while True:
        nxt = curve.add(pts[-1], gen)
        if nxt is None:
            break
        pts.append(nxt)
    xs = sorted({p[0] for p in pts}, key=canonical_key)
    field = curve.field
    poly = (field.one,)
    for x in xs:
        poly = fp_mul(field, poly, (-x, field.one))
    return tuple(canonical_key(c) for c in poly)


def build_isogeny_graph(
    p: int,
    ell: int,
    level: LevelSubgroup | str,
    rep_seed: int | None = None,
) -> BuildResult:
    """Construct the ell-isogeny graph of supersingular curves with
    H-level structure as an IsogenyGraph (validated on exit).

    rep_seed, when given, replaces the canonical choices of orbit
    representatives (kernel and acting automorphism) by seeded ones; the
    zeta function must not depend on it.
    """
    if isinstance(level, str):
        level = level_from_spec(level)
    n = level.n
    if not is_prime(p) or p <= 3:
        raise InputError("p must be a prime > 3")
    if ell not in (2, 3, 5, 7):
        raise InputError("ell must be one of 2, 3, 5, 7")
    if ell == p:
        raise InputError("ell must differ from p")
    if gcd(n, p * ell) != 1:
        raise InputError("N must be coprime to p*ell")
    m_n = torsion_field_degree(p, n)
    m_l = torsion_field_degree(p, ell)
    big_m = lcm(m_n, m_l)
    if 2 * big_m > MAX_TORSION_DEGREE:
        raise GuardError(
            f"torsion extension degree {2 * big_m} exceeds the limit {MAX_TORSION_DEGREE}"
        )
    rng = random.Random(rep_seed) if rep_seed is not None else None

    f2 = Fq(p, 2)
    fbig = Fq(p, 2 * big_m)
    emb = embedding(f2, fbig)
    exponent = abs((-p) ** big_m - 1)

    js = supersingular_j_invariants(p)
    j_lookup = {emb(j).c: i for i, j in enumerate(js)}

    curves: list[_CurveData] = []
    for ci, j in enumerate(js):
        model2 = supersingular_model(f2, j)
        big = Curve(fbig, emb(model2.a), emb(model2.b))
        torsion = torsion_basis_in(big, n, exponent)
        auts = automorphisms(big)
        aut_mats = [_map_matrix(lambda pt: pt, u, torsion, torsion, n) for u in auts]
        curves.append(
            _CurveData(ci, j, model2, big, auts, aut_mats, torsion, [], {}, [])
        )

    for cd in curves:
        _attach_kernels(cd, curves, j_lookup, ell, exponent, n)

    return _assemble(p, ell, level, curves, rng)


def _map_matrix(phi, iota: Fel, src: TorsionContext, dst: TorsionContext, n: int) -> Matrix:
    if n == 1:
        return (0, 0, 0, 0)
    pb, qb = src.basis
    a, c = dst.dlog(apply_isomorphism(iota, phi(pb)))
    b, d = dst.dlog(apply_isomorphism(iota, phi(qb)))
    return (a, b, c, d)


def _attach_kernels(cd: _CurveData, curves, j_lookup, ell: int, exponent: int, n: int) -> None:
    big = cd.big
    lt = torsion_basis_in(big, ell, exponent)
    r, s = lt.basis
    # the ell + 1 cyclic subgroups: <s> and <r + i s> for i = 0..ell-1
    gens = [s]
    cur = r
    for _ in range(ell):
        gens.append(cur)
        cur = big.add(cur, s)

    entries = []
    for gen in gens:
        entries.append((_kernel_id(big, gen), gen))
    entries.sort(key=lambda e: e[0])

    for idx, (kid, gen) in enumerate(entries):
        phi = velu_isogeny(big, gen)
        jt = j_invariant(phi.codomain)
        try:
            tci = j_lookup[jt.c]
        except KeyError:
            raise InternalCheckError("isogeny left the supersingular locus")
        target = curves[tci]
        iotas = isomorphisms(phi.codomain, target.big)
        if not iotas:
            raise InternalCheckError("no isomorphism onto the chosen model")
        iota = iotas[0]
        matrix = _map_matrix(phi, iota, cd.torsion, target.torsion, n)
        dual_gen = None
        for tp in (r, s):
            img = phi(tp)
            if img is not None:
                dual_gen = apply_isomorphism(iota, img)
                break
        if dual_gen is None:
            raise InternalCheckError("kernel image of the ell-torsion vanished")
        cd.kernels.append(
            _KernelData(idx, gen, phi.kernel_points, kid, phi, tci, iota, matrix, dual_gen)
        )
        cd.kernel_lookup[kid] = idx

    for u in cd.aut_scalars:
        perm = []
        for k in cd.kernels:
            kid = _kernel_id(big, apply_isomorphism(u, k.gen))
            perm.append(cd.kernel_lookup[kid])
        cd.aut_kernel_perm.append(perm)


def _assemble(p, ell, level, curves, rng) -> BuildResult:
    n = level.n
    all_mats = _all_invertible(n)

    # canonical double-coset representative per (curve, matrix)
    rep_map: list[dict] = []
    vertex_index: dict = {}
    vertices: list[SSVertex] = []
    for cd in curves:
        reps: dict = {}
        for g in all_mats:
            if g in reps:
                continue
            coset = set()
            for mu in cd.aut_matrices:
                left = mat_mul(mu, g, n)
                for h in level.elements:
                    coset.add(mat_mul(left, h, n))
            rep = min(coset)
            for m in coset:
                reps[m] = rep
        rep_map.append(reps)
        for g in sorted(set(reps.values())):
            vi = len(vertices)
            vertex_index[(cd.index, g)] = vi
            aut = tuple(
                u
                for u, mu in zip(cd.aut_scalars, cd.aut_matrices)
                if _left_coset_eq(mat_mul(mu, g, n), g, level)
            )
            vertices.append(SSVertex(vi, cd.index, cd.j, g, aut))

    # edges: (vertex, kernel) in canonical order
    edge_index: dict = {}
    edges = []
    edge_owner = []
    targets = []
    for v in vertices:
        cd = curves[v.curve_index]
        for k in cd.kernels:
            tv = vertex_index[(k.target_curve, rep_map[k.target_curve][mat_mul(k.matrix, v.level, n)])]
            edge_index[(v.index, k.index)] = len(edges)
            edges.append((v.index, tv))
            edge_owner.append((v.index, k.index))
            targets.append(tv)

    # diamond map on vertices
    diamond = []
    for v in vertices:
        cd = curves[v.curve_index]
        g2 = rep_map[v.curve_index][mat_mul(scalar_matrix(ell, n), v.level, n)]
        diamond.append(vertex_index[(v.curve_index, g2)])

    # kernel orbits under the level-preserving automorphisms, per vertex
    orbits: list[EdgeOrbit] = []
    orbit_at: dict = {}
    for v in vertices:
        cd = curves[v.curve_index]
        perms = [cd.aut_kernel_perm[cd.aut_scalars.index(u)] for u in v.aut_scalars]
        seen = set()
        for k0 in range(len(cd.kernels)):
            if k0 in seen:
                continue
            orbit = {k0}
            frontier = [k0]
            while frontier:
                kk = frontier.pop()
                for perm in perms:
                    k2 = perm[kk]
                    if k2 not in orbit:
                        orbit.add(k2)
                        frontier.append(k2)
            seen |= orbit
            members = sorted(orbit, key=lambda i: cd.kernels[i].kernel_id)
            rep = members[0] if rng is None else rng.choice(members)
            oi = len(orbits)
            tv = targets[edge_index[(v.index, rep)]]
            orbits.append(EdgeOrbit(v.index, tuple(sorted(orbit)), rep, -1, tv))
            for kk in orbit:
                orbit_at[(v.index, kk)] = oi

    # choose the acting automorphism for each orbit representative and
    # resolve the dual pointers
    dual = [0] * len(edges)
    for oi, orb in enumerate(orbits):
        v = vertices[orb.source_vertex]
        cd = curves[v.curve_index]
        k = cd.kernels[orb.rep_kernel]
        tvx = vertices[orb.target_vertex]
        tcd = curves[k.target_curve]
        valid = [
            ui
            for ui, u in enumerate(tcd.aut_scalars)
            if _left_coset_eq(
                mat_mul(tcd.aut_matrices[ui], mat_mul(k.matrix, v.level, n), n),
                tvx.level,
                level,
            )
        ]
        if not valid:
            raise InternalCheckError("no automorphism matches the target representative")
        ui = valid[0] if rng is None else rng.choice(valid)
        orb.rep_aut = ui
        u = tcd.aut_scalars[ui]
        dual_gen = apply_isomorphism(u, k.dual_gen)
        dual_kid = _kernel_id(tcd.big, dual_gen)
        kstar = tcd.kernel_lookup[dual_kid]
        dual_orbit = orbit_at[(orb.target_vertex, kstar)]
        orb.dual_orbit = dual_orbit
        dual_edge = edge_index[(orb.target_vertex, orbits[dual_orbit].rep_kernel)]
        for kk in orb.kernel_indices:
            dual[edge_index[(orb.source_vertex, kk)]] = dual_edge

    graph = IsogenyGraph(len(vertices), tuple(edges), tuple(dual), tuple(diamond))
    rep = validate(graph)
    if not rep.ok:
        bad = (rep.axiom1_failures + rep.axiom2_failures)[0]
        raise InternalCheckError(f"built graph violates the axioms at edge {bad}")
    if rep.regular_degree != ell + 1:
        raise InternalCheckError("built graph is not (ell+1)-regular")
    result = BuildResult(p, ell, level, graph, vertices, curves, orbits, edge_owner)
    result._vertex_index = vertex_index
    return result


# -- provenance sidecar -------------------------------------------------------------


def format_provenance(res: BuildResult) -> str:
    """Sidecar with enough data to re-verify any vertex or edge."""
    lines = [
        "SSG v1",
        f"p {res.p}",
        f"ell {res.ell}",
        f"N {res.level.n}",
        f"level {res.level.label}",
        f"borel-range {'yes' if res.level.borel_range else 'no'}",
        f"vertices {len(res.vertices)}",
        f"edges {res.graph.num_edges}",
    ]
    for v in res.vertices:
        cd = res.curves[v.curve_index]
        lines.append(
            f"vertex {v.index} j={v.j} a={cd.model.a} b={cd.model.b} "
            f"level={','.join(str(x) for x in v.level)} aut={len(v.aut_scalars)}"
        )
    for ei, (vi, ki) in enumerate(res.edge_owner):
        cd = res.curves[res.vertices[vi].curve_index]
        k = cd.kernels[ki]
        poly = ";".join(str(c) for c in k.phi.kernel_polynomial)
        s, t = res.graph.edges[ei]
        lines.append(f"edge {ei} src={s} dst={t} dual={res.graph.dual[ei]} kernel={poly}")
    adj = res.adjacency()
    lines.append("adjacency " + " ".join(str(c) for row in adj for c in row))
    return "\n".join(lines) + "\n"


def parse_provenance_header(text: str) -> dict:
    out = {}
    for ln in text.splitlines():
        parts = ln.split()
        if len(parts) == 2 and parts[0] in ("p", "ell", "N", "vertices", "edges"):
            out[parts[0]] = int(parts[1])
        elif len(parts) == 2 and parts[0] in ("level", "borel-range"):
            out[parts[0]] = parts[1]
    missing = {"p", "ell", "N", "level", "borel-range"} - set(out)
    if missing:
        raise InputError(f"sidecar missing fields: {sorted(missing)}")
    return out
