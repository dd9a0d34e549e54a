"""Directed multigraphs carrying a dual map on edges and a diamond map on
vertices.

An IsogenyGraph is pure combinatorial data (X, Y, s, t, J, L) subject to
two axioms: s(Jy) = t(y) and t(Jy) = L(s(y)) for every edge y.  When J is
a fixed-point-free involution and L is the identity the graph is
orientable in the classical (Serre/Bass) sense.  Quotienting by y ~ J^2(y)
and x ~ L(x) produces two oriented graphs: the plus graph deletes the
self-dual edge classes, the minus graph duplicates them.

The textual file format is line oriented:

    AIG v1
    vertices N
    edges M
    y s t Jy          (M lines, y must equal the line's position)
    L x0 x1 ... x_{N-1}
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError


class MalformedGraphError(InputError):
    """Structural problem (bad index, wrong lengths), distinct from an
    axiom violation."""


@dataclass(frozen=True)
class IsogenyGraph:
    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    dual: tuple[int, ...]
    diamond: tuple[int, ...]

    def __post_init__(self):
        n, m = self.num_vertices, len(self.edges)
        if n < 0:
            raise MalformedGraphError("negative vertex count")
        if len(self.dual) != m:
            raise MalformedGraphError("dual map must be total on edges")
        if len(self.diamond) != n:
            raise MalformedGraphError("diamond map must be total on vertices")
        for y, (s, t) in enumerate(self.edges):
            if not (0 <= s < n and 0 <= t < n):
                raise MalformedGraphError(f"edge {y} endpoint out of range")
        for y, jy in enumerate(self.dual):
            if not (0 <= jy < m):
                raise MalformedGraphError(f"dual of edge {y} out of range")
        for x, lx in enumerate(self.diamond):
            if not (0 <= lx < n):
                raise MalformedGraphError(f"diamond of vertex {x} out of range")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def source(self, y: int) -> int:
        return self.edges[y][0]

    def target(self, y: int) -> int:
        return self.edges[y][1]

    def out_edges(self) -> list[list[int]]:
        out = [[] for _ in range(self.num_vertices)]
        for y, (s, _) in enumerate(self.edges):
            out[s].append(y)
        return out


@dataclass(frozen=True)
class OrientedGraph:
    """Graph in the classical sense: J is a fixed-point-free involution
    swapping source and target, L implicitly the identity."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    involution: tuple[int, ...]

    def __post_init__(self):
        m = len(self.edges)
        if len(self.involution) != m:
            raise MalformedGraphError("involution must be total on edges")
        for y, jy in enumerate(self.involution):
            if not (0 <= jy < m):
                raise MalformedGraphError(f"involution of edge {y} out of range")
            if jy == y:
                raise MalformedGraphError(f"involution fixes edge {y}")
            if self.involution[jy] != y:
                raise MalformedGraphError(f"involution not an involution at edge {y}")
            if self.edges[jy] != (self.edges[y][1], self.edges[y][0]):
                raise MalformedGraphError(f"involution does not reverse edge {y}")
        for y, (s, t) in enumerate(self.edges):
            if not (0 <= s < self.num_vertices and 0 <= t < self.num_vertices):
                raise MalformedGraphError(f"edge {y} endpoint out of range")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def as_isogeny_graph(self) -> IsogenyGraph:
        return IsogenyGraph(
            self.num_vertices,
            self.edges,
            self.involution,
            tuple(range(self.num_vertices)),
        )


@dataclass
class ValidationReport:
    ok: bool
    axiom1_failures: tuple[int, ...]
    axiom2_failures: tuple[int, ...]
    out_degrees: tuple[int, ...]
    regular_degree: int | None


def out_degrees(g) -> list[int]:
    """Out-degree of every vertex.  Accepts IsogenyGraph or OrientedGraph."""
    degs = [0] * g.num_vertices
    for s, _ in g.edges:
        degs[s] += 1
    return degs


def validate(g: IsogenyGraph) -> ValidationReport:
    """Check the two defining axioms edge by edge.

    Index errors are raised by the constructor; this only reports axiom
    failures, plus degree data.
    """
    bad1, bad2 = [], []
    for y in range(g.num_edges):
        jy = g.dual[y]
        if g.source(jy) != g.target(y):
            bad1.append(y)
        if g.target(jy) != g.diamond[g.source(y)]:
            bad2.append(y)
    degs = out_degrees(g)
    regular = degs[0] if g.num_vertices and len(set(degs)) == 1 else None
    if g.num_vertices == 0:
        regular = 0
    return ValidationReport(
        ok=not bad1 and not bad2,
        axiom1_failures=tuple(bad1),
        axiom2_failures=tuple(bad2),
        out_degrees=tuple(degs),
        regular_degree=regular,
    )


def require_valid(g: IsogenyGraph) -> None:
    rep = validate(g)
    if not rep.ok:
        raise InputError(
            f"axiom violations: axiom 1 at edges {list(rep.axiom1_failures)}, "
            f"axiom 2 at edges {list(rep.axiom2_failures)}"
        )


# -- quotients and the oriented graphs --------------------------------------


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _classes(uf: _UnionFind, n: int):
    reps = {}
    class_of = [0] * n
    classes = []
    for x in range(n):
        r = uf.find(x)
        if r not in reps:
            reps[r] = len(classes)
            classes.append([])
        class_of[x] = reps[r]
        classes[reps[r]].append(x)
    return tuple(tuple(c) for c in classes), tuple(class_of)


@dataclass
class QuotientData:
    vertex_classes: tuple[tuple[int, ...], ...]
    edge_classes: tuple[tuple[int, ...], ...]
    vertex_class_of: tuple[int, ...]
    edge_class_of: tuple[int, ...]
    self_dual_classes: frozenset[int] = field(default_factory=frozenset)

    @property
    def num_vertex_classes(self) -> int:
        return len(self.vertex_classes)

    @property
    def num_edge_classes(self) -> int:
        return len(self.edge_classes)


def quotients(g: IsogenyGraph) -> QuotientData:
    """Partitions of X under x ~ L(x) and of Y under y ~ J^2(y), together
    with the self-dual edge classes (those with J[y] = [y])."""
    require_valid(g)
    ufv = _UnionFind(g.num_vertices)
    for x in range(g.num_vertices):
        ufv.union(x, g.diamond[x])
    ufe = _UnionFind(g.num_edges)
    for y in range(g.num_edges):
        ufe.union(y, g.dual[g.dual[y]])
    vclasses, vof = _classes(ufv, g.num_vertices)
    eclasses, eof = _classes(ufe, g.num_edges)

    # the induced source/target/dual maps must be constant on classes
    for cls in eclasses:
        s0, t0 = vof[g.source(cls[0])], vof[g.target(cls[0])]
        j0 = eof[g.dual[cls[0]]]
        for y in cls[1:]:
            if vof[g.source(y)] != s0 or vof[g.target(y)] != t0 or eof[g.dual[y]] != j0:
                raise InputError("induced quotient maps are not well-defined")

    self_dual = frozenset(
        i for i, cls in enumerate(eclasses) if eof[g.dual[cls[0]]] == i
    )
    return QuotientData(vclasses, eclasses, vof, eof, self_dual)


def oriented_graphs(g: IsogenyGraph) -> tuple[OrientedGraph, OrientedGraph]:
    """The plus graph (self-dual classes deleted) and the minus graph
    (self-dual classes duplicated, each pair swapped by the involution)."""
    q = quotients(g)
    vof, eof = q.vertex_class_of, q.edge_class_of
    nv = q.num_vertex_classes

    def class_ends(i):
        y = q.edge_classes[i][0]
        return vof[g.source(y)], vof[g.target(y)]

    def class_dual(i):
        return eof[g.dual[q.edge_classes[i][0]]]

    plus_ids = [i for i in range(q.num_edge_classes) if i not in q.self_dual_classes]
    pos = {cid: k for k, cid in enumerate(plus_ids)}
    plus_edges = tuple(class_ends(cid) for cid in plus_ids)
    plus_inv = tuple(pos[class_dual(cid)] for cid in plus_ids)
    plus = OrientedGraph(nv, plus_edges, plus_inv)

    minus_edges = []
    minus_inv = [0] * (q.num_edge_classes + len(q.self_dual_classes))
    copy_at = {}
    for cid in range(q.num_edge_classes):
        minus_edges.append(class_ends(cid))
    for cid in sorted(q.self_dual_classes):
        s, t = class_ends(cid)
        copy_at[cid] = len(minus_edges)
        minus_edges.append((t, s))
    for cid in range(q.num_edge_classes):
        if cid in q.self_dual_classes:
            minus_inv[cid] = copy_at[cid]
            minus_inv[copy_at[cid]] = cid
        else:
            minus_inv[cid] = class_dual(cid)
    minus = OrientedGraph(nv, tuple(minus_edges), tuple(minus_inv))
    return plus, minus


def euler_characteristic(og: OrientedGraph) -> int:
    """Vertices minus half the directed-edge count."""
    if og.num_edges % 2:
        raise InputError("oriented graph with an odd number of directed edges")
    return og.num_vertices - og.num_edges // 2


def is_connected(g) -> bool:
    """Directed connectivity: every ordered pair of vertices is joined by a
    path.  Accepts IsogenyGraph or OrientedGraph."""
    n = g.num_vertices
    if n <= 1:
        return True
    adj = [[] for _ in range(n)]
    radj = [[] for _ in range(n)]
    for s, t in g.edges:
        adj[s].append(t)
        radj[t].append(s)

    def reach(start, nbrs):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    return len(reach(0, adj)) == n and len(reach(0, radj)) == n


def _undirected_components(g) -> list[list[int]]:
    n = g.num_vertices
    uf = _UnionFind(n)
    for s, t in g.edges:
        uf.union(s, t)
    comps, _ = _classes(uf, n)
    return [list(c) for c in comps]


def homotopy_rank(g: IsogenyGraph) -> int:
    """First Betti number of the plus graph: half its edge count minus its
    vertex count plus one.  Requires the plus graph to be connected."""
    plus, _ = oriented_graphs(g)
    if not is_connected(plus):
        comps = _undirected_components(plus)
        raise InputError(f"plus graph is disconnected; components: {comps}")
    return 1 - euler_characteristic(plus)


# -- file format -------------------------------------------------------------


def format_graph(g: IsogenyGraph) -> str:
    lines = ["AIG v1", f"vertices {g.num_vertices}", f"edges {g.num_edges}"]
    for y, (s, t) in enumerate(g.edges):
        lines.append(f"{y} {s} {t} {g.dual[y]}")
    lines.append("L " + " ".join(str(x) for x in g.diamond))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> IsogenyGraph:
    """Parse the AIG v1 format, rejecting malformed data and axiom
    violations with the offending line number."""
    lines = text.splitlines()

    def fail(lineno, msg):
        raise InputError(f"line {lineno}: {msg}")

    if not lines or lines[0].strip() != "AIG v1":
        fail(1, "expected header 'AIG v1'")
    try:
        tag, nstr = lines[1].split()
        assert tag == "vertices"
        n = int(nstr)
    except (ValueError, IndexError, AssertionError):
        fail(2, "expected 'vertices N'")
    try:
        tag, mstr = lines[2].split()
        assert tag == "edges"
        m = int(mstr)
    except (ValueError, IndexError, AssertionError):
        fail(3, "expected 'edges M'")
    if len(lines) < 4 + m:
        fail(len(lines), "file truncated")
    edges, dual = [], []
    for y in range(m):
        lineno = 4 + y
        parts = lines[3 + y].split()
        if len(parts) != 4:
            fail(lineno, "expected 'y s t Jy'")
        try:
            yy, s, t, jy = (int(x) for x in parts)
        except ValueError:
            fail(lineno, "non-integer field")
        if yy != y:
            fail(lineno, f"edge index {yy} out of order (expected {y})")
        if not (0 <= s < n and 0 <= t < n):
            fail(lineno, "endpoint out of range")
        if not (0 <= jy < m):
            fail(lineno, "dual edge out of range")
        edges.append((s, t))
        dual.append(jy)
    lparts = lines[3 + m].split()
    if not lparts or lparts[0] != "L" or len(lparts) != n + 1:
        fail(4 + m, "expected 'L x0 x1 ... x_{N-1}'")
    try:
        diamond = tuple(int(x) for x in lparts[1:])
    except ValueError:
        fail(4 + m, "non-integer field")
    if any(not 0 <= x < n for x in diamond):
        fail(4 + m, "diamond image out of range")
    g = IsogenyGraph(n, tuple(edges), tuple(dual), diamond)
    rep = validate(g)
    if not rep.ok:
        y = (rep.axiom1_failures + rep.axiom2_failures)[0]
        which = 1 if rep.axiom1_failures else 2
        fail(4 + y, f"axiom {which} violated at edge {y}")
    return g


# -- generators for property tests and demos ---------------------------------


def random_graph(rng, max_vertices: int = 4, max_cycles: int = 3, max_tails: int = 3) -> IsogenyGraph:
    """Random valid graph, built constructively.

    Dual-cycles are orbits of the step (s, t) -> (t, L(s)) on vertex pairs,
    which satisfy both axioms by construction; tail edges y with J(y)
    pointing into an existing edge z are added where a source with
    L(source) = t(z) exists.
    """
    n = rng.randint(1, max_vertices)
    diamond = tuple(rng.randrange(n) for _ in range(n))
    edges: list[tuple[int, int]] = []
    dual: list[int] = []
    for _ in range(rng.randint(1, max_cycles)):
        pair = (rng.randrange(n), rng.randrange(n))
        seen = {}
        path = []
        while pair not in seen:
            seen[pair] = len(path)
            path.append(pair)
            pair = (pair[1], diamond[pair[0]])
        cycle = path[seen[pair]:]
        base = len(edges)
        for i, (s, t) in enumerate(cycle):
            edges.append((s, t))
            dual.append(base + (i + 1) % len(cycle))
    for _ in range(rng.randint(0, max_tails)):
        z = rng.randrange(len(edges))
        zs, zt = edges[z]
        sources = [x for x in range(n) if diamond[x] == zt]
        if not sources:
            continue
        edges.append((rng.choice(sources), zs))
        dual.append(z)
    return IsogenyGraph(n, tuple(edges), tuple(dual), diamond)


def random_oriented_regular_graph(rng, num_vertices: int, degree: int) -> OrientedGraph:
    """Random d-regular oriented multigraph via the configuration model."""
    if num_vertices * degree % 2:
        raise InputError("num_vertices * degree must be even")
    stubs = [v for v in range(num_vertices) for _ in range(degree)]
    rng.shuffle(stubs)
    edges, inv = [], []
    for i in range(0, len(stubs), 2):
        a, b = stubs[i], stubs[i + 1]
        edges.append((a, b))
        edges.append((b, a))
        inv.append(len(edges) - 1)
        inv.append(len(edges) - 2)
    return OrientedGraph(num_vertices, tuple(edges), tuple(inv))
