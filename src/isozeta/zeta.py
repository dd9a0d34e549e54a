"""Ihara zeta functions of finite graphs with dual and diamond maps.

The zeta function is computed as a factored rational function via the
determinant identity

    det(1 - u^2 L) * det(1 - u W1) = det(1 - A u + Q L u^2) * det(1 + u J),

where W1 is the non-backtracking edge operator.  The two outer
determinants factor through cycle data of the permutations associated to
L and J: a k-cycle of a self-map F contributes (1 - (-s)^k) to
det(1 + s F), the sign coming from the parity of the cycle.

All arithmetic is exact: integer polynomials, Fractions for series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import intpoly as ip
from .errors import InputError, InternalCheckError
from .graphs import IsogenyGraph, OrientedGraph, euler_characteristic, oriented_graphs, out_degrees


# -- factored rational functions ---------------------------------------------


class FactoredRationalFunction:
    """Formal product of integer polynomials raised to integer exponents.

    Canonical form: no zero or constant-1 factors, equal polynomials merged
    by summing exponents, factors sorted by (degree, coefficients).
    """

    __slots__ = ("factors",)

    def __init__(self, factors):
        merged: dict[tuple, int] = {}
        for poly, exp in factors:
            poly = ip.trim(poly)
            if poly == ip.ZERO:
                raise InputError("zero polynomial factor")
            if poly == ip.ONE or exp == 0:
                continue
            merged[poly] = merged.get(poly, 0) + exp
        items = [(p, e) for p, e in merged.items() if e != 0]
        items.sort(key=lambda pe: (len(pe[0]), pe[0]))
        self.factors = tuple(items)

    def __mul__(self, other: "FactoredRationalFunction") -> "FactoredRationalFunction":
        return FactoredRationalFunction(self.factors + other.factors)

    def inverse(self) -> "FactoredRationalFunction":
        return FactoredRationalFunction([(p, -e) for p, e in self.factors])

    def __pow__(self, n: int) -> "FactoredRationalFunction":
        return FactoredRationalFunction([(p, e * n) for p, e in self.factors])

    def expand(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Cross-multiplied (numerator, denominator) integer polynomials."""
        num, den = ip.ONE, ip.ONE
        for poly, exp in self.factors:
            if exp > 0:
                num = ip.mul(num, ip.pow_(poly, exp))
            else:
                den = ip.mul(den, ip.pow_(poly, -exp))
        return num, den

    def equals(self, other: "FactoredRationalFunction") -> bool:
        """Equality as rational functions, by exact cross-multiplication."""
        n1, d1 = self.expand()
        n2, d2 = other.expand()
        return ip.mul(n1, d2) == ip.mul(n2, d1)

    def value_at_zero(self) -> Fraction:
        v = Fraction(1)
        for poly, exp in self.factors:
            c0 = poly[0] if poly else 0
            if c0 == 0:
                raise InputError("factor vanishes at u = 0")
            v *= Fraction(c0) ** exp
        return v

    def __eq__(self, other):
        return isinstance(other, FactoredRationalFunction) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __str__(self):
        if not self.factors:
            return "1"
        return " * ".join(f"({ip.to_str(p)})^{e}" for p, e in self.factors)

    __repr__ = __str__

    def to_lines(self) -> list[str]:
        return [
            "coeffs " + " ".join(str(c) for c in poly) + f" exp {e}"
            for poly, e in self.factors
        ]

    @classmethod
    def from_lines(cls, lines: Sequence[str]) -> "FactoredRationalFunction":
        factors = []
        for ln in lines:
            parts = ln.split()
            if len(parts) < 4 or parts[0] != "coeffs" or parts[-2] != "exp":
                raise InputError(f"bad factor line: {ln!r}")
            coeffs = tuple(int(x) for x in parts[1:-2])
            factors.append((coeffs, int(parts[-1])))
        return cls(factors)


FRF = FactoredRationalFunction


# -- permutations associated to self-maps --------------------------------------


@dataclass
class CycleCounts:
    """Cycle-length histogram of the permutation a self-map restricts to on
    its unique maximal stable subset."""

    cycles: dict[int, int]
    domain: frozenset[int]

    def count(self, k: int) -> int:
        return self.cycles.get(k, 0)


def associated_permutation(f: Sequence[int]) -> CycleCounts:
    """Largest subset on which f is a bijection, found by repeatedly
    deleting elements outside the image, plus the cycle histogram there."""
    n = len(f)
    if n == 0:
        raise InputError("self-map on an empty set")
    z = set(range(n))
    while True:
        img = {f[x] for x in z}
        if img == z:
            break
        z = img
    cycles: dict[int, int] = {}
    seen = set()
    for start in z:
        if start in seen:
            continue
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = f[x]
            length += 1
        cycles[length] = cycles.get(length, 0) + 1
    if sum(k * c for k, c in cycles.items()) != len(z):
        raise InternalCheckError("cycle histogram does not cover the stable subset")
    return CycleCounts(cycles, frozenset(z))


def _cycle_factor(k: int) -> tuple[int, ...]:
    """det contribution of one k-cycle to det(1 + s F): 1 - (-s)^k."""
    return tuple([1] + [0] * (k - 1) + [-((-1) ** k)])


def self_map_det_factors(f: Sequence[int]) -> FRF:
    """det(1 + s M_f) in factored form, M_f the 0/1 matrix of the self-map f.

    Fixed points contribute (1 + s); a k-cycle contributes (1 - (-s)^k),
    the sign of the k-cycle being (-1)^(k-1).  Elements outside the stable
    subset contribute 1 (block triangularity).
    """
    cc = associated_permutation(f)
    factors = [((1, 1), cc.count(1))]
    for k, c in sorted(cc.cycles.items()):
        if k > 1:
            factors.append((_cycle_factor(k), c))
    return FRF(factors)


# -- matrices ------------------------------------------------------------------


def adjacency_matrix(g: IsogenyGraph | OrientedGraph) -> list[list[int]]:
    n = g.num_vertices
    a = [[0] * n for _ in range(n)]
    for s, t in g.edges:
        a[s][t] += 1
    return a


def diamond_matrix(g: IsogenyGraph) -> list[list[int]]:
    """The 0/1 matrix of the diamond map with L[x][L(x)] = 1, the
    orientation in which Q L enters det(1 - A u + Q L u^2)."""
    n = g.num_vertices
    m = [[0] * n for _ in range(n)]
    for x in range(n):
        m[x][g.diamond[x]] = 1
    return m


def _identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _one_minus_au_plus_qlu2(g, l) -> list[list[tuple[int, ...]]]:
    """Entries of 1 - A u + Q L u^2 as integer polynomials in u, for a 0/1
    vertex matrix L and Q = D - I diagonal: row x of Q L is row x of L
    scaled by deg(x) - 1."""
    a = adjacency_matrix(g)
    q = [d - 1 for d in out_degrees(g)]
    n = g.num_vertices
    return [
        [ip.trim((1 if i == j else 0, -a[i][j], q[i] * l[i][j])) for j in range(n)]
        for i in range(n)
    ]


def ihara_matrix(g: IsogenyGraph) -> list[list[tuple[int, ...]]]:
    """Entries of 1 - A u + Q L u^2 as integer polynomials in u."""
    return _one_minus_au_plus_qlu2(g, diamond_matrix(g))


def poly_det(matrix: Sequence[Sequence[tuple[int, ...]]]) -> tuple[int, ...]:
    """Exact determinant of a matrix of integer polynomials.

    Evaluation-interpolation: evaluate at 0, 1, -1, 2, -2, ... and take
    integer determinants by fraction-free elimination, then interpolate.
    The degree bound is the sum over rows of the max entry degree.
    """
    n = len(matrix)
    if n == 0:
        return ip.ONE
    bound = 0
    for row in matrix:
        d = max(ip.degree(e) for e in row)
        if d < 0:
            return ip.ZERO
        bound += d
    xs = [0]
    v = 1
    while len(xs) < bound + 1:
        xs.append(v)
        xs.append(-v)
        v += 1
    xs = xs[: bound + 1]
    points = []
    for x in xs:
        rows = [[ip.evaluate(e, x) for e in row] for row in matrix]
        points.append((x, ip.bareiss_det(rows)))
    return ip.lagrange_interpolate(points)


# -- the determinant formula -----------------------------------------------------


def _numerator_factors(g: IsogenyGraph) -> list[tuple[tuple[int, ...], int]]:
    """Factors of det(1 - u^2 L) / det(1 + u J).

    A k-cycle of L contributes (1 - u^{2k}); a k-cycle of J contributes
    (1 + u) for k = 1 and (1 - (-u)^k) for k > 1, inverted.
    """
    factors: list[tuple[tuple[int, ...], int]] = []
    if g.num_vertices:
        cl = associated_permutation(g.diamond)
        for k, c in sorted(cl.cycles.items()):
            factors.append((_cycle_factor(2 * k), c))
    if g.num_edges:
        cj = associated_permutation(g.dual)
        for k, c in sorted(cj.cycles.items()):
            factors.append(((1, 1) if k == 1 else _cycle_factor(k), -c))
    return factors


def zeta_numerator(g: IsogenyGraph) -> FRF:
    """det(1 - u^2 L) / det(1 + u J) in factored form: the numerator of the
    determinant formula and the predicted value of the modular-curve
    product."""
    return FRF(_numerator_factors(g))


def _check_dl_commute(g: IsogenyGraph) -> None:
    """D L = L D holds iff deg(L(x)) = deg(x) for every vertex x."""
    degs = out_degrees(g)
    if any(degs[g.diamond[x]] != degs[x] for x in range(g.num_vertices)):
        raise InputError(
            "unsupported graph: the degree matrix does not commute with the "
            "diamond map, so the determinant formula does not apply"
        )


def ihara_zeta(g: IsogenyGraph) -> FRF:
    """Zeta function as a factored rational function.

    Requires the degree matrix to commute with the diamond map (always true
    for regular graphs).
    """
    _check_dl_commute(g)
    factors = _numerator_factors(g)
    det = poly_det(ihara_matrix(g))
    factors.append((det, -1))
    return FRF(factors)


def zeta_involution_form(g: IsogenyGraph) -> FRF:
    """(1-u)^chi(plus) (1+u)^chi(minus) / det(1 - A u + Q u^2).

    Valid when the permutation induced by the dual map is an involution and
    s(J^2 y) = s(y) for every edge.
    """
    for y in range(g.num_edges):
        if g.source(g.dual[g.dual[y]]) != g.source(y):
            raise InputError("hypothesis violated: s(J^2 y) != s(y)")
    if g.num_edges:
        cj = associated_permutation(g.dual)
        if any(k > 2 for k in cj.cycles):
            raise InputError("hypothesis violated: induced dual permutation is not an involution")
    plus, minus = oriented_graphs(g)
    chi_p = euler_characteristic(plus)
    chi_m = euler_characteristic(minus)
    matrix = _one_minus_au_plus_qlu2(g, _identity_matrix(g.num_vertices))
    return FRF([((1, -1), chi_p), ((1, 1), chi_m), (poly_det(matrix), -1)])


def classical_ihara_zeta(og: OrientedGraph) -> FRF:
    """(1 - u^2)^chi / det(1 - A u + (d-1) u^2) for a d-regular oriented
    graph: the classical determinant formula."""
    if len(set(out_degrees(og))) != 1:
        raise InputError("classical formula requires a regular graph")
    chi = euler_characteristic(og)
    matrix = _one_minus_au_plus_qlu2(og, _identity_matrix(og.num_vertices))
    return FRF([((1, 0, -1), chi), (poly_det(matrix), -1)])


# -- series extraction --------------------------------------------------------


def _inverse_series(poly: Sequence[int], terms: int) -> list[Fraction]:
    c0 = Fraction(poly[0])
    inv = [Fraction(1) / c0]
    for n in range(1, terms):
        acc = Fraction(0)
        for i in range(1, min(n, len(poly) - 1) + 1):
            acc += poly[i] * inv[n - i]
        inv.append(-acc / c0)
    return inv


def cycle_count_series(z: FRF, terms: int) -> list[int]:
    """Coefficients N_1..N_R of u d/du log z(u), exactly.

    These are the closed non-backtracking tailless walk counts when z is a
    graph zeta function; non-integrality signals a wrong input and raises.
    """
    if terms < 0:
        raise InputError("series length must be >= 0")
    if z.value_at_zero() != 1:
        raise InputError("series requires z(0) = 1")
    acc = [Fraction(0)] * terms
    for poly, exp in z.factors:
        dp = ip.derivative(poly)
        inv = _inverse_series(poly, terms)
        # s[r] = coefficient of u^r in P'/P ; N_{r+1} picks s[r]
        for r in range(terms):
            val = Fraction(0)
            for i in range(min(r, len(dp) - 1) + 1 if dp else 0):
                val += dp[i] * inv[r - i]
            acc[r] += exp * val
    out = []
    for r, v in enumerate(acc):
        if v.denominator != 1:
            raise InternalCheckError(f"non-integral walk count at r={r + 1}: {v}")
        out.append(int(v))
    return out


def hashimoto_matrix(g: IsogenyGraph) -> list[list[int]]:
    """Non-backtracking edge operator: W1[y][y'] = 1 iff s(y') = t(y) and
    y' != J(y)."""
    m = g.num_edges
    w = [[0] * m for _ in range(m)]
    for y in range(m):
        ty = g.target(y)
        jy = g.dual[y]
        for y2 in range(m):
            if y2 != jy and g.source(y2) == ty:
                w[y][y2] = 1
    return w


def hashimoto_series(g: IsogenyGraph, terms: int) -> list[int]:
    """N_r = trace(W1^r) for r = 1..terms."""
    m = g.num_edges
    if m == 0:
        return [0] * terms
    w = hashimoto_matrix(g)
    out = []
    power = [row[:] for row in w]
    for r in range(terms):
        out.append(sum(power[i][i] for i in range(m)))
        if r + 1 < terms:
            power = _mat_mul(power, w)
    return out
