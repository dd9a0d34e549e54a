"""Elliptic curves in short Weierstrass form over F_{p^k}, p > 3.

Covers exactly what the graph construction needs: affine point
arithmetic, exact point counts by x-sweep, supersingular enumeration and
model selection, torsion bases over the predictable extension fields,
isogenies from kernels with explicit rational maps, and the scalar
automorphisms (x, y) -> (u^2 x, u^3 y).

Points are None (infinity) or (x, y) pairs of field elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import GuardError, InputError, InternalCheckError
from .fields import Fel, Fq, canonical_key

Point = tuple[Fel, Fel] | None

_SWEEP_LIMIT = 10**6


@dataclass(frozen=True)
class Curve:
    field: Fq
    a: Fel
    b: Fel

    def __post_init__(self):
        if 4 * self.a**3 + 27 * self.b**2 == 0:
            raise InputError("singular curve: discriminant vanishes")

    def __repr__(self):
        return f"E({self.field.p},{self.field.k}): a={self.a}, b={self.b}"

    def rhs(self, x: Fel) -> Fel:
        return (x * x + self.a) * x + self.b

    def contains(self, pt: Point) -> bool:
        if pt is None:
            return True
        x, y = pt
        return y * y == self.rhs(x)

    def negate(self, pt: Point) -> Point:
        if pt is None:
            return None
        return (pt[0], -pt[1])

    def add(self, p1: Point, p2: Point) -> Point:
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        x1, y1 = p1
        x2, y2 = p2
        if x1 == x2:
            if y1 == -y2:
                return None
            lam = (3 * x1 * x1 + self.a) / (2 * y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - x1 - x2
        return (x3, lam * (x1 - x3) - y1)

    def mul(self, n: int, pt: Point) -> Point:
        if n < 0:
            return self.mul(-n, self.negate(pt))
        out: Point = None
        addend = pt
        while n:
            if n & 1:
                out = self.add(out, addend)
            addend = self.add(addend, addend)
            n >>= 1
        return out

    def point_order(self, pt: Point, bound: int) -> int:
        """Order of pt, known to divide bound."""
        if self.mul(bound, pt) is not None:
            raise InputError("point order does not divide the given bound")
        order = bound
        for q in _prime_factors(bound):
            while order % q == 0 and self.mul(order // q, pt) is None:
                order //= q
        return order


def _prime_factors(n: int) -> list[int]:
    out = []
    i = 2
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            while n % i == 0:
                n //= i
        i += 1
    if n > 1:
        out.append(n)
    return out


def j_invariant(e: Curve) -> Fel:
    a3 = 4 * e.a**3
    return 1728 * a3 / (a3 + 27 * e.b**2)


def curve_from_j(field: Fq, j) -> Curve:
    j = field(j)
    if j == field(0):
        return Curve(field, field(0), field(1))
    if j == field(1728):
        return Curve(field, field(1), field(0))
    c = 3 * j * (field(1728) - j)
    d = 2 * j * (field(1728) - j) ** 2
    return Curve(field, c, d)


@lru_cache(maxsize=32)
def _square_values(field: Fq) -> frozenset:
    return frozenset((x * x).c for x in field.elements())


def count_points(e: Curve) -> int:
    """#E(F_q) by summing 1 + chi(x^3 + a x + b); only for q <= 10^6."""
    q = e.field.order
    if q > _SWEEP_LIMIT:
        raise GuardError(f"point count by sweep refused for field of order {q}")
    squares = _square_values(e.field)
    total = 1
    for x in e.field.elements():
        r = e.rhs(x)
        if not r:
            total += 1
        elif r.c in squares:
            total += 2
    return total


def quadratic_twist(e: Curve) -> Curve:
    d = e.field._find_nonresidue()
    return Curve(e.field, e.a * d * d, e.b * d**3)


@lru_cache(maxsize=32)
def supersingular_j_invariants(p: int) -> tuple[Fel, ...]:
    """All supersingular j-invariants in F_{p^2}, canonically ordered.

    Roots lambda of the degree-(p-1)/2 Hasse polynomial
    sum binom(m, i)^2 lambda^i are the supersingular Legendre parameters;
    they all lie in F_{p^2} because the trace -2p model has rational
    2-torsion.  The mass formula sum 1/#Aut = (p-1)/24 is asserted.
    """
    field = Fq(p, 2)
    m = (p - 1) // 2
    coeffs = [field(comb(m, i) ** 2 % p).c for i in range(m + 1)]
    js = set()
    c1728 = field(1728)
    for lam in field.elements():
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = field._add(field._mul(acc, lam.c), c)
        if any(acc):
            continue
        lam2 = lam * lam
        num = field(256) * (lam2 - lam + 1) ** 3
        j = num / (lam2 * (lam - 1) ** 2)
        js.add(j)
    mass = Fraction(0)
    for j in js:
        aut = 6 if j == field(0) else 4 if j == c1728 else 2
        mass += Fraction(1, aut)
    if mass != Fraction(p - 1, 24):
        raise InternalCheckError(f"mass formula failed for p={p}: {mass}")
    return tuple(sorted(js, key=canonical_key))


def supersingular_model(field: Fq, j) -> Curve:
    """The twist with #E(F_{p^2}) = (p+1)^2, i.e. Frobenius acting as -p."""
    p = field.p
    j = field(j)
    target = (p + 1) ** 2
    if j != field(0) and j != field(1728):
        e = curve_from_j(field, j)
        for cand in (e, quadratic_twist(e)):
            if count_points(cand) == target:
                return cand
        raise InternalCheckError(f"no (p+1)^2 twist found for j={j}")
    for d in field.elements():
        if not d:
            continue
        cand = Curve(field, field(0), d) if j == field(0) else Curve(field, d, field(0))
        if count_points(cand) == target:
            return cand
    raise InternalCheckError(f"no (p+1)^2 twist found for j={j}")


# -- torsion ------------------------------------------------------------------


def multiplicative_order(a: int, n: int) -> int:
    if n == 1:
        return 1
    a %= n
    from math import gcd

    if gcd(a, n) != 1:
        raise InputError(f"{a} is not a unit mod {n}")
    k, x = 1, a
    while x != 1:
        x = x * a % n
        k += 1
    return k


def torsion_field_degree(p: int, n: int) -> int:
    """Least m with the n-torsion rational over F_{p^{2m}}, for the
    Frobenius-acts-as--p models: the multiplicative order of -p mod n."""
    return multiplicative_order(-p, n)


def _dlog_key(pt: Point):
    return pt if pt is None else (pt[0].c, pt[1].c)


@dataclass
class TorsionContext:
    curve: Curve
    n: int
    basis: tuple[Point, Point]
    dlog_table: dict

    def dlog(self, pt: Point) -> tuple[int, int]:
        try:
            return self.dlog_table[_dlog_key(pt)]
        except KeyError:
            raise InternalCheckError("point is not in the stored torsion subgroup")


def torsion_basis_in(e: Curve, n: int, group_exponent: int, max_candidates: int = 5000) -> TorsionContext:
    """Deterministic basis of E[n] inside E(F), where E(F) = (Z/e1)^2 with
    exponent e1 = group_exponent and n | e1.

    Candidate points are taken in canonical x order, pushed into E[n] by
    the cofactor, and the basis is certified by enumerating all n^2
    combinations.
    """
    if group_exponent % n:
        raise InputError("n does not divide the group exponent")
    if n == 1:
        table = {_dlog_key(None): (0, 0)}
        return TorsionContext(e, 1, (None, None), table)
    cof = group_exponent // n
    first: Point = None
    idx = 0
    tried = 0
    field = e.field
    while tried < max_candidates:
        x = field.element_from_index(idx)
        idx += 1
        r = e.rhs(x)
        y = field.sqrt(r)
        if y is None:
            continue
        tried += 1
        t = e.mul(cof, (x, y))
        if t is None or e.point_order(t, n) != n:
            continue
        if first is None:
            first = t
            continue
        table = _try_basis(e, n, first, t)
        if table is not None:
            return TorsionContext(e, n, (first, t), table)
    raise InternalCheckError(
        f"no basis of the {n}-torsion found; the extension degree is likely wrong"
    )


def _try_basis(e: Curve, n: int, p1: Point, p2: Point):
    """dlog table for (p1, p2) if they generate a group of order n^2."""
    table = {}
    multiples_p = [None]
    for _ in range(n - 1):
        multiples_p.append(e.add(multiples_p[-1], p1))
    cur: Point = None
    for b in range(n):
        for a in range(n):
            pt = e.add(multiples_p[a], cur)
            key = _dlog_key(pt)
            if key in table:
                return None
            table[key] = (a, b)
        cur = e.add(cur, p2)
    return table


# -- polynomials over a field ----------------------------------------------------


def fp_trim(field: Fq, cs) -> tuple:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def fp_add(field: Fq, f, g) -> tuple:
    n = max(len(f), len(g))
    z = field.zero
    return fp_trim(field, [(f[i] if i < len(f) else z) + (g[i] if i < len(g) else z) for i in range(n)])


def fp_sub(field: Fq, f, g) -> tuple:
    return fp_add(field, f, tuple(-c for c in g))


def fp_mul(field: Fq, f, g) -> tuple:
    if not f or not g:
        return ()
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] = out[i + j] + x * y
    return fp_trim(field, out)


def fp_scale(field: Fq, f, c: Fel) -> tuple:
    return fp_trim(field, [a * c for a in f])


def fp_eval(field: Fq, f, x: Fel) -> Fel:
    acc = field.zero
    for c in reversed(f):
        acc = acc * x + c
    return acc


def fp_deriv(field: Fq, f) -> tuple:
    return fp_trim(field, [i * c for i, c in enumerate(f)][1:])


def fp_divmod(field: Fq, f, g) -> tuple[tuple, tuple]:
    g = fp_trim(field, g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dq = len(rem) - len(g)
    if dq < 0:
        return (), fp_trim(field, rem)
    inv = g[-1].inverse()
    quot = [field.zero] * (dq + 1)
    for i in range(dq, -1, -1):
        c = rem[len(g) - 1 + i] * inv
        quot[i] = c
        if c:
            for j, b in enumerate(g):
                rem[i + j] = rem[i + j] - c * b
    return fp_trim(field, quot), fp_trim(field, rem)


def fp_exact_div(field: Fq, f, g) -> tuple:
    q, r = fp_divmod(field, f, g)
    if r:
        raise InternalCheckError("expected exact polynomial division")
    return q


def fp_gcd(field: Fq, f, g) -> tuple:
    f, g = fp_trim(field, f), fp_trim(field, g)
    while g:
        _, r = fp_divmod(field, f, g)
        f, g = g, r
    if f:
        f = fp_scale(field, f, f[-1].inverse())
    return f


def fp_powmod(field: Fq, base, e: int, mod) -> tuple:
    out = (field.one,)
    base = fp_divmod(field, base, mod)[1]
    while e:
        if e & 1:
            out = fp_divmod(field, fp_mul(field, out, base), mod)[1]
        base = fp_divmod(field, fp_mul(field, base, base), mod)[1]
        e >>= 1
    return out


def poly_roots(field: Fq, f) -> list[Fel]:
    """Distinct roots in the field, canonically ordered.

    Small fields are swept; larger ones use gcd with x^q - x followed by
    shift-based equal-degree splitting with deterministic shifts.
    """
    f = fp_trim(field, f)
    if len(f) <= 1:
        return []
    if field.order <= _SWEEP_LIMIT and field.order < 50 * len(f) ** 2:
        return sorted((x for x in field.elements() if not fp_eval(field, f, x)), key=canonical_key)
    x = (field.zero, field.one)
    xq = fp_powmod(field, x, field.order, f)
    lin = fp_gcd(field, fp_sub(field, xq, x), f)
    roots: list[Fel] = []
    _split_linear(field, lin, roots, 0)
    return sorted(roots, key=canonical_key)


def _split_linear(field: Fq, f, roots: list[Fel], shift_idx: int) -> None:
    f = fp_trim(field, f)
    if len(f) <= 1:
        return
    if len(f) == 2:
        roots.append(-f[0] / f[1])
        return
    q = field.order
    idx = shift_idx
    while True:
        c = field.element_from_index(idx % q)
        idx += 1
        h = fp_powmod(field, (c, field.one), (q - 1) // 2, f)
        g = fp_gcd(field, fp_sub(field, h, (field.one,)), f)
        if 0 < len(g) - 1 < len(f) - 1:
            _split_linear(field, g, roots, idx)
            _split_linear(field, fp_exact_div(field, f, g), roots, idx)
            return
        if idx - shift_idx > 200:
            raise InternalCheckError("root splitting failed to make progress")


# -- isogenies -----------------------------------------------------------------------


@dataclass
class Isogeny:
    domain: Curve
    codomain: Curve
    degree: int
    kernel_points: tuple
    kernel_polynomial: tuple
    x_num: tuple
    x_den: tuple
    y_num: tuple
    y_den: tuple

    def __call__(self, pt: Point) -> Point:
        if pt is None:
            return None
        x, y = pt
        den = fp_eval(self.domain.field, self.x_den, x)
        if not den:
            return None
        xx = fp_eval(self.domain.field, self.x_num, x) / den
        yy = y * fp_eval(self.domain.field, self.y_num, x) / fp_eval(self.domain.field, self.y_den, x)
        return (xx, yy)


def velu_isogeny(e: Curve, kernel_gen: Point) -> Isogeny:
    """Separable isogeny with kernel generated by a point of prime order
    ell in {2, 3, 5, 7}, normalized so the pullback of dx/y is dx/y."""
    if kernel_gen is None:
        raise InputError("kernel generator must be a finite point")
    field = e.field
    pts = [kernel_gen]
    while True:
        nxt = e.add(pts[-1], kernel_gen)
        if nxt is None:
            break
        pts.append(nxt)
    ell = len(pts) + 1
    if ell not in (2, 3, 5, 7):
        raise InputError(f"kernel order {ell} unsupported (need prime in 2..7)")
    a = e.a

    by_x: dict = {}
    for x, y in pts:
        key = x.c
        t_q = 3 * x * x + a
        u_q = 2 * y * y
        if key in by_x:
            tx, ux, _, _ = by_x[key]
            by_x[key] = (tx + t_q, ux + u_q, x, 2)
        else:
            by_x[key] = (t_q, u_q, x, 1 if not y else 2)
    # points of order 2 have y = 0 and a simple pole; others a double pole
    t_sum = field.zero
    w_sum = field.zero
    for x, y in pts:
        t_q = 3 * x * x + a
        t_sum = t_sum + t_q
        w_sum = w_sum + 2 * y * y + x * t_q

    a2 = e.a - 5 * t_sum
    b2 = e.b - 7 * w_sum
    codomain = Curve(field, a2, b2)

    den = (field.one,)
    kernel_poly = (field.one,)
    for _, (_, _, x, exp) in sorted(by_x.items()):
        lin = (-x, field.one)
        kernel_poly = fp_mul(field, kernel_poly, lin)
        den = fp_mul(field, den, fp_mul(field, lin, lin) if exp == 2 else lin)
    num = fp_mul(field, (field.zero, field.one), den)
    for _, (t_i, u_i, x, exp) in sorted(by_x.items()):
        lin = (-x, field.one)
        if exp == 2:
            part = fp_add(field, fp_scale(field, lin, t_i), (u_i,))
            rest = fp_exact_div(field, den, fp_mul(field, lin, lin))
        else:
            part = (t_i,)
            rest = fp_exact_div(field, den, lin)
        num = fp_add(field, num, fp_mul(field, part, rest))

    dnum = fp_deriv(field, num)
    dden = fp_deriv(field, den)
    y_num = fp_sub(field, fp_mul(field, dnum, den), fp_mul(field, num, dden))
    y_den = fp_mul(field, den, den)

    phi = Isogeny(e, codomain, ell, tuple(pts), kernel_poly, num, den, y_num, y_den)
    _check_isogeny(phi)
    return phi


def _check_isogeny(phi: Isogeny) -> None:
    field = phi.domain.field
    kernel_x = {p[0].c for p in phi.kernel_points}
    for idx in range(field.order if field.order < 50 else 50):
        x = field.element_from_index(idx)
        if x.c in kernel_x:
            continue
        y = field.sqrt(phi.domain.rhs(x))
        if y is None:
            continue
        img = phi((x, y))
        if img is None or not phi.codomain.contains(img):
            raise InternalCheckError("isogeny image left the codomain")
        return
    # tiny fields may have no affine test point; accept


# -- isomorphisms and automorphisms ----------------------------------------------------


def isomorphisms(e1: Curve, e2: Curve) -> list[Fel]:
    """Scale factors u with (x, y) -> (u^2 x, u^3 y) mapping e1 to e2,
    i.e. u^4 a1 = a2 and u^6 b1 = b2; empty when the curves are not
    isomorphic over the field.

    The square u^2 is pinned down by the coefficient ratios (generic j),
    the fourth roots of a2/a1 (j = 1728), or the sixth roots of b2/b1
    (j = 0), so only square/cube-root extractions are needed.
    """
    if e1.field != e2.field:
        raise InputError("curves over different fields")
    field = e1.field
    vs: list[Fel] = []  # candidates for u^2
    if e1.a and e1.b:
        if not (e2.a and e2.b):
            return []
        vs = [(e2.b * e1.a) / (e1.b * e2.a)]
    elif not e1.b:  # j = 1728
        if e2.b or not e2.a:
            return []
        s = field.sqrt(e2.a / e1.a)
        if s is not None:
            vs = [s, -s]
    else:  # j = 0
        if e2.a or not e2.b:
            return []
        w = e2.b / e1.b
        vs = poly_roots(field, (-w, field.zero, field.zero, field.one))
    out = []
    for v in vs:
        u = field.sqrt(v)
        if u is None:
            continue
        for cand in (u, -u):
            if cand**4 * e1.a == e2.a and cand**6 * e1.b == e2.b:
                out.append(cand)
    return sorted(set(out), key=canonical_key)


def automorphisms(e: Curve) -> list[Fel]:
    """Scalar automorphisms of e over its field: {+-1} generically, mu_4
    for j = 1728, mu_6 for j = 0 (when those roots lie in the field)."""
    return isomorphisms(e, e)


def apply_isomorphism(u: Fel, pt: Point) -> Point:
    if pt is None:
        return None
    return (u * u * pt[0], u**3 * pt[1])
