"""Imaginary quadratic machinery and the explicit Euler-characteristic and
point-count formulas.

Class groups are handled through reduced positive-definite binary
quadratic forms (a, b, c) with b^2 - 4ac = D < 0, composed by Dirichlet
composition.  The cycle sets I_r collect the orders whose prime above ell
has a class of order exactly r; they control isogeny-cycle counts through
r c_r = 2 sum h(O).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import GuardError, InputError


# -- Kronecker symbol ----------------------------------------------------------


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), total in both arguments (n != 0)."""
    if n == 0:
        raise InputError("Kronecker symbol undefined at n = 0")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # Jacobi symbol for odd n
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# -- reduced forms and class numbers ---------------------------------------------


def is_discriminant(d: int) -> bool:
    return d < 0 and d % 4 in (0, 1)


def reduced_forms(d: int) -> list[tuple[int, int, int]]:
    """All primitive reduced forms of discriminant d < 0, by a b-major scan."""
    if not is_discriminant(d):
        raise InputError(f"{d} is not a negative discriminant")
    forms = []
    bmax = isqrt(-d // 3)
    for b in range(d % 2, bmax + 1, 2):
        ac4 = b * b - d
        if ac4 % 4:
            continue
        ac = ac4 // 4
        a = max(b, 1)
        while a * a <= ac:
            if a >= b and ac % a == 0:
                c = ac // a
                if gcd(gcd(a, b), c) == 1:
                    forms.append((a, b, c))
                    if b and a != b and a != c:
                        forms.append((a, -b, c))
            a += 1
    forms.sort()
    return forms


def class_number(d: int) -> int:
    """h(d): the number of primitive reduced forms of discriminant d."""
    return len(reduced_forms(d))


def principal_form(d: int) -> tuple[int, int, int]:
    k = d % 2
    return (1, k, (k * k - d) // 4)


def reduce_form(f: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b, c = f
    while True:
        if -a < b <= a <= c:
            break
        if a > c:
            a, b, c = c, -b, a
            continue
        # normalize b into (-a, a]
        r = (a - b) // (2 * a)
        b, c = b + 2 * r * a, a * r * r + b * r + c
    if a == c and b < 0:
        b = -b
    return (a, b, c)


def compose(f1: tuple[int, int, int], f2: tuple[int, int, int]) -> tuple[int, int, int]:
    """Dirichlet composition of two forms of the same discriminant, reduced."""
    d1 = f1[1] ** 2 - 4 * f1[0] * f1[2]
    d2 = f2[1] ** 2 - 4 * f2[0] * f2[2]
    if d1 != d2:
        raise InputError("composition requires equal discriminants")
    if f1[0] > f2[0]:
        f1, f2 = f2, f1
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        g, u, _ = _ext_gcd(a2, a1)
        y1, d = u, g
    if s % d == 0:
        y2, x2, d1_ = -1, 0, d
    else:
        g, u, v = _ext_gcd(s, d)
        x2, y2, d1_ = u, -v, g
    v1 = a1 // d1_
    v2 = a2 // d1_
    r = (y1 * y2 * n - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    c3 = (c2 * d1_ + r * (b2 + v2 * r)) // v1
    return reduce_form((a3, b3, c3))


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a x + b y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def form_order(f: tuple[int, int, int]) -> int:
    """Order of [f] in the form class group."""
    d = f[1] ** 2 - 4 * f[0] * f[2]
    ident = reduce_form(principal_form(d))
    cur = reduce_form(f)
    order = 1
    while cur != ident:
        cur = compose(cur, f)
        order += 1
        if order > 10**6:
            raise InputError("runaway order computation")
    return order


def prime_form(d: int, ell: int):
    """Form (ell, b, c) of discriminant d representing a prime above ell,
    or None when ell does not split."""
    if kronecker(d, ell) != 1:
        return None
    if ell == 2:
        # split requires d = 1 mod 8
        return reduce_form((2, 1, (1 - d) // 8)) if (d - 1) % 8 == 0 else None
    b = next(x for x in range(ell) if (x * x - d) % ell == 0)
    if (b - d) % 2:
        b += ell  # fix parity; then b^2 = d holds mod 4 and mod ell, so mod 4 ell
    assert (b * b - d) % (4 * ell) == 0
    c = (b * b - d) // (4 * ell)
    return reduce_form((ell, b, c))


def form_order_of_ell(d: int, ell: int):
    """Order of the class of a prime above ell in Cl(d), or None when (ell)
    does not split or ell divides the conductor."""
    if not is_discriminant(d):
        raise InputError(f"{d} is not a negative discriminant")
    _, f = fundamental_decomposition(d)
    if f % ell == 0:
        return None
    pf = prime_form(d, ell)
    if pf is None:
        return None
    return form_order(pf)


def fundamental_decomposition(d: int) -> tuple[int, int]:
    """(fundamental discriminant, conductor) with d = f^2 * d0."""
    if not is_discriminant(d):
        raise InputError(f"{d} is not a negative discriminant")
    f = 1
    n = -d
    i = 2
    while i * i <= n:
        while n % (i * i) == 0:
            n //= i * i
            f *= i
        i += 1
    d0 = d // (f * f)
    if d0 % 4 not in (0, 1):
        d0 *= 4
        f //= 2
    return d0, f


@dataclass(frozen=True)
class QuadOrder:
    discriminant: int
    conductor: int
    fundamental_discriminant: int

    @staticmethod
    def from_discriminant(d: int) -> "QuadOrder":
        d0, f = fundamental_decomposition(d)
        return QuadOrder(d, f, d0)


def cycle_orders(r: int, p: int, ell: int) -> list[QuadOrder]:
    """The set I_r: imaginary quadratic orders in which p is non-split and
    prime to the conductor, ell is prime to the conductor, (ell) splits,
    and the class of the prime above ell has order exactly r.

    A class of order r containing a prime of norm ell yields a form
    representing ell^r, which bounds |D| by 4 ell^r.  Requires ell^r < p
    (beyond that, cycle counts acquire weights with no closed form).
    """
    if r < 1:
        raise InputError("r must be >= 1")
    if ell**r >= p:
        raise InputError(
            f"ell^r = {ell**r} >= p = {p}: cycle counts in this regime carry "
            "weights with no explicit formula; refusing"
        )
    out = []
    for d in range(-3, -4 * ell**r - 1, -1):
        if not is_discriminant(d):
            continue
        d0, f = fundamental_decomposition(d)
        if kronecker(d0, p) == 1 or f % p == 0:
            continue
        if f % ell == 0:
            continue
        if form_order_of_ell(d, ell) == r:
            out.append(QuadOrder(d, f, d0))
    out.sort(key=lambda o: -o.discriminant)
    return out


# -- explicit Euler characteristics ------------------------------------------------


def psi(n: int) -> int:
    """n * prod over primes q | n of (1 + 1/q)."""
    out = Fraction(n)
    for q in _prime_divisors(n):
        out *= Fraction(q + 1, q)
    assert out.denominator == 1
    return int(out)


def _prime_divisors(n: int) -> list[int]:
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


def _v2(n: int) -> int:
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v


@dataclass
class EulerCharReport:
    chi_plus: int
    chi_minus: int
    eps2: int
    eps3: int
    gamma: int
    delta4: Fraction
    delta3: Fraction
    nu_ell: int
    nu_4ell: int
    psi_n: int
    self_dual_count: int


def _eps2(p: int, n: int) -> int:
    if n % 4 == 0:
        return 0
    out = 1 - kronecker(-4, p)
    for q in _prime_divisors(n):
        out *= 1 + kronecker(-4, q)
    return out


def _eps3(p: int, n: int) -> int:
    if n % 9 == 0:
        return 0
    out = 1 - kronecker(-3, p)
    for q in _prime_divisors(n):
        out *= 1 + kronecker(-3, q)
    return out


def _gamma(p: int, ell: int, n: int) -> int:
    out = 1 - kronecker(-ell, p)
    for q in _prime_divisors(n):
        if q % 2:
            out *= 1 + kronecker(-ell, q)
    return out


def _delta4(ell: int) -> Fraction:
    return Fraction(1) if ell == 2 else Fraction(ell - kronecker(-1, ell), 2)


def _delta3(ell: int) -> Fraction:
    return Fraction(2) if ell == 2 else Fraction(2 * (ell - kronecker(-3, ell)), 3)


def _nu_4ell(ell: int, n: int) -> int:
    v = _v2(n)
    if v == 0:
        return 1
    if ell % 4 == 1:
        return 1 if v == 1 else 0
    if v == 1:
        return 2
    if ell % 8 == 7:
        return 4
    # ell = 3 mod 8 from here
    return 2 if v == 2 else 0


def _nu_ell(ell: int, n: int) -> int:
    if _v2(n) == 0:
        return 1
    if ell % 8 == 7:
        return 2
    return 0


def _imaginary_class_number(ell: int) -> int:
    """h of the maximal order of Q(sqrt(-ell))."""
    if ell == 2:
        return class_number(-8)
    return class_number(-ell if ell % 4 == 3 else -4 * ell)


def _self_dual_count(p: int, ell: int, n: int) -> Fraction:
    if ell == 2:
        extra = Fraction(1 - kronecker(-2, p), 2)
        for q in _prime_divisors(n):
            extra *= 1 + kronecker(-2, q)
        return Fraction(_eps2(p, n), 2) + extra
    h = _imaginary_class_number(ell)
    g = _gamma(p, ell, n)
    if ell == 3:
        mult = _nu_ell(ell, n) + _nu_4ell(ell, n)
    elif ell % 4 == 1:
        mult = _nu_4ell(ell, n)
    elif ell % 8 == 3:
        mult = _nu_ell(ell, n) + 3 * _nu_4ell(ell, n)
    else:  # ell = 7 mod 8
        mult = _nu_ell(ell, n) + _nu_4ell(ell, n)
    return Fraction(h * mult * g, 2)


def borel_euler_characteristics(p: int, ell: int, n: int) -> EulerCharReport:
    """chi of the plus/minus graphs of the Borel-level isogeny graph, from
    the closed formulas (no graph is built)."""
    if p <= 3:
        raise InputError("p must be a prime > 3")
    if gcd(n, p * ell) != 1:
        raise InputError("N must be coprime to p and ell")
    if ell % 8 == 7 and _v2(n) >= 3:
        # the 2-adic self-dual multiplicity is not derived there: the graph
        # gives 8 at (5, 7, 8) and (13, 7, 8) where the formula gives 6
        raise GuardError(f"chi formula not derived for ell = 7 mod 8 with 8 | N (N = {n})")
    e2, e3 = _eps2(p, n), _eps3(p, n)
    d4, d3 = _delta4(ell), _delta3(ell)
    r = _self_dual_count(p, ell, n)
    chi_plus = (
        Fraction((1 - ell) * (p - 1) * psi(n), 24)
        + Fraction(1 - ell + 2 * d4, 8) * e2
        + Fraction(2 - 2 * ell + 3 * d3, 12) * e3
        + r / 2
    )
    if chi_plus.denominator != 1 or r.denominator != 1:
        raise InputError(f"non-integral chi for (p, ell, N) = ({p}, {ell}, {n})")
    return EulerCharReport(
        chi_plus=int(chi_plus),
        chi_minus=int(chi_plus - r),
        eps2=e2,
        eps3=e3,
        gamma=_gamma(p, ell, n),
        delta4=d4,
        delta3=d3,
        nu_ell=_nu_ell(ell, n),
        nu_4ell=_nu_4ell(ell, n),
        psi_n=psi(n),
        self_dual_count=int(r),
    )


def borel_vertex_count(p: int, ell: int, n: int) -> int:
    """Number of vertices of the Borel-level graph from the mass formula."""
    v = Fraction((p - 1) * psi(n), 12) + Fraction(_eps2(p, n), 4) + Fraction(_eps3(p, n), 3)
    assert v.denominator == 1
    return int(v)


# -- point counts --------------------------------------------------------------------


def modular_point_count(p: int, ell: int, r: int, n_r: int, chi_plus: int, chi_minus: int) -> int:
    """#X0(p)(F_{ell^r}) = 2(1 + ell^r) - chi_plus + (-1)^(r-1) chi_minus - N_r."""
    return 2 * (1 + ell**r) - chi_plus + (-1) ** (r - 1) * chi_minus - n_r


def point_count_residual(
    count_x0_pn: int, count_x0_n: int, n_r: int, r: int, chi_plus: int, chi_minus: int
) -> int:
    """Zero iff #X0(pN) - 2 #X0(N) + N_r = -chi_plus + (-1)^(r-1) chi_minus."""
    return count_x0_pn - 2 * count_x0_n + n_r + chi_plus - (-1) ** (r - 1) * chi_minus


def embedding_multiplicity(order: QuadOrder, p: int) -> int:
    """Number of local embeddings at p: 2 when p is inert in the field,
    1 when p ramifies (and 0 when split, but split orders never enter I_r)."""
    return 1 - kronecker(order.fundamental_discriminant, p)


def nr_from_class_numbers(r: int, p: int, ell: int) -> int:
    """N_r via the divisor sum over isogeny-cycle counts:
    N_r = sum_{d | r} d c_d with d c_d = sum over I_d of m_p(O) h(O).

    The multiplicity m_p(O) is 2 for p inert and 1 for p ramified; with no
    ramified orders in range this is the familiar d c_d = 2 sum h(O)."""
    total = 0
    for d in range(1, r + 1):
        if r % d:
            continue
        total += sum(
            embedding_multiplicity(o, p) * class_number(o.discriminant)
            for o in cycle_orders(d, p, ell)
        )
    return total


def genus_x0(n: int) -> int:
    """Genus of X0(n) by the standard index/elliptic-point/cusp count."""
    mu = psi(n)
    if n % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for q in _prime_divisors(n):
            nu2 *= 1 + kronecker(-4, q)
    if n % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for q in _prime_divisors(n):
            nu3 *= 1 + kronecker(-3, q)
    nuinf = 0
    for d in range(1, n + 1):
        if n % d == 0:
            nuinf += _euler_phi(gcd(d, n // d))
    g = Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(nuinf, 2) + 1
    assert g.denominator == 1
    return int(g)


def _euler_phi(n: int) -> int:
    out = n
    for q in _prime_divisors(n):
        out = out // q * (q - 1)
    return out


@dataclass
class AsymptoticRow:
    r: int
    n_r: int
    ratio: Fraction
    in_band: bool


def asymptotic_report(graph, terms: int, band_constant: Fraction | None = None) -> list[AsymptoticRow]:
    """Ratios N_r / ell^r for r <= terms, flagged against the band
    1 +- K ell^(-r/2).  K defaults to 6 when not supplied."""
    from .zeta import cycle_count_series, ihara_zeta

    degs = [0] * graph.num_vertices
    for s, _ in graph.edges:
        degs[s] += 1
    if not degs or len(set(degs)) != 1:
        raise InputError("asymptotic report requires a regular graph")
    ell = degs[0] - 1
    if ell < 1:
        return [AsymptoticRow(r, 0, Fraction(0), False) for r in range(1, terms + 1)]
    k = Fraction(6) if band_constant is None else Fraction(band_constant)
    counts = cycle_count_series(ihara_zeta(graph), terms)
    rows = []
    for r in range(1, terms + 1):
        ratio = Fraction(counts[r - 1], ell**r)
        # band: |ratio - 1| <= K * ell^(-r/2); compare squares to stay exact
        dev = abs(ratio - 1)
        in_band = dev * dev * ell**r <= k * k
        rows.append(AsymptoticRow(r, counts[r - 1], ratio, in_band))
    return rows


def band_constant_from_genera(p: int, n: int, slack: int = 4) -> Fraction:
    """K = 2 (g(X0(pN)) + 2 g(X0(N))) + slack."""
    return Fraction(2 * (genus_x0(p * n) + 2 * genus_x0(n)) + slack)
