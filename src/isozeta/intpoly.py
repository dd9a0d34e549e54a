"""Dense polynomials with integer coefficients.

A polynomial is a tuple of ints, constant term first, with no trailing
zeros; the zero polynomial is the empty tuple.  Everything here is exact:
divisions go through Fraction and are checked back to integers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InternalCheckError

ZERO: tuple[int, ...] = ()
ONE: tuple[int, ...] = (1,)


def trim(coeffs: Sequence) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(f: Sequence) -> int:
    """Degree of f, with deg 0 = -1."""
    return len(trim(f)) - 1


def add(f: Sequence, g: Sequence) -> tuple:
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def neg(f: Sequence) -> tuple:
    return tuple(-c for c in f)


def sub(f: Sequence, g: Sequence) -> tuple:
    return add(f, neg(g))


def mul(f: Sequence, g: Sequence) -> tuple:
    f, g = trim(f), trim(g)
    if not f or not g:
        return ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def scale(f: Sequence, c) -> tuple:
    return trim([a * c for a in f])


def pow_(f: Sequence, e: int) -> tuple:
    if e < 0:
        raise ValueError("negative exponent on a bare polynomial")
    out = ONE
    base = trim(f)
    while e:
        if e & 1:
            out = mul(out, base)
        base = mul(base, base)
        e >>= 1
    return out


def evaluate(f: Sequence, x):
    out = 0
    for c in reversed(trim(f)):
        out = out * x + c
    return out


def derivative(f: Sequence) -> tuple:
    return trim([i * c for i, c in enumerate(f)][1:])


def divmod_exact(f: Sequence, g: Sequence) -> tuple[tuple, tuple]:
    """Quotient and remainder of f by g over the rationals.

    Coefficients of the result are Fractions unless they happen to be
    integral; use try_exact_div for a divisibility test over Z.
    """
    g = trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in trim(f)]
    dq = len(rem) - len(g)
    if dq < 0:
        return ZERO, trim(f)
    quot = [Fraction(0)] * (dq + 1)
    lead = Fraction(g[-1])
    for i in range(dq, -1, -1):
        c = rem[len(g) - 1 + i] / lead
        quot[i] = c
        if c:
            for j, b in enumerate(g):
                rem[i + j] -= c * b
    return trim(quot), trim(rem)


def try_exact_div(f: Sequence, g: Sequence):
    """Return f // g as an integer polynomial, or None if g does not divide f."""
    q, r = divmod_exact(f, g)
    if r != ZERO:
        return None
    if any(Fraction(c).denominator != 1 for c in q):
        return None
    return tuple(int(c) for c in q)


def primitive_gcd(f: Sequence, g: Sequence) -> tuple:
    """Monic-normalized gcd over Q, returned as a primitive integer polynomial
    with positive leading coefficient."""
    a = [Fraction(c) for c in trim(f)]
    b = [Fraction(c) for c in trim(g)]
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, [Fraction(c) for c in r]
    if not a:
        return ZERO
    from math import gcd as igcd, lcm

    den = lcm(*[c.denominator for c in a]) if len(a) > 1 else a[0].denominator
    ints = [int(c * den) for c in a]
    cont = 0
    for c in ints:
        cont = igcd(cont, abs(c))
    ints = [c // cont for c in ints]
    lowest = next(c for c in ints if c)
    if lowest < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def lagrange_interpolate(points: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Integer polynomial through the given (x, y) points.

    Raises InternalCheckError if the interpolant is not integral, which in
    this package always signals a wrong determinant degree bound.
    """
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            # multiply basis by (x - xj)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] -= c * xj
                nxt[k + 1] += c
            basis = nxt
            denom *= xi - xj
        w = Fraction(yi) / denom
        for k, c in enumerate(basis):
            coeffs[k] += w * c
    if any(c.denominator != 1 for c in coeffs):
        raise InternalCheckError("interpolation produced non-integer coefficients")
    return trim([int(c) for c in coeffs])


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                q, r = divmod(num, prev)
                if r:
                    raise InternalCheckError("fraction-free elimination left a remainder")
                m[i][j] = q
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def to_str(f: Sequence, var: str = "u") -> str:
    f = trim(f)
    if not f:
        return "0"
    parts = []
    for i, c in enumerate(f):
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}{var}" if i == 1 else f"{mag}{var}^{i}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)
