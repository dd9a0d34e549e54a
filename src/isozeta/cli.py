"""Batch command-line front end.

Subcommands: build, zeta, counts, primes, chi, pointcount, verify-product,
selftest.  Exit codes: 0 pass, 1 mathematical mismatch, 2 input error,
3 resource guard.  All outputs are deterministic text.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import intpoly as ip
from .errors import GuardError, InputError
from .graphs import format_graph, oriented_graphs, euler_characteristic, parse_graph
from .quadforms import (
    borel_euler_characteristics,
    class_number,
    cycle_orders,
    modular_point_count,
    nr_from_class_numbers,
)
from .ssgraph import build_isogeny_graph, format_provenance, parse_provenance_header
from .walks import enumerate_primes
from .zeta import FRF, cycle_count_series, hashimoto_series, ihara_zeta, zeta_numerator


class MathMismatch(Exception):
    pass


def _cmd_build(args, out) -> int:
    res = build_isogeny_graph(args.p, args.ell, args.level, rep_seed=args.seed)
    path = Path(args.out) if args.out else Path(
        f"G_{args.p}_{args.ell}_{args.level.replace(':', '_')}.aig"
    )
    path.write_text(format_graph(res.graph), encoding="utf-8")
    Path(str(path) + ".prov").write_text(format_provenance(res), encoding="utf-8")
    out(f"wrote {path} and {path}.prov")
    out(f"vertices {res.num_vertices} edges {res.graph.num_edges}")
    return 0


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")


def _load_graph(path: str):
    return parse_graph(_read_text(path))


def _cmd_zeta(args, out) -> int:
    g = _load_graph(args.graph)
    z = ihara_zeta(g)
    out("factored:")
    for line in z.to_lines():
        out(line)
    num, den = z.expand()
    out(f"numerator: {ip.to_str(num)}")
    out(f"denominator: {ip.to_str(den)}")
    if args.series:
        counts = cycle_count_series(z, args.series)
        out("series: " + " ".join(str(c) for c in counts))
    return 0


def _cmd_counts(args, out) -> int:
    g = _load_graph(args.graph)
    _, c_table = enumerate_primes(g, args.max_len)
    counts = hashimoto_series(g, args.max_len)
    out("r\tN_r\tc_r")
    for r in range(1, args.max_len + 1):
        out(f"{r}\t{counts[r - 1]}\t{c_table[r]}")
    return 0


def _cmd_primes(args, out) -> int:
    g = _load_graph(args.graph)
    by_len, _ = enumerate_primes(g, args.max_len)
    for r in range(1, args.max_len + 1):
        reps = " ".join(",".join(str(y) for y in p.canonical_rotation) for p in by_len[r])
        out(f"length {r}: {reps}" if reps else f"length {r}:")
    return 0


def _cmd_chi(args, out) -> int:
    rep = borel_euler_characteristics(args.p, args.ell, args.n)
    out(
        f"formula: chi+ {rep.chi_plus} chi- {rep.chi_minus} "
        f"(eps2 {rep.eps2} eps3 {rep.eps3} gamma {rep.gamma} "
        f"delta4 {rep.delta4} delta3 {rep.delta3} nu_ell {rep.nu_ell} "
        f"nu_4ell {rep.nu_4ell} psi {rep.psi_n} r {rep.self_dual_count})"
    )
    try:
        res = build_isogeny_graph(args.p, args.ell, f"borel0:{args.n}")
    except GuardError as e:
        out(f"graph route skipped: {e}")
        return 0
    plus, minus = oriented_graphs(res.graph)
    cp, cm = euler_characteristic(plus), euler_characteristic(minus)
    out(f"graph:   chi+ {cp} chi- {cm}")
    if (cp, cm) != (rep.chi_plus, rep.chi_minus):
        raise MathMismatch("formula and graph Euler characteristics disagree")
    out("agree")
    return 0


def _cmd_pointcount(args, out) -> int:
    p, ell, r = args.p, args.ell, args.r
    if r < 1:
        raise InputError("r must be >= 1")
    res = build_isogeny_graph(p, ell, "full:1")
    plus, minus = oriented_graphs(res.graph)
    cp, cm = euler_characteristic(plus), euler_characteristic(minus)
    n_r = cycle_count_series(ihara_zeta(res.graph), r)[r - 1]
    graph_count = modular_point_count(p, ell, r, n_r, cp, cm)
    out(f"graph route: {graph_count}")
    if ell**r >= p:
        out(
            f"class-number route disabled: ell^r = {ell**r} >= p = {p} "
            "(cycle counts carry weights with no explicit formula there)"
        )
        return 0
    rep = borel_euler_characteristics(p, ell, 1)
    n_r2 = nr_from_class_numbers(r, p, ell)
    class_count = modular_point_count(p, ell, r, n_r2, rep.chi_plus, rep.chi_minus)
    out(f"class-number route: {class_count}")
    for d in sorted(set(d for d in range(1, r + 1) if r % d == 0)):
        orders = cycle_orders(d, p, ell)
        discs = " ".join(
            f"{o.discriminant}(h={class_number(o.discriminant)})" for o in orders
        )
        out(f"I_{d}: {discs}" if discs else f"I_{d}: empty")
    if class_count != graph_count:
        raise MathMismatch(
            f"routes disagree: graph {graph_count} vs class-number {class_count}"
        )
    out("agree")
    return 0


def _parse_lpoly(path: str) -> tuple[int, str, tuple[int, ...]]:
    lines = _read_text(path).splitlines()
    if len(lines) < 2 or not lines[0].startswith("lpoly"):
        raise InputError(
            f"{path}: expected header 'lpoly ell=<ell> label=<label>' and a coefficient line"
        )
    ell = None
    label = ""
    try:
        for tok in lines[0].split()[1:]:
            if tok.startswith("ell="):
                ell = int(tok[4:])
            elif tok.startswith("label="):
                label = tok[6:]
        coeffs = tuple(int(x) for x in lines[1].split())
    except ValueError:
        raise InputError(f"{path}: non-integer field in lpoly file")
    if ell is None:
        raise InputError(f"{path}: header has no ell=<ell> field")
    if not coeffs or coeffs[0] != 1:
        raise InputError(f"{path}: numerator must have constant term 1")
    if ip.degree(coeffs) % 2:
        raise InputError(f"{path}: numerator degree must be even (2g)")
    return ell, label, coeffs


def _cmd_verify_product(args, out) -> int:
    g = _load_graph(args.graph)
    header = parse_provenance_header(_read_text(args.graph + ".prov"))
    if header["borel-range"] != "yes":
        raise InputError("graph level structure is not between borel1 and borel0")
    ell = header["ell"]
    ell_h, label_h, p_h = _parse_lpoly(args.lpoly_xh)
    ell_hp, label_hp, p_hp = _parse_lpoly(args.lpoly_xhp)
    if ell_h != ell or ell_hp != ell:
        raise InputError(
            f"lpoly ell mismatch: graph has ell={ell}, files have {ell_h} and {ell_hp}"
        )
    zeta = ihara_zeta(g)
    lhs = FRF(
        list(zeta.factors)
        + [(p_hp, 1), ((1, -1), 1), ((1, -ell), 1), (p_h, -2)]
    )
    rhs = zeta_numerator(g)
    ln, ld = lhs.expand()
    rn, rd = rhs.expand()
    out(f"product  : ({ip.to_str(ln)}) / ({ip.to_str(ld)})")
    out(f"predicted: ({ip.to_str(rn)}) / ({ip.to_str(rd)})")
    if lhs.equals(rhs):
        out("verify-product: PASS")
        return 0
    left = FRF(list(lhs.factors) + [(p, -e) for p, e in rhs.factors])
    n, d = left.expand()
    gcd = ip.primitive_gcd(n, d)
    n2 = ip.try_exact_div(n, gcd) or n
    d2 = ip.try_exact_div(d, gcd) or d
    out(f"leftover factor: ({ip.to_str(n2)}) / ({ip.to_str(d2)})")
    raise MathMismatch("product formula failed")


def _cmd_selftest(args, out) -> int:
    failures = 0

    def check(name, fn):
        nonlocal failures
        try:
            fn()
            out(f"PASS {name}")
        except Exception as e:  # noqa: BLE001 - report and continue
            failures += 1
            out(f"FAIL {name}: {e}")

    def t_g13_series():
        res = build_isogeny_graph(13, 2, "full:1")
        counts = cycle_count_series(ihara_zeta(res.graph), 3)
        assert counts == [2, 6, 8], counts

    def t_g11_zeta():
        res = build_isogeny_graph(11, 3, "full:1")
        z = ihara_zeta(res.graph)
        want = FRF([((1, -1), 1), ((1, 0, -1), -1), ((1, -3), -1), ((1, 1, 3), -1)])
        assert z.equals(want)

    def t_chi():
        rep = borel_euler_characteristics(11, 3, 1)
        assert (rep.chi_plus, rep.chi_minus) == (1, -1)

    def t_pointcount():
        res = build_isogeny_graph(11, 2, "full:1")
        plus, minus = oriented_graphs(res.graph)
        n3 = cycle_count_series(ihara_zeta(res.graph), 3)[2]
        got = modular_point_count(
            11, 2, 3, n3, euler_characteristic(plus), euler_characteristic(minus)
        )
        assert got == 5, got

    check("g13-2-series", t_g13_series)
    check("g11-3-zeta", t_g11_zeta)
    check("chi-11-3-1", t_chi)
    check("pointcount-11-2-3", t_pointcount)
    if failures:
        raise MathMismatch(f"{failures} selftest failures")
    out("selftest: all PASS")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="isozeta")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a supersingular isogeny graph")
    b.add_argument("p", type=int)
    b.add_argument("ell", type=int)
    b.add_argument("level", help="full | full:N | borel0:N | borel1:N")
    b.add_argument("--out", default=None)
    b.add_argument("--seed", type=int, default=None)

    z = sub.add_parser("zeta", help="zeta function of a graph file")
    z.add_argument("graph")
    z.add_argument("--series", type=int, default=0)

    c = sub.add_parser("counts", help="walk and prime counts (TSV)")
    c.add_argument("graph")
    c.add_argument("--max-len", type=int, default=5)

    pr = sub.add_parser("primes", help="list primes by length")
    pr.add_argument("graph")
    pr.add_argument("--max-len", type=int, default=5)

    ch = sub.add_parser("chi", help="Euler characteristics, formula vs graph")
    ch.add_argument("p", type=int)
    ch.add_argument("ell", type=int)
    ch.add_argument("n", type=int)

    pc = sub.add_parser("pointcount", help="#X0(p) over F_{ell^r}, two routes")
    pc.add_argument("p", type=int)
    pc.add_argument("ell", type=int)
    pc.add_argument("r", type=int)

    vp = sub.add_parser("verify-product", help="check the modular-curve product formula")
    vp.add_argument("graph")
    vp.add_argument("lpoly_xh")
    vp.add_argument("lpoly_xhp")

    sub.add_parser("selftest", help="run the bundled example checks")
    return ap


_DISPATCH = {
    "build": _cmd_build,
    "zeta": _cmd_zeta,
    "counts": _cmd_counts,
    "primes": _cmd_primes,
    "chi": _cmd_chi,
    "pointcount": _cmd_pointcount,
    "verify-product": _cmd_verify_product,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    def out(line=""):
        sys.stdout.write(line + "\n")

    try:
        return _DISPATCH[args.command](args, out)
    except MathMismatch as e:
        sys.stdout.write(f"MISMATCH: {e}\n")
        return 1
    except InputError as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    except GuardError as e:
        sys.stderr.write(f"resource guard: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
