import subprocess
import sys

import pytest

import isozeta.intpoly as ip
from isozeta.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_graph(tmp_path, name, p, ell, level):
    from isozeta.graphs import format_graph
    from isozeta.ssgraph import build_isogeny_graph, format_provenance

    res = build_isogeny_graph(p, ell, level)
    path = tmp_path / name
    path.write_text(format_graph(res.graph), encoding="utf-8")
    (tmp_path / (name + ".prov")).write_text(format_provenance(res), encoding="utf-8")
    return str(path)


@pytest.fixture
def g13_file(tmp_path):
    return _write_graph(tmp_path, "g13.aig", 13, 2, "full:1")


@pytest.fixture
def g11_file(tmp_path):
    return _write_graph(tmp_path, "g11.aig", 11, 3, "full:1")


def _write_lpoly(path, ell, label, coeffs):
    path.write_text(
        f"lpoly ell={ell} label={label}\n" + " ".join(str(c) for c in coeffs) + "\n",
        encoding="utf-8",
    )
    return str(path)


def test_build_outputs(capsys, tmp_path):
    path = tmp_path / "out.aig"
    code, out, _ = run(capsys, "build", "13", "2", "full:1", "--out", str(path))
    assert code == 0
    assert "vertices 1 edges 3" in out
    assert path.exists()
    assert (tmp_path / "out.aig.prov").exists()


def test_build_deterministic_bytes(capsys, tmp_path):
    p1, p2 = tmp_path / "a.aig", tmp_path / "b.aig"
    assert main(["build", "11", "3", "full:1", "--out", str(p1)]) == 0
    assert main(["build", "11", "3", "full:1", "--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.aig.prov").read_bytes() == (tmp_path / "b.aig.prov").read_bytes()


def test_zeta_command(capsys, g13_file):
    code, out, _ = run(capsys, "zeta", g13_file, "--series", "3")
    assert code == 0
    assert "series: 2 6 8" in out
    assert "coeffs" in out and "numerator:" in out and "denominator:" in out


def test_zeta_empty_graph(capsys, tmp_path):
    path = tmp_path / "empty.aig"
    path.write_text("AIG v1\nvertices 1\nedges 0\nL 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "zeta", str(path))
    assert code == 0
    assert "numerator: 1" in out
    assert "denominator: 1" in out


def test_counts_tsv(capsys, g13_file):
    code, out, _ = run(capsys, "counts", g13_file, "--max-len", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r\tN_r\tc_r"
    assert lines[1] == "1\t2\t2"
    assert lines[2] == "2\t6\t2"
    assert lines[3] == "3\t8\t2"


def test_primes_listing(capsys, g13_file):
    code, out, _ = run(capsys, "primes", g13_file, "--max-len", "2")
    assert code == 0
    assert out.startswith("length 1:")


def test_chi_command(capsys):
    code, out, _ = run(capsys, "chi", "11", "3", "1")
    assert code == 0
    assert "chi+ 1 chi- -1" in out
    assert "agree" in out


def test_pointcount_command(capsys):
    code, out, _ = run(capsys, "pointcount", "11", "2", "3")
    assert code == 0
    assert "graph route: 5" in out
    assert "class-number route: 5" in out
    assert "I_3: -31(h=3) -23(h=3)" in out or "I_3: -23(h=3) -31(h=3)" in out


def test_pointcount_weights_regime(capsys):
    code, out, _ = run(capsys, "pointcount", "5", "2", "4")
    assert code == 0
    assert "class-number route disabled" in out


def test_verify_product_g11(capsys, g11_file, tmp_path):
    xh = _write_lpoly(tmp_path / "x0_1.lpoly", 3, "X0(1)", (1,))
    xhp = _write_lpoly(tmp_path / "x0_11.lpoly", 3, "X0(11)", (1, 1, 3))
    code, out, _ = run(capsys, "verify-product", g11_file, xh, xhp)
    assert code == 0
    assert "PASS" in out


def test_verify_product_level_structure(capsys, tmp_path):
    path = _write_graph(tmp_path, "g13b15.aig", 13, 3, "borel1:5")
    f1, f2, f3 = (1, 2, 3), (1, -2, 4, -6, 9), (1, 0, 4, 0, 9)
    f4 = (1, 0, -6, 0, 11, 0, -8, 0, 99, 0, -486, 0, 729)
    f = ip.mul(ip.mul(f1, f2), ip.mul(f3, f4))
    xh = _write_lpoly(tmp_path / "x1_5.lpoly", 3, "X1(5)", (1,))
    xhp = _write_lpoly(tmp_path / "big.lpoly", 3, "X(B1(5)xB0(13))", f)
    code, out, _ = run(capsys, "verify-product", path, xh, xhp)
    assert code == 0
    assert "PASS" in out


def test_verify_product_mismatch_exit_1(capsys, g11_file, tmp_path):
    xh = _write_lpoly(tmp_path / "x0_1.lpoly", 3, "X0(1)", (1,))
    bad = _write_lpoly(tmp_path / "bad.lpoly", 3, "bogus", (1, 2, 3))
    code, out, _ = run(capsys, "verify-product", g11_file, xh, bad)
    assert code == 1
    assert "leftover factor" in out


def test_verify_product_wrong_ell_exit_2(capsys, g11_file, tmp_path):
    xh = _write_lpoly(tmp_path / "x0_1.lpoly", 2, "X0(1)", (1,))
    xhp = _write_lpoly(tmp_path / "x0_11.lpoly", 2, "X0(11)", (1, 2, 2))
    code, _, err = run(capsys, "verify-product", g11_file, xh, xhp)
    assert code == 2
    assert "mismatch" in err


def test_bad_input_exit_2(capsys, tmp_path):
    missing = str(tmp_path / "nope.aig")
    code, _, err = run(capsys, "zeta", missing)
    assert code == 2
    code, _, err = run(capsys, "build", "9", "2", "full:1")
    assert code == 2


def test_guard_exit_3(capsys):
    code, _, err = run(capsys, "build", "11", "2", "borel0:13")
    assert code == 3
    assert "guard" in err or "degree" in err


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") >= 4


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "isozeta", "chi", "13", "2", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "chi+ 0 chi- -1" in proc.stdout


def test_lpoly_validation(capsys, g11_file, tmp_path):
    odd = _write_lpoly(tmp_path / "odd.lpoly", 3, "odd", (1, 1))
    xh = _write_lpoly(tmp_path / "x.lpoly", 3, "x", (1,))
    code, _, err = run(capsys, "verify-product", g11_file, odd, xh)
    assert code == 2
    notone = _write_lpoly(tmp_path / "notone.lpoly", 3, "n", (2, 1, 3))
    code, _, err = run(capsys, "verify-product", g11_file, xh, notone)
    assert code == 2


def test_exit_codes_without_traceback(g11_file, tmp_path):
    # each row: argv, expected exit code; 2 is an input error, 3 a guard
    no_prov = tmp_path / "no_prov.aig"
    no_prov.write_text((tmp_path / "g11.aig").read_text(encoding="utf-8"), encoding="utf-8")
    xh = _write_lpoly(tmp_path / "x0_1.lpoly", 3, "X0(1)", (1,))
    body = tmp_path / "body.lpoly"
    body.write_text("lpoly ell=3 label=b\n1 x 3\n", encoding="utf-8")
    ell = tmp_path / "ell.lpoly"
    ell.write_text("lpoly ell=three label=e\n1 1 3\n", encoding="utf-8")
    table = [
        (["pointcount", "13", "2", "0"], 2),
        (["verify-product", g11_file, xh, str(body)], 2),
        (["verify-product", g11_file, xh, str(ell)], 2),
        (["verify-product", str(no_prov), xh, xh], 2),
        (["chi", "5", "7", "8"], 3),
        (["chi", "13", "7", "8"], 3),
    ]
    for argv, code in table:
        proc = subprocess.run(
            [sys.executable, "-m", "isozeta", *argv], capture_output=True, text=True
        )
        assert proc.returncode == code, (argv, proc.stdout, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
