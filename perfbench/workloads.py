"""Seeded jobs for each workload, and the correctness gate that checks them.

A job is one user-level computation: ``isozeta`` commands run through
``isozeta.cli.main`` in this process, or a short sequence of public library
calls.  ``Job.run`` is the timed part; ``Job.check`` is the gate, which
compares the outputs against an independent oracle and returns ``None``
or a ``Failure``.  Jobs come in cycles: every cycle of a workload holds the
same bands in the same order, so whole cycles carry the same amount of work
and the same failure share whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

from isozeta import cli, curves, fields, graphs, quadforms, ssgraph, walks, zeta
from isozeta.errors import InputError
from isozeta.graphs import IsogenyGraph

# the lru caches that start empty in every isozeta invocation
CACHES = (curves.supersingular_j_invariants, curves._square_values, fields.find_irreducible)


def clear_caches() -> None:
    for cache in CACHES:
        cache.cache_clear()


class Failure(NamedTuple):
    kind: str  # "traceback", "exit" or "mismatch"
    what: str


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Failure | None]


def run_cli(*argv) -> tuple[int, list[str]]:
    """One ``isozeta`` invocation; returns its exit code and stdout lines.
    Exceptions that escape ``main`` propagate, as they would end the
    command with a traceback."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as e:  # argparse refusal
            rc = e.code if isinstance(e.code, int) else 2
    return rc, out.getvalue().splitlines()


def run_steps(*commands) -> list[tuple[int, list[str]]]:
    """Run commands in order, stopping after the first non-zero exit."""
    results = []
    for argv in commands:
        results.append(run_cli(*argv))
        if results[-1][0] != 0:
            break
    return results


def _exit_failure(results, expected: int) -> Failure | None:
    for i, (rc, _) in enumerate(results):
        if rc != 0:
            return Failure("exit", f"command {i + 1} exited {rc}")
    if len(results) != expected:
        return Failure("exit", "missing command output")
    return None


def _series(lines: list[str]) -> list[int] | None:
    for line in lines:
        if line.startswith("series:"):
            return [int(x) for x in line.split()[1:]]
    return None


# -- prime-sweep ----------------------------------------------------------------

# (p, ell) bands, one job per band and cycle, in this order.  Members of a
# band cost about the same, so the seed barely changes the work.  The top
# two bands pair p = 2 (mod 3) primes >= 227, where the build currently
# fails, with a p = 1 (mod 3) prime of similar cost.
PRIME_BANDS = (
    ((101, 2), (101, 3), (103, 2), (103, 3)),
    ((127, 2), (127, 3), (131, 2), (131, 3)),
    ((149, 3), (151, 2)),
    ((227, 2), (227, 3), (233, 2), (233, 3)),
    ((229, 2),),
)


def _pointcount_job(p: int, ell: int) -> Job:
    r = 1
    while ell ** (r + 1) < p:
        r += 1

    def run():
        return run_steps(("pointcount", p, ell, r))

    def check(results):
        failed = _exit_failure(results, 1)
        if failed:
            return failed
        lines = results[0][1]
        if not lines or lines[-1] != "agree":
            return Failure("mismatch", "agree")
        return None

    return Job(f"pointcount {p} {ell} {r}", run, check)


class PrimeSweep:
    name = "prime-sweep"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        pass

    def cycle(self, index: int) -> list[Job]:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        return [_pointcount_job(*rng.choice(band)) for band in PRIME_BANDS]


# -- level-build ----------------------------------------------------------------

# (p, ell, level) pools of similar cost, one job per band and cycle.  Working
# fields have degree 4, 8 or 12 (no p < 100 with N < 10 reaches the guard of
# 16).  The p = 43 band keeps ell and N where the repository's tests check
# borel_euler_characteristics against the graph (ell in {2, 3}, N <= 4).
# (11, 2, borel1:7) is a band of one, whose L has 3-cycles, so the seed
# only sets its rep_seed; it is also the middle band by cost, which keeps
# the median job time independent of the seed.  Every other band has only
# 1- and 2-cycles in L.
LEVEL_BANDS = (
    ((17, 2, "borel0:5"), (17, 3, "borel0:5"), (17, 2, "borel1:5")),
    ((43, 2, "borel0:3"), (43, 3, "borel0:2"), (43, 3, "borel0:4")),
    ((11, 2, "borel1:7"),),
    ((11, 5, "borel0:7"), (11, 5, "borel0:9")),
    ((11, 7, "borel0:3"), (11, 7, "borel1:4")),
)
LEVEL_SERIES = 8


def _level_job(p: int, ell: int, level: str, rep_seed: int, path: Path) -> Job:
    kind, n = level.split(":")
    n = int(n)

    def run():
        return run_steps(
            ("build", p, ell, level, "--out", path, "--seed", rep_seed),
            ("zeta", path, "--series", LEVEL_SERIES),
        )

    def check(results):
        failed = _exit_failure(results, 2)
        if failed:
            return failed
        g = graphs.parse_graph(path.read_text(encoding="utf-8"))
        if f"vertices {g.num_vertices} edges {g.num_edges}" not in results[0][1]:
            return Failure("mismatch", "build summary")
        series = _series(results[1][1])
        if series is None or series != zeta.hashimoto_series(g, LEVEL_SERIES):
            return Failure("mismatch", "series")
        if kind == "borel0":
            if g.num_vertices != quadforms.borel_vertex_count(p, ell, n):
                return Failure("mismatch", "vertices")
            rep = quadforms.borel_euler_characteristics(p, ell, n)
            plus, minus = graphs.oriented_graphs(g)
            got = (graphs.euler_characteristic(plus), graphs.euler_characteristic(minus))
            if got != (rep.chi_plus, rep.chi_minus):
                return Failure("mismatch", "euler characteristics")
        return None

    return Job(f"build {p} {ell} {level}", run, check)


class LevelBuild:
    name = "level-build"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        pass

    def cycle(self, index: int) -> list[Job]:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        jobs = []
        for b, band in enumerate(LEVEL_BANDS):
            p, ell, level = rng.choice(band)
            path = self.workdir / f"level_{b}.aig"
            jobs.append(_level_job(p, ell, level, rng.randrange(2**31), path))
        return jobs


# -- zeta-oracles ---------------------------------------------------------------

# Level graphs of 40-60 vertices, built in set-up; their zeta functions cost
# far more than anything else in a job.  The two borel1:7 graphs have
# 3-cycles in L.
ORACLE_GRAPHS = ((41, 2, "borel1:5"), (29, 2, "borel1:7"), (61, 2, "borel1:5"), (31, 2, "borel1:7"))
ORACLE_SERIES = 8


def _oracle_job(path: Path, label: str) -> Job:
    def run():
        return run_steps(
            ("zeta", path, "--series", ORACLE_SERIES),
            ("counts", path, "--max-len", ORACLE_SERIES),
        )

    def check(results):
        failed = _exit_failure(results, 2)
        if failed:
            return failed
        series = _series(results[0][1])
        rows = [line.split("\t") for line in results[1][1][1:]]
        walks_column = [int(row[1]) for row in rows]
        if series is None or series != walks_column:
            return Failure("mismatch", "series")
        return None

    return Job(label, run, check)


class ZetaOracles:
    name = "zeta-oracles"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.paths: list[tuple[Path, str]] = []

    def setup(self) -> None:
        rng = random.Random(f"{self.name}/{self.seed}")
        self.paths = []
        for p, ell, level in ORACLE_GRAPHS:
            clear_caches()
            res = ssgraph.build_isogeny_graph(p, ell, level, rep_seed=rng.randrange(2**31))
            path = self.workdir / f"oracle_{p}_{ell}_{level.replace(':', '_')}.aig"
            path.write_text(graphs.format_graph(res.graph), encoding="utf-8")
            self.paths.append((path, f"zeta+counts {p} {ell} {level}"))

    def cycle(self, index: int) -> list[Job]:
        return [_oracle_job(path, label) for path, label in self.paths]


# -- generic-small --------------------------------------------------------------

# A fixed pool of random_graph graphs (pool seeds 0..GENERIC_POOL-1), so the
# share of graphs the determinant formula refuses or gets wrong is the same
# for every workload seed.  The seed relabels vertices and edges and orders
# the pool in each cycle.
GENERIC_POOL = 300
GENERIC_SERIES = 6


def relabel(g: IsogenyGraph, rng: random.Random) -> IsogenyGraph:
    """An isomorphic copy of g with vertices and edges renumbered."""
    vperm = list(range(g.num_vertices))
    eperm = list(range(g.num_edges))
    rng.shuffle(vperm)
    rng.shuffle(eperm)
    edges = [None] * g.num_edges
    dual = [0] * g.num_edges
    for y, (s, t) in enumerate(g.edges):
        edges[eperm[y]] = (vperm[s], vperm[t])
        dual[eperm[y]] = eperm[g.dual[y]]
    diamond = [0] * g.num_vertices
    for x, lx in enumerate(g.diamond):
        diamond[vperm[x]] = vperm[lx]
    return IsogenyGraph(g.num_vertices, tuple(edges), tuple(dual), tuple(diamond))


def _degree_commutes_with_diamond(g: IsogenyGraph) -> bool:
    degs = [0] * g.num_vertices
    for s, _ in g.edges:
        degs[s] += 1
    return all(degs[lx] == degs[x] for x, lx in enumerate(g.diamond))


@dataclass
class _GenericOut:
    valid: bool
    reparsed: IsogenyGraph | None = None
    series: list[int] | None = None
    refused: bool = False
    hashimoto: list[int] | None = None
    walks: list[int] | None = None


def generic_job(g: IsogenyGraph, label: str) -> Job:
    def run():
        if not graphs.validate(g).ok:
            return _GenericOut(valid=False)
        plus, minus = graphs.oriented_graphs(g)
        graphs.euler_characteristic(plus)
        graphs.euler_characteristic(minus)
        out = _GenericOut(valid=True, reparsed=graphs.parse_graph(graphs.format_graph(g)))
        try:
            z = zeta.ihara_zeta(g)
        except InputError:
            out.refused = True
        else:
            out.series = zeta.cycle_count_series(z, GENERIC_SERIES)
        out.hashimoto = zeta.hashimoto_series(g, GENERIC_SERIES)
        out.walks = [walks.count_closed_walks(g, r) for r in range(1, GENERIC_SERIES + 1)]
        return out

    def check(out: _GenericOut):
        if not out.valid:
            return Failure("mismatch", "axioms")
        if out.reparsed != g:
            return Failure("mismatch", "round trip")
        if out.hashimoto != out.walks:
            return Failure("mismatch", "oracles")
        if out.refused:
            # the documented refusal: D and L do not commute
            return Failure("mismatch", "refusal") if _degree_commutes_with_diamond(g) else None
        if out.series != out.hashimoto:
            return Failure("mismatch", "series")
        return None

    return Job(label, run, check)


class GenericSmall:
    name = "generic-small"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.pool: list[IsogenyGraph] = []

    def setup(self) -> None:
        rng = random.Random(f"{self.name}/{self.seed}")
        self.pool = [
            relabel(graphs.random_graph(random.Random(i), max_vertices=5), rng)
            for i in range(GENERIC_POOL)
        ]

    def cycle(self, index: int) -> list[Job]:
        order = list(range(len(self.pool)))
        random.Random(f"{self.name}/{self.seed}/{index}").shuffle(order)
        return [generic_job(self.pool[i], f"graph {i}") for i in order]


WORKLOADS = {w.name: w for w in (PrimeSweep, LevelBuild, ZetaOracles, GenericSmall)}


# -- running a job ----------------------------------------------------------------


class Outcome(NamedTuple):
    label: str
    seconds: float
    failure: Failure | None


def execute(job: Job, tracer=None, job_id: int | None = None) -> Outcome:
    """Run one job from cold caches, time it, and pass it through the gate."""
    clear_caches()
    if tracer is not None:
        tracer.job = job_id
    failure = None
    start = perf_counter()
    try:
        out = job.run()
    except Exception as e:  # an escaped exception fails this job, not the run
        failure = Failure("traceback", f"{type(e).__name__}: {e}"[:200])
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.job = None
    if failure is None:
        try:
            failure = job.check(out)
        except (InputError, ValueError, IndexError) as e:
            failure = Failure("mismatch", f"unreadable output: {type(e).__name__}")
    return Outcome(job.label, seconds, failure)


# -- gate self-check ------------------------------------------------------------


def _perturb_dual(g: IsogenyGraph) -> IsogenyGraph | None:
    """g with one dual pointer moved to an edge that breaks axiom 1."""
    for y in range(g.num_edges):
        for z in range(g.num_edges):
            if g.source(z) != g.target(y):
                dual = list(g.dual)
                dual[y] = z
                return IsogenyGraph(g.num_vertices, g.edges, tuple(dual), g.diamond)
    return None


def gate_selfcheck(workdir: Path) -> dict[str, bool]:
    """Feed the gate two inputs it must reject.  Each entry is True when the
    input was counted as a failed job."""
    for i in range(GENERIC_POOL):
        g = graphs.random_graph(random.Random(i), max_vertices=5)
        bad = _perturb_dual(g)
        if bad is not None:
            break
    lines = graphs.format_graph(g).splitlines()
    path = workdir / "truncated.aig"
    path.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
    return {
        "perturbed dual map": execute(generic_job(bad, "perturbed")).failure is not None,
        "truncated .aig": execute(_oracle_job(path, "truncated")).failure is not None,
    }
