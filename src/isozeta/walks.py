"""Brute-force ground truth for walk and prime counts.

Walks are edge sequences with s(y_{i+1}) = t(y_i); non-backtracking means
y_{i+1} != J(y_i), and a closed walk is tailless when y_1 != J(y_last).
Primes are rotation classes of primitive such cycles, deduplicated by
their lexicographically least rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardError, InputError
from .graphs import IsogenyGraph, out_degrees

DEFAULT_NODE_CAP = 10**8


def _estimate(g: IsogenyGraph, length: int) -> int:
    dmax = max(out_degrees(g), default=0)
    return g.num_edges * max(1, dmax) ** max(0, length - 1) * max(1, length)


def _check_cap(g: IsogenyGraph, length: int, node_cap: int) -> None:
    if _estimate(g, length) > node_cap:
        raise GuardError(
            f"walk enumeration of length {length} would explore an estimated "
            f"{_estimate(g, length)} nodes (cap {node_cap}); raise node_cap to force"
        )


def count_closed_walks(g: IsogenyGraph, length: int, node_cap: int = DEFAULT_NODE_CAP) -> int:
    """Number of closed walks of the given length that are non-backtracking
    at every step including the wraparound (tailless)."""
    if length < 1:
        raise InputError("walk length must be >= 1")
    _check_cap(g, length, node_cap)
    out = g.out_edges()
    total = 0
    for first in range(g.num_edges):
        total += _dfs_count(g, out, first, length)
    return total


def _dfs_count(g, out, first, length) -> int:
    start_v = g.source(first)

    def rec(last, depth):
        if depth == length:
            if g.target(last) != start_v:
                return 0
            # wraparound: the step last -> first must be non-backtracking,
            # which is also the tailless condition first != J(last)
            return 1 if first != g.dual[last] else 0
        count = 0
        jlast = g.dual[last]
        for nxt in out[g.target(last)]:
            if nxt != jlast:
                count += rec(nxt, depth + 1)
        return count

    return rec(first, 1)


@dataclass(frozen=True)
class PrimeClass:
    canonical_rotation: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.canonical_rotation)


def _canonical_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def _is_power(seq: tuple[int, ...]) -> bool:
    n = len(seq)
    for d in range(1, n):
        if n % d == 0 and seq == seq[:d] * (n // d):
            return True
    return False


def enumerate_primes(
    g: IsogenyGraph, max_len: int, node_cap: int = DEFAULT_NODE_CAP
) -> tuple[dict[int, list[PrimeClass]], dict[int, int]]:
    """All primes of length <= max_len, grouped by length, plus the c_r table.

    Each prime is reported once via its canonical rotation.  The DFS only
    extends walks whose edges stay >= the starting edge, so every class is
    generated from its minimal edge (necklace pruning); repeated-edge cycles
    are deduplicated through the canonical-rotation set.
    """
    if max_len < 1:
        raise InputError("max_len must be >= 1")
    _check_cap(g, max_len, node_cap)
    out = g.out_edges()
    found: set[tuple[int, ...]] = set()

    def rec(first, walk):
        last = walk[-1]
        if g.target(last) == g.source(first) and first != g.dual[last]:
            seq = tuple(walk)
            if not _is_power(seq):
                canon = _canonical_rotation(seq)
                if _rotations_nonbacktracking(g, canon):
                    found.add(canon)
        if len(walk) == max_len:
            return
        jlast = g.dual[last]
        for nxt in out[g.target(last)]:
            if nxt != jlast and nxt >= first:
                walk.append(nxt)
                rec(first, walk)
                walk.pop()

    for first in range(g.num_edges):
        rec(first, [first])

    by_len: dict[int, list[PrimeClass]] = {r: [] for r in range(1, max_len + 1)}
    for seq in sorted(found):
        by_len[len(seq)].append(PrimeClass(seq))
    c_table = {r: len(by_len[r]) for r in range(1, max_len + 1)}
    return by_len, c_table


def _rotations_nonbacktracking(g: IsogenyGraph, seq: tuple[int, ...]) -> bool:
    n = len(seq)
    for i in range(n):
        if seq[(i + 1) % n] == g.dual[seq[i]]:
            return False
    return True


def nr_from_primes(c_table: dict[int, int], r: int) -> int:
    """N_r = sum over d | r of d * c_d."""
    total = 0
    for d in range(1, r + 1):
        if r % d == 0:
            if d not in c_table:
                raise InputError(f"missing c_{d} entry needed for N_{r}")
            total += d * c_table[d]
    return total


def dual_prime(g: IsogenyGraph, prime: PrimeClass) -> PrimeClass:
    """The reversed prime (J y_r, ..., J y_1), canonically rotated."""
    seq = tuple(g.dual[y] for y in reversed(prime.canonical_rotation))
    return PrimeClass(_canonical_rotation(seq))
