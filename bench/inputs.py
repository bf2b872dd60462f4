"""Seeded benchmark inputs, made here rather than by `minmaxmst.generate`.

The package only ever sees the edge-list text of an instance, so a change to
the package's own generator cannot change a workload.  Every generator draws
from a `random.Random` the caller seeds; the same seed gives the same text on
any platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Instance:
    """One graph with its weights, as (u, v, weight text) triples in file order."""

    n: int
    edges: tuple[tuple[int, int, str], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v} {w}" for u, v, w in self.edges)
        return "\n".join(lines) + "\n"

    @cached_property
    def integer(self) -> bool:
        """True when every weight is written as an integer (sums are then exact)."""
        return all(w.isdigit() for _, _, w in self.edges)


def integer_weight(high: int):
    return lambda rng: str(rng.randint(0, high))


def one_decimal_weight(rng: random.Random) -> str:
    """A weight in 0.0 .. 999.9 with one decimal, which binary floats cannot hold exactly."""
    return f"{rng.randrange(10000) / 10:.1f}"


def complete(n: int, rng: random.Random, weight) -> Instance:
    """K_n with its pairs in lexicographic order, so all weightings share one graph."""
    return Instance(
        n,
        tuple(
            (u, v, weight(rng)) for u in range(1, n + 1) for v in range(u + 1, n + 1)
        ),
    )


def sparse(n: int, rng: random.Random, weight) -> Instance:
    """Random connected graph with n-1 .. 3n-1 edges, shuffled edge order and ends.

    A random labelled tree (each vertex, in a random order, joins an earlier
    one) makes it connected; random extra pairs are added on top.
    """
    order = list(range(1, n + 1))
    rng.shuffle(order)
    pairs: set[tuple[int, int]] = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        pairs.add((min(u, v), max(u, v)))
    target = min(n * (n - 1) // 2, n - 1 + rng.randint(0, 2 * n))
    while len(pairs) < target:
        u, v = rng.sample(range(1, n + 1), 2)
        pairs.add((min(u, v), max(u, v)))
    edges = sorted(pairs)
    rng.shuffle(edges)
    return Instance(
        n,
        tuple(
            (v, u, weight(rng)) if rng.random() < 0.5 else (u, v, weight(rng))
            for u, v in edges
        ),
    )


def induced(inst: Instance, k: int) -> Instance:
    """The sub-instance on vertices 1..k (for K_n that is K_k with the same weights)."""
    return Instance(k, tuple(e for e in inst.edges if e[0] <= k and e[1] <= k))
