"""Star-plaquette geometry.

A star plaquette is a closed loop of N corner-sharing triangles (N even).
Sites are numbered canonically: the inner ring is 0..N-1, the apex of
triangle k is N+k, and triangle k is the triple (k, (k+1) mod N, N+k) with
parity k mod 2.  Every other module relies on this numbering.  The triangle
parity classes (``triangle_groups``) are the two groups of the
triangle-by-triangle scheme; the four site-disjoint bond groups of the
bond-by-bond scheme live in ``tests/oracles.py``.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StarPlaquette:
    n_triangles: int
    n_sites: int
    bonds: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...]
    rotation: tuple[int, ...]  # site k -> rotation[k]: triangle k onto triangle k+1

    @property
    def outer_bonds(self) -> tuple[tuple[int, int], ...]:
        """Bonds between the inner ring and the apexes, in triangle order."""
        n = self.n_triangles
        out = []
        for k in range(n):
            out.append((k, n + k))
            out.append(((k + 1) % n, n + k))
        return tuple(out)

    def dimer_bonds(self, orientation: str = "cw") -> tuple[tuple[int, int], ...]:
        """One outer bond per triangle forming a pinwheel covering."""
        n = self.n_triangles
        if orientation == "cw":
            return tuple((k, n + k) for k in range(n))
        if orientation == "ccw":
            return tuple(((k + 1) % n, n + k) for k in range(n))
        raise ValueError(f"orientation must be 'cw' or 'ccw', got {orientation!r}")

    def free_outer_bonds(self, orientation: str = "cw") -> tuple[tuple[int, int], ...]:
        """Outer bonds not covered by the pinwheel dimers of the given orientation."""
        dimers = set(map(frozenset, self.dimer_bonds(orientation)))
        return tuple(b for b in self.outer_bonds if frozenset(b) not in dimers)

    def triangle_groups(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """(even, odd) parity classes; triangles within a class share no site."""
        even = tuple(t for k, t in enumerate(self.triangles) if k % 2 == 0)
        odd = tuple(t for k, t in enumerate(self.triangles) if k % 2 == 1)
        return even, odd


def build_star(n_triangles: int) -> StarPlaquette:
    """Build the canonical star plaquette with ``n_triangles`` triangles.

    Requires an even count >= 4: an odd loop of corner-sharing triangles
    admits no two-coloring, so the triangle-by-triangle evolution scheme
    would not decompose into two commuting groups.
    """
    if n_triangles < 4 or n_triangles % 2 != 0:
        reason = ("an odd triangle loop has no two-coloring" if n_triangles % 2 else
                  "a loop of fewer than 4 triangles lists a bond twice or has no bonds")
        raise ValueError(f"n_triangles must be an even integer >= 4 (got {n_triangles}): {reason}")
    n = n_triangles
    triangles = tuple((k, (k + 1) % n, n + k) for k in range(n))
    bonds = []
    for (a, b, c) in triangles:
        bonds += [(a, b), (a, c), (b, c)]
    return StarPlaquette(
        n_triangles=n,
        n_sites=2 * n,
        bonds=tuple(bonds),
        triangles=triangles,
        rotation=tuple((k + 1) % n for k in range(n)) + tuple(n + (k + 1) % n for k in range(n)),
    )
