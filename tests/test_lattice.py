from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import bond_groups, build_patch
from starkrylov.lattice import build_star

even_sizes = st.integers(min_value=2, max_value=10).map(lambda k: 2 * k)


def test_build_star_4_canonical():
    star = build_star(4)
    assert star.n_sites == 8
    assert len(star.bonds) == 12
    assert star.triangles == ((0, 1, 4), (1, 2, 5), (2, 3, 6), (3, 0, 7))
    assert sorted({a for t in star.triangles for a in t[:2]}) == [0, 1, 2, 3]  # inner ring
    assert tuple(t[2] for t in star.triangles) == (4, 5, 6, 7)  # apexes
    # parity k % 2: (0, 1, 0, 1)
    assert star.triangle_groups() == (star.triangles[0::2], star.triangles[1::2])


def test_build_star_6_counts():
    star = build_star(6)
    assert star.n_sites == 12
    assert len(star.bonds) == 18


@pytest.mark.parametrize("bad", [3, 5, 2, 0, -4, 7])
def test_build_star_rejects_odd_or_small(bad):
    # an even count below 4 has a two-coloring; its loop repeats a bond or has none
    reason = "two-coloring" if bad % 2 else "fewer than 4 triangles"
    with pytest.raises(ValueError, match=f"even.*{reason}"):
        build_star(bad)


@given(even_sizes)
def test_star_degree_invariants(n):
    star = build_star(n)
    degree = Counter()
    for (a, b) in star.bonds:
        degree[a] += 1
        degree[b] += 1
    for site in range(n):  # the inner ring
        assert degree[site] == 4
    for site in range(n, 2 * n):  # the apexes
        assert degree[site] == 2
    assert len(star.bonds) == 3 * n
    assert 3 * len(star.triangles) == len(star.bonds)
    # no duplicate bonds
    assert len({frozenset(b) for b in star.bonds}) == len(star.bonds)


@given(even_sizes)
def test_star_triangle_adjacency(n):
    star = build_star(n)
    tris = [set(t) for t in star.triangles]
    for i in range(n):
        for j in range(i + 1, n):
            shared = len(tris[i] & tris[j])
            neighbors = (j - i) % n in (1, n - 1)
            assert shared == (1 if neighbors else 0)


@given(even_sizes)
def test_star_parity_groups_disjoint(n):
    star = build_star(n)
    even, odd = star.triangle_groups()
    assert len(even) + len(odd) == n
    for group in (even, odd):
        seen = set()
        for t in group:
            assert not seen & set(t)
            seen |= set(t)


@given(even_sizes)
def test_star_connected(n):
    star = build_star(n)
    adj = {s: set() for s in range(star.n_sites)}
    for (a, b) in star.bonds:
        adj[a].add(b)
        adj[b].add(a)
    seen, todo = {0}, [0]
    while todo:
        for nb in adj[todo.pop()]:
            if nb not in seen:
                seen.add(nb)
                todo.append(nb)
    assert len(seen) == star.n_sites


@given(even_sizes)
def test_bond_groups_partition_and_disjoint(n):
    star = build_star(n)
    groups = bond_groups(star)
    all_bonds = [frozenset(b) for g in groups for b in g]
    assert Counter(all_bonds) == Counter(frozenset(b) for b in star.bonds)
    for g in groups:
        seen = set()
        for b in g:
            assert not seen & set(b)
            seen |= set(b)


def test_dimer_and_free_bonds():
    star = build_star(4)
    assert star.dimer_bonds("cw") == ((0, 4), (1, 5), (2, 6), (3, 7))
    assert star.dimer_bonds("ccw") == ((1, 4), (2, 5), (3, 6), (0, 7))
    free = star.free_outer_bonds("cw")
    assert set(map(frozenset, free)) == {
        frozenset(b) for b in [(4, 1), (5, 2), (6, 3), (7, 0)]
    }
    with pytest.raises(ValueError):
        star.dimer_bonds("sideways")


@pytest.mark.parametrize(
    "rows,cols,sites", [(1, 1, 3), (2, 2, 12), (4, 4, 48)]
)
def test_patch_site_counts(rows, cols, sites):
    patch = build_patch(rows, cols)
    assert patch.n_sites == sites


def test_patch_1x1_is_single_triangle():
    patch = build_patch(1, 1)
    assert len(patch.triangles) == 1
    assert len(patch.bonds) == 3
    assert patch.parity == (0,)


@given(st.integers(1, 4), st.integers(1, 4))
def test_patch_bond_belongs_to_one_triangle(rows, cols):
    patch = build_patch(rows, cols)
    bond_count = Counter()
    for (a, b, c) in patch.triangles:
        for e in ((a, b), (a, c), (b, c)):
            bond_count[frozenset(e)] += 1
    assert all(v == 1 for v in bond_count.values())
    assert len(patch.bonds) == 3 * len(patch.triangles)


@given(st.integers(1, 4), st.integers(1, 4))
def test_patch_parity_groups_disjoint(rows, cols):
    patch = build_patch(rows, cols)
    up, down = patch.triangle_groups()
    for group in (up, down):
        seen = set()
        for t in group:
            assert not seen & set(t)
            seen |= set(t)


def test_patch_rejects_empty():
    with pytest.raises(ValueError):
        build_patch(0, 3)
