"""Canonical labeling by individualization-refinement.

Every node of the search tree is an ordered vertex partition refined to an
equitable one; a node's children individualize each vertex of its first
non-singleton cell in turn.  A leaf (a discrete partition) orders the
vertices, its certificate is the adjacency masks relabeled in that order,
and the canonical form is the least certificate.  Automorphisms prune the
tree: twin transpositions seed the generators, and every leaf whose
certificate equals the first or the best leaf's adds one (``_canonical``
returns them as full permutations of the canonical labels, so vertex
augmentation can extend a canonical form by one neighbour mask per orbit
without a relabeling step, and they generate the whole automorphism group,
so it can count a class unlabeled).  When every root cell is a set of
twins, no search runs.  A child is skipped when a generator fixing the
node's individualized prefix maps it onto a sibling already searched, and
after an automorphism the search jumps back to the level where the two
leaves' paths part (McKay & Piperno, "Practical graph isomorphism, II",
2014).  The hub joins of cycles, circulants and matchings the paper is
about label in at most tens of milliseconds up to order 62; a graph whose
refinement stalls without automorphisms to prune (a rigid regular graph)
costs one subtree per vertex of the stalled cell.  The search state is
passed explicitly between module functions: nested closures that call
each other would leave a reference cycle per labeling, and ``qx`` runs
with the cyclic garbage collector off (``cli``).
"""

from __future__ import annotations

from collections.abc import Sequence

from .graphs import Graph, graph6_encode


def _refine(adj: Sequence[int], cells: list[list[int]], queue: list[int]) -> list[list[int]]:
    """Split cells by neighbour counts into each splitter mask until equitable.

    ``queue`` holds the splitter masks; it grows while it is walked.  A
    split cell is replaced in place by its fragments in increasing count
    order, and all of them but the first largest become splitters.  Every
    step depends only on cell positions and counts, so the result commutes
    with relabeling.
    """
    n = len(adj)
    for s in queue:
        if len(cells) == n:
            break
        out = []
        for cell in cells:
            if len(cell) > 1:
                split: dict[int, list[int]] = {}
                for v in cell:
                    c = (adj[v] & s).bit_count()
                    if c in split:
                        split[c].append(v)
                    else:
                        split[c] = [v]
                if len(split) > 1:
                    frags = [split[c] for c in sorted(split)]
                    big = max(frags, key=len)
                    out += frags
                    queue += [sum(1 << v for v in f) for f in frags if f is not big]
                    continue
            out.append(cell)
        cells = out
    return cells


def refinement_cells(n: int, adj: Sequence[int]) -> list[list[int]]:
    """Equitable vertex partition refined from the degree partition.

    Cells come back in an invariant order: by decreasing degree, then by
    the splits of ``_refine``.
    """
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(adj[v].bit_count(), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    return _refine(adj, cells, [sum(1 << v for v in cell) for cell in cells])


def _twin_generators(n: int, adj: Sequence[int]) -> list[tuple[int, list[tuple[int, int]]]]:
    """Transpositions of twins u, v (N(u) minus v equals N(v) minus u).

    Non-adjacent twins share N(u), adjacent ones N[u]; chaining each class
    generates all its permutations.  A generator is (support mask, pairs
    v -> image of v), listing both directions of the swap.
    """
    gens = []
    for closed in (0, 1):
        last: dict[int, int] = {}
        for v in range(n):
            key = adj[v] | closed << v
            if key in last:
                u = last[key]
                gens.append((1 << u | 1 << v, [(u, v), (v, u)]))
            last[key] = v
    return gens


def _certificate(adj: Sequence[int], lab: list[int]) -> tuple[int, ...]:
    """Adjacency masks of the graph relabeled lab[i] -> i."""
    bit = [0] * len(lab)
    for i, v in enumerate(lab):
        bit[v] = 1 << i
    rows = []
    for v in lab:
        m, row = adj[v], 0
        while m:
            low = m & -m
            row |= bit[low.bit_length() - 1]
            m ^= low
        rows.append(row)
    return tuple(rows)


def _find(orbit: list[int], v: int) -> int:
    while orbit[v] != v:
        orbit[v] = v = orbit[orbit[v]]
    return v


def _search(adj: Sequence[int], gens: list, path: list[int], leaves: list, cells: list[list[int]]) -> int:
    """Search below a node; return the level the search resumes at.  ``leaves``
    holds the first and the least leaf so far, as (lab, cert, path)."""
    n, k = len(adj), len(path)
    if len(cells) == n:
        lab = [cell[0] for cell in cells]
        cert = _certificate(adj, lab)
        if not leaves:
            leaves += [(lab, cert, path.copy())] * 2
            return k - 1
        for other_lab, other_cert, other_path in leaves:
            if cert == other_cert:
                # lab[i] -> other_lab[i] is an automorphism; resume where the paths part
                gamma = [(v, w) for v, w in zip(lab, other_lab) if v != w]
                gens.append((sum(1 << v for v, _ in gamma), gamma))
                return next(d for d, (v, w) in enumerate(zip(path, other_path)) if v != w)
        if cert < leaves[1][1]:
            leaves[1] = lab, cert, path.copy()
        return k - 1
    fixed = sum(1 << v for v in path)
    ti = next(i for i, cell in enumerate(cells) if len(cell) > 1)
    target = cells[ti]
    orbit: list[int] = []  # union-find under the generators fixing the prefix
    used = 0
    searched: list[int] = []
    for w in target:
        for supp, pairs in gens[used:]:
            if not supp & fixed:
                if not orbit:
                    orbit[:] = range(n)
                for a, b in pairs:
                    orbit[_find(orbit, a)] = _find(orbit, b)
        used = len(gens)
        if orbit:
            r = _find(orbit, w)
            if any(_find(orbit, x) == r for x in searched):
                continue
        searched.append(w)
        child = cells[:ti] + [[w], [x for x in target if x != w]] + cells[ti + 1:]
        path.append(w)
        back = _search(adj, gens, path, leaves, _refine(adj, child, [1 << w]))
        path.pop()
        if back < k:
            return back
    return k - 1


def _canonical(n: int, adj: Sequence[int]) -> tuple[tuple[int, ...], list[list[int]]]:
    """Least leaf's certificate, and automorphisms generating the whole
    automorphism group as full permutations of its canonical labels
    (i -> image of i): the twin transpositions and one per leaf whose
    certificate equals the first or the best leaf's.  When every cell of the
    root partition is a set of twins (a discrete partition included), every
    leaf is the first one with twins swapped, so the first is the least and
    the twin transpositions generate the group: no search runs.
    """
    root = refinement_cells(n, adj)
    gens = _twin_generators(n, adj)
    if all(adj[v] & ~(1 << cell[0]) == adj[cell[0]] & ~(1 << v) for cell in root for v in cell[1:]):
        lab = [v for cell in root for v in cell]
        cert = _certificate(adj, lab)
    else:
        leaves: list = []
        _search(adj, gens, [], leaves, root)
        lab, cert, _ = leaves[1]
    pos = [0] * n  # vertex -> canonical label
    for i, v in enumerate(lab):
        pos[v] = i
    perms = []
    for _, pairs in gens:
        perm = list(range(n))
        for v, w in pairs:
            perm[pos[v]] = pos[w]
        perms.append(perm)
    return cert, perms


def canonical_key(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Hashable isomorphism invariant: order plus canonical adjacency masks."""
    return g.n, _canonical(g.n, g.adj)[0]


def canonical_graph6(g: Graph) -> str:
    return graph6_encode(Graph(*canonical_key(g)))
