"""Canonical labeling by individualization-refinement, and isomorph-free
generation by vertex augmentation on top of it.

Labeling.  Every node of the search tree is an ordered vertex partition
refined to an equitable one; a node's children individualize each vertex
of its first non-singleton cell in turn.  A leaf (a discrete partition)
orders the vertices, its certificate is the adjacency masks relabeled in
that order, and the canonical form is the least certificate.  Automorphisms
prune the tree: twin transpositions seed the generators, and every leaf
whose certificate equals the first or the best leaf's adds one.  When every
root cell is a set of twins, no search runs.  A child is skipped when a
generator fixing the node's individualized prefix maps it onto a sibling
already searched, and after an automorphism the search jumps back to the
level where the two leaves' paths part (McKay & Piperno, "Practical graph
isomorphism, II", 2014).  The hub joins of cycles, circulants and matchings
the paper is about label in at most tens of milliseconds up to order 62; a
graph whose refinement stalls without automorphisms to prune (a rigid
regular graph) costs one subtree per vertex of the stalled cell.  The
search state is passed explicitly between module functions: nested
closures that call each other would leave a reference cycle per labeling,
and ``qx`` runs with the cyclic garbage collector off (``cli``).

Generation (``enumerate_levels``) is the one reader of the automorphisms
``_canonical`` returns: each kept certificate gets one child per orbit of
neighbour masks under them, built as raw masks with no relabeling step,
and a keep-predicate that tests only the new vertex prunes whole subtrees.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

from .errors import InvalidParameter, InvariantViolated
from .graphs import BUILTIN_MAX_ORDER, Graph, _bits, graph6_encode


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


# isomorph-free generation

def degree_cap(d: int):
    """``enumerate_levels`` predicate: no degree above d at the last vertex w or in N(w)."""
    return lambda adj: adj[-1].bit_count() <= d and all(adj[u].bit_count() <= d for u in _bits(adj[-1]))


def _mask_orbit_representatives(n: int, perms: list[list[int]]) -> list[int]:
    """Least mask of each orbit of the group generated by ``perms`` (vertex
    permutations of range(n)) acting on the 2^n subsets of range(n)."""
    if not perms:
        return list(range(1 << n))
    images = []
    for perm in perms:
        image = [0]  # mask -> its image, built one bit at a time
        for v in perm:
            image += [x | 1 << v for x in image]
        images.append(image)
    reached = bytearray(1 << n)
    reps = []
    for m in range(1 << n):
        if not reached[m]:
            reps.append(m)
            reached[m] = 1
            orbit = [m]
            for x in orbit:
                for image in images:
                    y = image[x]
                    if not reached[y]:
                        reached[y] = 1
                        orbit.append(y)
    return reps


def _deleted(adj: list[int], u: int) -> list[int]:
    """Masks of the graph with vertex u deleted and later vertices renumbered down one."""
    low = (1 << u) - 1
    return [m & low | m >> 1 & ~low for v, m in enumerate(adj) if v != u]


def _rank(adj: list[int], keep) -> tuple[bool, bool] | None:
    """Rank the new (last) vertex w among the deletable vertices, those whose
    deletion leaves ``keep`` holding, by the invariant (degree, sum of its
    neighbours' degrees).  None when a deletable vertex ranks above w; else
    (whether a deletable vertex ties w, whether ``keep`` holds on the graph).
    When ``keep`` holds every vertex is deletable, so no tie is walked."""
    deg = [m.bit_count() for m in adj]
    top = deg[-1]
    top_sum = None
    ties = []
    blocked = False  # an undeletable vertex ranks above w, so keep fails here
    for u in range(len(adj) - 1):
        if deg[u] < top:
            continue
        if deg[u] == top:
            if top_sum is None:
                top_sum = sum(deg[w] for w in _bits(adj[-1]))
            u_sum = sum(deg[w] for w in _bits(adj[u]))
            if u_sum < top_sum:
                continue
            if u_sum == top_sum:
                ties.append(u)
                continue
        if keep(_deleted(adj, u)):
            return None
        blocked = True
    if not blocked and keep(adj):
        return bool(ties), True
    return any(keep(_deleted(adj, u)) for u in ties), False


def _degree_profile(adj: list[int]) -> int:
    """Isomorphism invariant: hash of the sorted neighbour-degree multisets (sums of 16^degree)."""
    return hash(tuple(sorted(sum(1 << 4 * adj[u].bit_count() for u in _bits(m)) for m in adj)))


def enumerate_levels(max_n: int, keep):
    """Yield (order, kept, seen) for order = 1..max_n, where max_n is at
    most ``BUILTIN_MAX_ORDER``.

    ``keep`` decides a hereditary property (closed under vertex deletion,
    blind to labeling) on masks whose graph less its last vertex has it, so
    it may test only that vertex.  ``kept`` lists one mask tuple per class
    accepted, sorted, canonical wherever labeled (every class below order
    ``max_n``: parents need automorphisms).  ``seen`` counts every distinct
    class generated (with a vertex whose deletion is kept), kept or not.

    Each kept certificate is extended by one new vertex per orbit of
    neighbour masks under the automorphisms its labeling found, given as
    full permutations of its canonical labels (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 1998).  Masks in one orbit give
    isomorphic children, so every class is generated.  Each child is ranked
    (``_rank``) before labeling.  It is dropped when a deletable old vertex
    outranks the new one: its class is also generated from the parent left
    by deleting a top-ranked deletable vertex, and that parent is kept
    because the property is hereditary.  A child with a tied top rank is
    deduplicated by certificate.  A child whose new vertex is the unique top
    has one parent, the class less that vertex, and one orbit of its masks
    gives it, because the automorphisms ``_canonical`` returns generate all
    of Aut(parent).  So it is counted unlabeled and labeled only when kept;
    a kept certificate met twice, the sign of an incomplete group, raises
    ``InvariantViolated``.  At order ``max_n`` a child is labeled only once
    one that may share its class (any tied child; a sibling) shares its
    degree profile.  No ``Graph`` is built.
    """
    if max_n < 1:
        raise InvalidParameter("enumeration needs max_n >= 1")
    if max_n > BUILTIN_MAX_ORDER:
        raise InvalidParameter(f"builtin enumeration capped at order {BUILTIN_MAX_ORDER}")
    # a kept class: its certificate -> the automorphisms found, on its canonical labels
    kept = {(0,): []} if keep((0,)) else {}
    yield 1, list(kept), 1
    for order in range(2, max_n + 1):
        new = 1 << (order - 1)
        parents, kept = kept, {}
        seen: set = set()  # certificates of the labeled tied children
        tops = 0  # unique-top children, each a class of its own
        first: dict = {}  # at max_n, degree profile -> a tied child left unlabeled, [] once labeled
        for parent, perms in parents.items():
            siblings: dict = {}  # the same for this parent's unique-top children
            for mask in _mask_orbit_representatives(order - 1, perms):
                adj = [m | new if mask >> u & 1 else m for u, m in enumerate(parent)]
                adj.append(mask)
                ranked = _rank(adj, keep)
                if ranked is None:
                    continue
                tied, ok = ranked
                tops += not tied
                if not (tied or ok):
                    continue
                todo = [(adj, tied, ok)]
                if order == max_n:  # labeled once a second child that may share its class shares its profile
                    key, pending = _degree_profile(adj), first if tied else siblings
                    todo, pending[key] = (pending[key] + todo, []) if key in pending else ([], todo)
                for adj, tied, ok in todo:
                    cert, auts = _canonical(order, adj)
                    if tied:
                        if cert in seen:
                            continue
                        seen.add(cert)
                    elif cert in kept:
                        raise InvariantViolated(f"order-{order} class generated twice: "
                                                "the automorphisms found miss part of a group")
                    if ok:
                        kept[cert] = auts
            kept.update((tuple(adj), None) for adj, _, _ in chain(*siblings.values()))  # each a class
        kept.update((tuple(adj), None) for adj, _, ok in chain(*first.values()) if ok)
        kept = {cert: kept[cert] for cert in sorted(kept)}
        yield order, list(kept), len(seen) + tops + sum(map(len, first.values()))
