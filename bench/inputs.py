"""Seeded graph6 inputs for the ``corpus`` and ``stream`` workloads.

Only the files written here reach ``qx``; the oracle re-reads the same
files with its own decoder.  Graphs are numpy 0/1 adjacency matrices so
this module shares no code with ``qindex``.

Families and why each is in a file:

corpus (``qindex``, ``spectrum``, ``free-check`` over one file)
  density sweep   random G(n, p) on a fixed grid of orders 10..60 and
                  p in {0.1, 0.3, 0.5}; the grid is fixed and only the
                  edges and line order follow the seed, so the spectral
                  work per file hardly moves between seeds.
  hub joins       K1 v C_{n-1} up to n = 62, randomly relabeled: the
                  extremal family at every order the graph6 header allows,
                  dense rows for the codec and a dominating vertex for the
                  detector.

stream (``verify --stream`` at order 14)
  density sweep   random order-14 graphs, p in {0.1, 0.2, 0.3}: mostly
                  asymmetric inputs, a mix of K_{2,3}-free and not.
  hub joins       K1 v C13 and K1 v (C_a u C_b), a + b = 13: the 2-regular
                  hub joins that attain the t = 2 cap and are the slow case
                  of canonical labeling.  Each appears in several random
                  relabelings, so the scan must deduplicate them.
  duplicates      randomly relabeled copies of some density-sweep graphs:
                  the duplicate ratio the canonical dedup has to find.

Random graphs whose spectral invariant collides with a graph already in
the file are redrawn, so two lines are isomorphic exactly when the file
was built that way; ``oracle.invariant`` relies on this.
"""

from __future__ import annotations

import random

import numpy as np

CORPUS_ORDERS = (10, 20, 30, 40, 50, 60)
CORPUS_DENSITIES = (0.1, 0.3, 0.5)
CORPUS_REPEATS = 1
CORPUS_HUB_ORDERS = (6, 14, 22, 30, 46, 62)

STREAM_ORDER = 14
STREAM_DENSITIES = (0.1, 0.2, 0.3)
STREAM_RANDOM = 100
STREAM_HUB_COPIES = 1
STREAM_DUPLICATES = 10

# --quick shrinks every file for the smoke test
QUICK_CORPUS_ORDERS = (10, 20)
QUICK_CORPUS_REPEATS = 1
QUICK_CORPUS_HUB_ORDERS = (6, 12)
QUICK_STREAM_ORDER = 10
QUICK_STREAM_RANDOM = 12
QUICK_STREAM_HUB_COPIES = 1
QUICK_STREAM_DUPLICATES = 3


def graph6_encode(a: np.ndarray) -> str:
    n = a.shape[0]
    if not 1 <= n <= 62:
        raise ValueError(f"order {n} outside 1..62")
    bits = [int(a[u, v]) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = val << 1 | b
        out.append(chr(63 + val))
    return "".join(out)


def graph6_decode(text: str) -> np.ndarray:
    data = text.strip().encode("ascii")
    n = data[0] - 63
    if not 1 <= n <= 62:
        raise ValueError(f"order byte {data[0]} outside the single-byte header")
    m = n * (n - 1) // 2
    if len(data) - 1 != (m + 5) // 6:
        raise ValueError(f"payload length {len(data) - 1} wrong for order {n}")
    bits = []
    for byte in data[1:]:
        val = byte - 63
        if not 0 <= val < 64:
            raise ValueError(f"payload byte {byte} outside 63..126")
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    a = np.zeros((n, n), dtype=np.int64)
    i = 0
    for v in range(1, n):
        for u in range(v):
            a[u, v] = a[v, u] = bits[i]
            i += 1
    return a


def random_graph(rng: random.Random, n: int, p: float) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                a[u, v] = a[v, u] = 1
    return a


def cycles(lengths) -> np.ndarray:
    """Disjoint union of cycles of the given lengths."""
    n = sum(lengths)
    a = np.zeros((n, n), dtype=np.int64)
    start = 0
    for k in lengths:
        for i in range(k):
            u, v = start + i, start + (i + 1) % k
            a[u, v] = a[v, u] = 1
        start += k
    return a


def hub_join(h: np.ndarray) -> np.ndarray:
    """K1 v H, the hub at index 0."""
    n = h.shape[0] + 1
    a = np.ones((n, n), dtype=np.int64)
    a[1:, 1:] = h
    np.fill_diagonal(a, 0)
    return a


def relabel(rng: random.Random, a: np.ndarray) -> np.ndarray:
    perm = list(range(a.shape[0]))
    rng.shuffle(perm)
    return a[np.ix_(perm, perm)]


def invariant(a: np.ndarray) -> tuple:
    """Isomorphism invariant: order, degree sequence and rounded A-spectrum."""
    degrees = tuple(sorted(int(d) for d in a.sum(axis=1)))
    spectrum = tuple(np.round(np.linalg.eigvalsh(a.astype(float)), 6) + 0.0)
    return (a.shape[0], degrees, spectrum)


def _fresh_random(rng, n, p, seen: set) -> np.ndarray:
    while True:
        a = random_graph(rng, n, p)
        key = invariant(a)
        if key not in seen:
            seen.add(key)
            return a


def corpus_graphs(seed: int, quick: bool = False) -> list[np.ndarray]:
    rng = random.Random(f"corpus-{seed}")
    orders = QUICK_CORPUS_ORDERS if quick else CORPUS_ORDERS
    repeats = QUICK_CORPUS_REPEATS if quick else CORPUS_REPEATS
    hubs = QUICK_CORPUS_HUB_ORDERS if quick else CORPUS_HUB_ORDERS
    graphs = [
        random_graph(rng, n, p)
        for n in orders for p in CORPUS_DENSITIES for _ in range(repeats)
    ]
    graphs += [relabel(rng, hub_join(cycles([n - 1]))) for n in hubs]
    rng.shuffle(graphs)
    return graphs


def stream_hub_parts(order: int) -> list[list[int]]:
    """Cycle lengths of every 2-regular H on order-1 vertices with at most
    two cycles: C_{order-1} and C_a u C_b."""
    m = order - 1
    return [[m]] + [[a, m - a] for a in range(3, m // 2 + 1) if m - a >= 3]


def stream_graphs(seed: int, quick: bool = False) -> list[np.ndarray]:
    rng = random.Random(f"stream-{seed}")
    order = QUICK_STREAM_ORDER if quick else STREAM_ORDER
    count = QUICK_STREAM_RANDOM if quick else STREAM_RANDOM
    copies = QUICK_STREAM_HUB_COPIES if quick else STREAM_HUB_COPIES
    dups = QUICK_STREAM_DUPLICATES if quick else STREAM_DUPLICATES
    hubs = [hub_join(cycles(parts)) for parts in stream_hub_parts(order)]
    seen = {invariant(h) for h in hubs}
    randoms = [
        _fresh_random(rng, order, STREAM_DENSITIES[i % len(STREAM_DENSITIES)], seen)
        for i in range(count)
    ]
    graphs = [relabel(rng, h) for h in hubs for _ in range(copies)]
    graphs += randoms
    graphs += [relabel(rng, randoms[rng.randrange(count)]) for _ in range(dups)]
    rng.shuffle(graphs)
    return graphs


def write_graph6(path, graphs) -> list[str]:
    lines = [graph6_encode(a) for a in graphs]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return lines
