"""Seeded inputs, operations and expected answers for the benchmark.

Each workload has a fixed part, built once at set-up, and rounds of
operations drawn from ``random.Random`` seeded by (workload, seed,
round).  Every round has the same composition, so a run that stops
after a whole round measures the same mix whatever the seed.

Expected answers are known by construction, not read back from the
program:

* graphs on at most five vertices have a trivial loop group, except
  the 5-cycle, where loops are equal exactly when their winding
  numbers agree;
* a product of two paths is contractible;
* a product of two cycles of length at least 5 has loop group Z^2, and
  two loops on it are equal exactly when their winding vectors agree;
* inserting a backtrack, a stationary step, a triangle or a square
  into a loop keeps its class, and appending a loop around a chordless
  cycle of length at least 5 that sits in a free factor changes it;
* gadget graphs are trees of pieces joined by bridges, so their loop
  group is the free product of the pieces' groups;
* f0 = |V| and f1 = 2|E|; the loop graph has one vertex per based
  closed walk that does not end in a stationary step.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

WORKLOADS = ("queries", "invariants")

# Whole rounds in each run of a traced comparison (untraced, then
# traced), so that per-layer counts and times cover the same work
# whatever the machine's speed: about 10-12 s of op time per run here.
TRACE_ROUNDS = {"queries": 24, "invariants": 3}

# Search limits: every query that can reach the grid search gets
# max_layers=QUERY_MAX_LAYERS; the searches on invariants get these box
# and layers.
QUERY_MAX_LAYERS = 2
SEARCH_BOX = 7
SEARCH_MAX_LAYERS = 6


@dataclass(frozen=True)
class Op:
    """One timed call into the program, and how to judge its result.

    ``call`` takes no arguments and returns the program's result;
    ``check(expect, result)`` runs outside the timed region and returns
    (outcome, report), outcome being "ok", "unknown" or a failure
    reason, and report the text that feeds the round digest."""

    kind: str
    call: Callable[[], Any]
    expect: Any
    check: Callable[[Any, Any], tuple[str, str]]


# ---------------------------------------------------------------- graphs


class Shape:
    """A graph built by the benchmark: vertex keys, edges between keys,
    and what is known about it by construction."""

    def __init__(self, keys, edges, base, free_rank=0, relators=0, closing=None):
        self.keys = list(keys)
        self.edges = [tuple(e) for e in edges]
        self.base = base
        self.free_rank = free_rank
        self.relators = relators
        # Directed edge -> signed free generator, for graphs whose loop
        # group is free on one closing edge per cycle (see free_word).
        self.closing = closing or {}
        adj = {k: [] for k in self.keys}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self.adj = adj

    def named(self, rng, prefix):
        """Fresh random vertex names that sort in the shape's own vertex
        order, so that no two generated graphs are equal and no cache can
        serve one from another, while the work the program does on them
        (which follows vertex order, given or sorted) stays the same from
        seed to seed."""
        name = dict(zip(self.keys, sorted_names(rng, prefix, len(self.keys))))
        edges = [(name[a], name[b]) for a, b in self.edges]
        return [name[k] for k in self.keys], edges, name

    def json_text(self, rng, prefix):
        vertices, edges, name = self.named(rng, prefix)
        obj = {"vertices": vertices, "edges": [list(e) for e in edges],
               "base": name[self.base]}
        return json.dumps(obj), name


def sorted_names(rng, prefix, n):
    """n random distinct names, zero-padded so that they sort in the
    order returned."""
    top = 10 * n + 10
    tags = sorted(rng.sample(range(top), n))
    return [f"{prefix}{t:0{len(str(top))}d}" for t in tags]


def cycle_shape(n):
    keys = list(range(n))
    return Shape(keys, [(i, (i + 1) % n) for i in range(n)], 0,
                 free_rank=1 if n >= 5 else 0, relators=1 if n in (3, 4) else 0)


def path_shape(n):
    """A path with n edges."""
    return Shape(list(range(n + 1)), [(i, i + 1) for i in range(n)], 0)


def product_shape(g: Shape, h: Shape, free_rank, relators):
    keys = [(u, v) for u in g.keys for v in h.keys]
    edges = [((u, a), (u, b)) for u in g.keys for a, b in h.edges]
    edges += [((a, v), (b, v)) for a, b in g.edges for v in h.keys]
    return Shape(keys, edges, (g.base, h.base), free_rank, relators)


def grid_shape(a, b):
    """P_a x P_b: contractible, one square per unit cell."""
    return product_shape(path_shape(a), path_shape(b), 0, a * b)


def torus_shape(p, q):
    """C_p x C_q with p, q >= 5: loop group Z^2, one square per cell."""
    return product_shape(cycle_shape(p), cycle_shape(q), 2, p * q)


def gadget_shape(rng, target, tori=False):
    """A random tree of pieces joined by single bridge edges, with about
    ``target`` vertices.  Pieces are chordless cycles of length 5-9
    (one free generator each), grids (contractible), triangles and,
    with ``tori``, a 5x5 torus (Z^2).  Bridges close no cycle, so the
    loop group is the free product of the pieces' groups, and the
    3- and 4-cycles are exactly the pieces' own.  Without a torus the
    group is free on the closing edge of each cycle piece."""
    keys, edges, pieces, closing = [], [], [], {}
    free_rank = relators = 0
    torus_done = not tori
    while len(keys) < target:
        kind = rng.choice(("cycle", "cycle", "grid", "triangle", "torus"))
        if kind == "torus" and torus_done:
            kind = "cycle"
        if kind == "cycle":
            piece = cycle_shape(rng.randint(5, 9))
        elif kind == "grid":
            piece = grid_shape(rng.randint(1, 3), rng.randint(1, 4))
        elif kind == "triangle":
            piece = cycle_shape(3)
        else:
            piece = torus_shape(5, 5)
            torus_done = True
        tag = len(pieces)
        pkeys = [(tag, k) for k in piece.keys]
        keys += pkeys
        edges += [((tag, a), (tag, b)) for a, b in piece.edges]
        if kind == "cycle":
            n = len(piece.keys)
            closing[((tag, n - 1), (tag, 0))] = tag + 1
            closing[((tag, 0), (tag, n - 1))] = -(tag + 1)
        if pieces:
            other = rng.choice(pieces)
            edges.append((rng.choice(other), rng.choice(pkeys)))
        pieces.append(pkeys)
        free_rank += piece.free_rank
        relators += piece.relators
    return Shape(keys, edges, rng.choice(keys), free_rank, relators,
                 None if tori else closing)


def free_word(shape: Shape, walk):
    """Freely reduced word of a walk in the free loop group of a gadget
    graph without a torus: its signed trips through the closing edges of
    the cycle pieces.  Every other edge lies on a bridge, on the path
    a cycle piece leaves without its closing edge, or in a grid or
    triangle whose cycles are filled, so it contributes nothing."""
    word = []
    for step in zip(walk, walk[1:]):
        letter = shape.closing.get(step)
        if letter is None:
            continue
        if word and word[-1] == -letter:
            word.pop()
        else:
            word.append(letter)
    return tuple(word)


def to_graph(shape: Shape, rng, prefix):
    """Library graph for a shape, plus the key -> name map."""
    from ahomotopy.graphs import Graph

    vertices, edges, name = shape.named(rng, prefix)
    return Graph(vertices, edges, base=name[shape.base]), name


def connected_catalog(max_n=5):
    """Every connected graph on at most ``max_n`` vertices, one per
    isomorphism class, as shapes.  Each new class marks its whole orbit
    under vertex permutations as seen."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        pos = {p: k for k, p in enumerate(pairs)}
        perms = [
            [pos[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
            for perm in itertools.permutations(range(n))
        ]
        seen = set()
        for bits in range(1 << len(pairs)):
            if bits in seen:
                continue
            edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
            for pm in perms:
                seen.add(sum(1 << pm[k] for k in range(len(pairs)) if bits >> k & 1))
            shape = Shape(range(n), edges, 0)
            if _connected(shape):
                out.append(shape)
    return out


def _connected(shape: Shape):
    seen, todo = {shape.base}, [shape.base]
    while todo:
        for y in shape.adj[todo.pop()]:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen) == len(shape.keys)


def cycle_order(shape: Shape):
    """The cyclic vertex order of a shape that is a single cycle of
    length >= 5, or None."""
    n = len(shape.keys)
    if n < 5 or len(shape.edges) != n or any(len(a) != 2 for a in shape.adj.values()):
        return None
    order = [shape.base, shape.adj[shape.base][0]]
    while len(order) < n:
        a, b = shape.adj[order[-1]]
        order.append(a if a != order[-2] else b)
    return order


def closed_walks(shape: Shape, max_steps):
    """All based closed walks of at most ``max_steps`` steps, stationary
    steps allowed, as key tuples."""
    out = [(shape.base,)]
    frontier = [(shape.base,)]
    for _ in range(max_steps):
        frontier = [w + (y,) for w in frontier for y in [w[-1]] + shape.adj[w[-1]]]
        out += [w for w in frontier if w[-1] == shape.base]
    return out


def winding(walk, order):
    """Signed number of turns a walk makes around a cycle with the given
    vertex order."""
    step = {(order[i], order[(i + 1) % len(order)]): 1 for i in range(len(order))}
    total = 0
    for a, b in zip(walk, walk[1:]):
        if a != b:
            total += step.get((a, b), -1)
    return total // len(order)


def torus_winding(walk, p, q):
    """Winding vector of a walk on C_p x C_q keyed by (i, j)."""
    wi = wj = 0
    for (a, b), (c, d) in zip(walk, walk[1:]):
        wi += (c - a + 1) % p - 1 if a != c else 0
        wj += (d - b + 1) % q - 1 if b != d else 0
    return wi // p, wj // q


def shortest_path(shape: Shape, src, dst):
    prev = {src: None}
    todo = deque([src])
    while dst not in prev:
        x = todo.popleft()
        for y in shape.adj[x]:
            if y not in prev:
                prev[y] = x
                todo.append(y)
    path = [dst]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def random_loop(shape: Shape, rng, lo, hi):
    """A based closed walk of lo..hi steps: a lazy random walk out, then
    a shortest path home."""
    while True:
        out = rng.randint(max(1, lo // 2), hi)
        walk = [shape.base]
        for _ in range(out):
            walk.append(rng.choice(shape.adj[walk[-1]] + [walk[-1]]))
        walk += shortest_path(shape, walk[-1], shape.base)[1:]
        if lo <= len(walk) - 1 <= hi:
            return tuple(walk)


def small_cycles_at(shape: Shape, v):
    """Triangles and squares through v, as key tuples starting at v."""
    out = []
    for a in shape.adj[v]:
        for b in shape.adj[a]:
            if b == v:
                continue
            if v in shape.adj[b]:
                out.append((v, a, b, v))
            for c in shape.adj[b]:
                if c not in (v, a) and v in shape.adj[c]:
                    out.append((v, a, b, c, v))
    return out


def detour(shape: Shape, walk, rng):
    """Insert a backtrack, a stationary step, or a triangle or square at
    a random position: the class of the loop does not change."""
    i = rng.randrange(len(walk))
    v = walk[i]
    cycles = small_cycles_at(shape, v)
    kind = rng.choice(("cycle", "cycle", "back", "stay"))
    if kind == "cycle" and cycles:
        piece = rng.choice(cycles)
    elif kind == "stay" or not shape.adj[v]:
        piece = (v, v)
    else:
        piece = (v, rng.choice(shape.adj[v]), v)
    return walk[:i] + piece + walk[i + 1:]


# ---------------------------------------------------------------- checks


def check_query(expect, result):
    """``expect`` is (l1, l2, graph, truth); truth is "equal" or
    "distinct".  A certificate must verify and join the two loops."""
    from ahomotopy import grids

    l1, l2, g, truth = expect
    status, method, cert = result
    report = f"{status}:{method}"
    if status not in ("equal", "distinct", "unknown"):
        return f"bad status {status!r}", report
    if cert is not None:
        if method != "search" or status != "equal":
            return f"certificate with {status}/{method}", report
        if cert.f != grids.loop_to_grid(g, l1) or cert.g != grids.loop_to_grid(g, l2):
            return "certificate joins other loops", report
        if not grids.check_certificate(cert):
            return "certificate fails check_certificate", report
        report += f":{cert.steps}"
    if status == "unknown":
        return "unknown", report
    if status != truth:
        return f"answered {status}, expected {truth}", report
    return "ok", report


def check_search(expect, cert):
    """``expect`` is (f, g, contractible): a found certificate must
    verify and join f to g, and cannot exist for a non-contractible
    loop; None is an honest miss."""
    from ahomotopy import grids

    f, g, contractible = expect
    if cert is None:
        return "ok", "none"
    if cert.f != f or cert.g != g:
        return "certificate joins other maps", "bad"
    if not grids.check_certificate(cert):
        return "certificate fails check_certificate", "bad"
    if not contractible:
        return "certificate for a non-contractible loop", "bad"
    return "ok", f"found:{cert.steps}"


def check_cli(expect, results):
    """``expect`` lists, per CLI call of the op, a function of the
    report text that returns None when it is right, or the reason."""
    reports = []
    for judge, res in zip(expect, results):
        reports.append(res.report)
        if res.status != "ok":
            return f"status {res.status}: {res.report.strip()[:200]}", "".join(reports)
        why = judge(res.report)
        if why:
            return why, "".join(reports)
    return "ok", "".join(reports)


def expect_a1(gens, relators, free_rank, presentation):
    def judge(report):
        lines = report.splitlines()
        if lines[-1] != f"free_rank={free_rank} torsion=[]":
            return f"a1 gave {lines[-1]!r}, expected free_rank={free_rank} torsion=[]"
        if presentation:
            if len(lines[0].split()) - 1 != gens:
                return f"a1 gave {len(lines[0].split()) - 1} generators, expected {gens}"
            if sum(x.startswith("relator: ") for x in lines) != relators:
                return f"a1 relator count differs from {relators}"
        return None
    return judge


def expect_graph(nv, ne):
    def judge(report):
        obj = json.loads(report)
        got = (len(obj["vertices"]), len(obj["edges"]))
        return None if got == (nv, ne) else f"graph has {got}, expected {(nv, ne)}"
    return judge


def expect_fvec(nv, ne, max_dim):
    def judge(report):
        inner = report.strip()[len("f_vector: ("):-1]
        fv = [int(x) for x in inner.split(", ")]
        if len(fv) != max_dim + 1 or fv[0] != nv or fv[1] != 2 * ne:
            return f"f_vector {fv} breaks f0=|V|={nv}, f1=2|E|={2 * ne}"
        return None
    return judge


def expect_loop_graph(nverts, m):
    def judge(report):
        lines = dict(x.split("=", 1) for x in report.splitlines()[:4])
        if int(lines["vertices"]) != nverts:
            return f"loop graph has {lines['vertices']} vertices, expected {nverts}"
        comps = [x for x in report.splitlines() if x.startswith("component=")]
        sizes = [int(x.split()[1].split("=")[1]) for x in comps]
        if len(comps) != int(lines["components"]) or sum(sizes) != nverts:
            return "component sizes do not add up to the vertex count"
        if not comps[0].endswith("base=yes"):
            return "base is not in the first component"
        return None
    return judge


def count_loop_vertices(shape: Shape, m):
    """Based closed walks of at most m steps whose last step is not
    stationary (plus the zero-step walk): dynamic programme over
    (vertex, last step stationary)."""
    moving = {shape.base: 1}
    still = {}
    total = 1
    for _ in range(m):
        nmoving, nstill = {}, {}
        for v in set(moving) | set(still):
            c = moving.get(v, 0) + still.get(v, 0)
            nstill[v] = nstill.get(v, 0) + c
            for y in shape.adj[v]:
                nmoving[y] = nmoving.get(y, 0) + c
        moving, still = nmoving, nstill
        total += moving.get(shape.base, 0)
    return total


def write_file(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def cli_op(kind, argvs, judges, out=None):
    """Run the CLI calls in order; the first call's report is written to
    ``out`` for the second to read."""
    from ahomotopy import cli

    def call():
        results = []
        for k, argv in enumerate(argvs):
            res = cli.run(argv)
            results.append(res)
            if out is not None and k == 0:
                with open(out, "w", encoding="utf-8") as fh:
                    fh.write(res.report)
        return results

    return Op(kind, call, judges, check_cli)


# ---------------------------------------------------------------- queries


def _query(g, l1, l2, truth, box):
    from ahomotopy import fundamental

    def call():
        return fundamental.loops_equivalent_detail(
            l1, l2, g, None, box=box, max_layers=QUERY_MAX_LAYERS)

    return Op("query", call, (l1, l2, g, truth), check_query)


def _box_for(l1, l2, extra):
    return max(len(l1), len(l2)) - 2 + extra


class Queries:
    """Many cheap reads against a few presentations, by library calls.

    Part A: pairs of catalog loops of at most 5 steps on all 31
    connected graphs with at most 5 vertices (the word path).  Part B:
    random loops of 4-20 steps on two gadget graphs, a grid and a torus
    (rewrite and abelian membership).  Part C: the commutator pair a*c,
    c*a on C5xC5 and C5xC6, which the bounded search cannot settle.
    Graphs are fixed for the run, so caches warm up after the first
    query on each.  The gadget graphs are the same for every seed."""

    PAIRS_A = 200
    PAIRS_B = 150

    def __init__(self, seed, workdir):
        self.seed = seed
        rng = random.Random(f"queries/{seed}/setup")
        self.catalog = []
        for k, shape in enumerate(connected_catalog(5)):
            g, name = to_graph(shape, rng, f"c{k}v")
            walks = closed_walks(shape, 5)
            loops = [tuple(name[x] for x in w) for w in walks]
            order = cycle_order(shape)
            turns = [winding(w, order) if order else 0 for w in walks]
            self.catalog.append((g, loops, turns))
        fixed = random.Random("queries/gadgets")
        self.medium = []
        for k, (kind, shape, hi) in enumerate((
            ("gadget", gadget_shape(fixed, 18), 20),
            ("gadget", gadget_shape(fixed, 36), 20),
            ("grid", grid_shape(5, 5), 20),
            ("torus", torus_shape(8, 8), 12),
        )):
            g, name = to_graph(shape, rng, f"m{k}v")
            self.medium.append((kind, shape, g, name, hi))
        self.tori = []
        for k, (p, q) in enumerate(((5, 5), (5, 6))):
            shape = torus_shape(p, q)
            g, name = to_graph(shape, rng, f"t{k}v")
            self.tori.append((p, q, g, name))

    def round(self, r):
        rng = random.Random(f"queries/{self.seed}/{r}")
        ops = []
        for g, loops, turns in self.catalog:
            for _ in range(self.PAIRS_A):
                i, j = rng.randrange(len(loops)), rng.randrange(len(loops))
                truth = "equal" if turns[i] == turns[j] else "distinct"
                ops.append(_query(g, loops[i], loops[j], truth, _box_for(loops[i], loops[j], 2)))
        for kind, shape, g, name, hi in self.medium:
            for _ in range(self.PAIRS_B):
                ops.append(self._medium_pair(kind, shape, g, name, hi, rng))
        for p, q, g, name in self.tori:
            a = [(i % p, 0) for i in range(p + 1)]
            c = [(0, j % q) for j in range(q + 1)]
            if rng.random() < 0.5:
                a.reverse()
            if rng.random() < 0.5:
                c.reverse()
            l1 = tuple(name[x] for x in a + c[1:])
            l2 = tuple(name[x] for x in c + a[1:])
            ops.append(_query(g, l1, l2, "equal", _box_for(l1, l2, 2)))
        rng.shuffle(ops)
        return ops

    def _medium_pair(self, kind, shape, g, name, hi, rng):
        l1 = random_loop(shape, rng, 4, hi)
        mode = rng.choice(("random", "detour", "twist"))
        if mode == "detour":
            l2 = detour(shape, l1, rng)
        elif mode == "twist" and kind == "gadget" and shape.free_rank:
            l2 = self._twist(shape, l1, rng)
        else:
            mode = "random"
            l2 = random_loop(shape, rng, 4, hi)
        if kind == "torus":
            p = max(k[0] for k in shape.keys) + 1
            truth = "equal" if torus_winding(l1, p, p) == torus_winding(l2, p, p) else "distinct"
        elif mode == "detour":
            truth = "equal"
        elif mode == "twist":
            truth = "distinct"
        else:
            truth = "equal" if free_word(shape, l1) == free_word(shape, l2) else "distinct"
        n1 = tuple(name[x] for x in l1)
        n2 = tuple(name[x] for x in l2)
        return _query(g, n1, n2, truth, _box_for(n1, n2, 1))

    @staticmethod
    def _twist(shape, walk, rng):
        """Append a trip once around a chordless cycle piece of length
        >= 5: a nontrivial element of the free product, so the loop's
        class changes."""
        tags = sorted({k[0] for k in shape.keys
                       if cycle_order(_piece(shape, k[0])) is not None})
        order = cycle_order(_piece(shape, rng.choice(tags)))
        start = order[0]
        there = shortest_path(shape, shape.base, start)
        around = order[1:] + [start]
        if rng.random() < 0.5:
            around = around[::-1][1:] + [start]
        back = there[::-1]
        return walk[:-1] + tuple(there) + tuple(around) + tuple(back[1:])


def _piece(shape: Shape, tag):
    keys = [k for k in shape.keys if k[0] == tag]
    kset = set(keys)
    edges = [(a, b) for a, b in shape.edges if a in kset and b in kset]
    return Shape(keys, edges, keys[0])


# ---------------------------------------------------------------- invariants


class Invariants:
    """One cold computation per input, through in-process ``cli.run`` on
    files written before the op, plus bounded grid searches:

    * presentations: product then ``a1 --abelianize --presentation`` on
      P_k x P_k and C_k x C_k, ``gamma-q`` then ``a1 --abelianize`` on
      two rings and an annulus of triangles, and ``a1 --abelianize
      --presentation`` on four gadget graphs of 100-200 vertices;
    * the exponential enumerators, with no presentation algebra:
      ``fvec``, ``loop-graph --components`` and the bounded search of
      catalog loops against the constant loop.

    Every graph has fresh vertex names, so every cache is cold; the
    graphs themselves, vertex order included, are the same for every
    seed and round.

    Search cost depends on the loop and on the vertex order (breadth-first
    search stops at the first state close to the target), and a few
    loops cost a thousand times the median.  So the searched loops are a
    fixed stratified subset of the catalog loops, every STRIDE-th loop of
    each (graph, loop length) class: the search work is the same for
    every seed, which only renames vertices."""

    GRIDS = (10, 14)
    TORI = (10, 14)
    # Two rings: the tail (the 11th slowest op of a run) then falls
    # inside the rings' times, not on the gap below them.
    RINGS = (200, 200)
    ANNULUS = 60
    GADGETS = (100, 125, 150, 200)
    FVEC = (("k2", 4), ("c4", 3), ("c5", 3))
    # Light catalog graphs (at most 6 edges) for dim-3 f-vectors.
    FVEC_CATALOG = (4, 9, 14, 19)
    LOOP_GRAPHS = (("c4", 7), ("c5", 7), ("k3", 6))
    STRIDE, OFFSET = 40, 7

    def __init__(self, seed, workdir):
        from ahomotopy import grids

        self.seed = seed
        self.workdir = workdir
        fixed = random.Random("invariants/gadgets")
        self.gadgets = [gadget_shape(fixed, n, tori=True) for n in self.GADGETS]
        rng = random.Random(f"invariants/{seed}/setup")
        catalog = connected_catalog(5)
        light = [s for s in catalog if len(s.edges) <= 6]
        self.shapes = {"k2": path_shape(1), "c4": cycle_shape(4), "c5": cycle_shape(5),
                       "k3": cycle_shape(3)}
        self.fvec = [(self.shapes[w], d) for w, d in self.FVEC]
        self.fvec += [(light[k], 3) for k in self.FVEC_CATALOG]
        self.searches = []
        for k, shape in enumerate(catalog):
            g, name = to_graph(shape, rng, f"c{k}v")
            order = cycle_order(shape)
            const = grids.loop_to_grid(g, (g.base,))
            by_length = {}
            for w in closed_walks(shape, 5):
                by_length.setdefault(len(w), []).append(w)
            for walks in by_length.values():
                for w in walks[self.OFFSET % len(walks)::self.STRIDE]:
                    contractible = order is None or winding(w, order) == 0
                    f = grids.loop_to_grid(g, tuple(name[x] for x in w))
                    self.searches.append((f, const, contractible))

    def round(self, r):
        rng = random.Random(f"invariants/{self.seed}/{r}")
        ops = []
        for k in self.GRIDS:
            ops.append(self._product(r, rng, path_shape(k), grid_shape(k, k), "p"))
        for k in self.TORI:
            ops.append(self._product(r, rng, cycle_shape(k), torus_shape(k, k), "c"))
        for k, n in enumerate(self.RINGS):
            ops.append(self._gamma(r, rng, "ring", n, k))
        ops.append(self._gamma(r, rng, "annulus", self.ANNULUS, 0))
        for n, shape in zip(self.GADGETS, self.gadgets):
            text, _ = shape.json_text(rng, "v")
            path = write_file(self.workdir, f"r{r}_gadget{n}.json", text)
            gens = len(shape.edges) - len(shape.keys) + 1
            judge = expect_a1(gens, shape.relators, shape.free_rank, True)
            ops.append(cli_op("a1", [["a1", path, "--abelianize", "--presentation"]], [judge]))
        ops += self._enumerators(r, rng)
        # Spread each kind of op over the whole round, so that the
        # searches (the median) and the rings (the tail) are timed at
        # every stage of the host's speed swings, not in one stretch.
        # The order is the same for every seed and round, since it moves
        # the peak RSS.
        random.Random("invariants/order").shuffle(ops)
        return ops

    def _product(self, r, rng, factor, product, tag):
        paths = []
        for side in "lr":
            text, _ = factor.json_text(rng, side)
            paths.append(write_file(self.workdir, f"r{r}_{tag}{len(factor.keys)}{side}.json", text))
        out = os.path.join(self.workdir, f"r{r}_{tag}{len(factor.keys)}.json")
        gens = len(product.edges) - len(product.keys) + 1
        return cli_op(
            "product+a1",
            [["product", *paths], ["a1", out, "--abelianize", "--presentation"]],
            [expect_graph(len(product.keys), len(product.edges)),
             expect_a1(gens, product.relators, product.free_rank, True)],
            out,
        )

    def _gamma(self, r, rng, kind, n, k):
        """Ring: triangles (i, i+1, i+2) mod n, whose 0-connectivity
        graph is the circulant C_n(1, 2) with 2n edges.  Annulus: a strip
        of 2n triangles between two n-cycles, whose 0-connectivity graph
        has 4n edges.  Both loop groups are Z.  The complex sorts its
        facets by vertex name, so the names sort in construction order."""
        if kind == "ring":
            vs = sorted_names(rng, "x", n)
            facets = [(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) for i in range(n)]
            nv, ne = n, 2 * n
        else:
            u, w = sorted_names(rng, "u", n), sorted_names(rng, "w", n)
            facets = []
            for i in range(n):
                j = (i + 1) % n
                facets += [(u[i], u[j], w[i]), (u[j], w[i], w[j])]
            nv, ne = 2 * n, 4 * n
        sigma0 = ",".join(facets[0])
        stem = f"r{r}_{kind}{k}"
        path = write_file(self.workdir, f"{stem}.facets", "".join(" ".join(f) + "\n" for f in facets))
        out = os.path.join(self.workdir, f"{stem}.json")
        return cli_op(
            "gamma-q+a1",
            [["gamma-q", path, "-q", "0", "--sigma0", sigma0], ["a1", out, "--abelianize"]],
            [expect_graph(nv, ne), expect_a1(None, None, 1, False)],
            out,
        )

    def _enumerators(self, r, rng):
        from ahomotopy import grids

        ops = []
        for k, (shape, dim) in enumerate(self.fvec):
            text, _ = shape.json_text(rng, "v")
            path = write_file(self.workdir, f"r{r}_fvec{k}.json", text)
            ops.append(cli_op(
                "fvec", [["fvec", path, "--max-dim", str(dim)]],
                [expect_fvec(len(shape.keys), len(shape.edges), dim)]))
        for k, (which, m) in enumerate(self.LOOP_GRAPHS):
            shape = self.shapes[which]
            text, _ = shape.json_text(rng, "v")
            path = write_file(self.workdir, f"r{r}_loops{k}.json", text)
            ops.append(cli_op(
                "loop-graph", [["loop-graph", path, "--max-len", str(m), "--components"]],
                [expect_loop_graph(count_loop_vertices(shape, m), m)]))
        for f, const, contractible in self.searches:
            def call(f=f, const=const):
                return grids.bounded_homotopy_search(
                    f, const, box=SEARCH_BOX, max_layers=SEARCH_MAX_LAYERS)
            ops.append(Op("search", call, (f, const, contractible), check_search))
        return ops


def make(workload, seed, workdir):
    """Build a workload's fixed part for a seed."""
    cls = {"queries": Queries, "invariants": Invariants}[workload]
    return cls(seed, workdir)


def digest(reports):
    h = hashlib.sha256()
    for text in reports:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
