"""The based loop invariant of a graph through its small cycles.

Loops at the base vertex, read as words in the non-tree edges of a
breadth-first spanning tree, present a group whose relators come from
the 3- and 4-cycles of the graph; triangles and squares bound, longer
cycles do not.

Equivalence of two loops is decided on the word of one loop times the
inverse of the other, in the coordinates of the Tietze-simplified
presentation, by the first rung that settles it:

1. words: the word is freely trivial before or after rewriting, so the
   loops are equal;
2. abelianization: its exponent vector lies outside the relator
   lattice, so the loops are distinct;
3. abelian: the relators include the commutator of every pair of
   generators, so the group is Z^k modulo the relator lattice and
   lattice membership means the loops are equal;
4. free-words: no relator is left, so the group is free and the
   nontrivial reduced word means the loops are distinct;
5. search: a bounded search over grid deformations, which either finds
   a certificate of equality or answers unknown.
"""

from __future__ import annotations

import warnings
from collections import deque
from functools import lru_cache

from .graphs import Graph, check_walk, component_of, induced_subgraph
from .presentations import (
    GroupPresentation,
    abelianization,
    AbelianInvariants,
    canonical_relator,
    echelon_basis,
    exponent_vector,
    free_reduce,
    invert_word,
    lattice_contains,
    tietze_with_rewriter,
)

EQUAL = "equal"
DISTINCT = "distinct"
UNKNOWN = "unknown"

# Presentation data is kept per (graph, base) for the most recently used
# graphs; a working set of a few dozen graphs stays warm.
_CACHED_GRAPHS = 64


def small_cycles(g: Graph) -> list[tuple[str, ...]]:
    """All 3- and 4-cycles, one representative per rotation/reflection
    class: each starts at its least vertex and steps toward the smaller
    of that vertex's two cycle neighbors.  Triangles first, then
    quadrilaterals, each block in lexicographic index order."""
    n = len(g.vertices)
    adj = [set(g._adj[i]) for i in range(n)]
    triangles = []
    for a in range(n):
        nbrs = [b for b in g._adj[a] if b > a]
        for x in range(len(nbrs)):
            for y in range(x + 1, len(nbrs)):
                b, c = nbrs[x], nbrs[y]
                if c in adj[b]:
                    triangles.append((a, b, c))
    quads = []
    for a in range(n):
        nbrs = [b for b in g._adj[a] if b > a]
        for x in range(len(nbrs)):
            for y in range(x + 1, len(nbrs)):
                b, d = nbrs[x], nbrs[y]
                for c in sorted(adj[b] & adj[d]):
                    if c > a and c != b and c != d:
                        quads.append((a, b, c, d))
    triangles.sort()
    quads.sort()
    vs = g.vertices
    return [tuple(vs[i] for i in cyc) for cyc in triangles + quads]


def spanning_tree(g: Graph, base) -> dict[str, str]:
    """Breadth-first spanning tree of the base component: child -> parent,
    visiting neighbors in vertex order."""
    root = g.index(base)
    parent = {}
    seen = {root}
    queue = deque([root])
    while queue:
        i = queue.popleft()
        for j in g._adj[i]:
            if j not in seen:
                seen.add(j)
                parent[g.vertices[j]] = g.vertices[i]
                queue.append(j)
    return parent


@lru_cache(maxsize=_CACHED_GRAPHS)
def _presentation_data(g: Graph, base: str):
    comp = component_of(g, base)
    if len(comp) < len(g.vertices):
        warnings.warn(
            f"graph is disconnected; using the {len(comp)}-vertex component "
            f"of {base!r}",
            stacklevel=3,
        )
    sub = induced_subgraph(g, comp).with_base(base)
    parent = spanning_tree(sub, base)
    tree_pairs = set()
    for child, par in parent.items():
        i, j = sub.index(child), sub.index(par)
        tree_pairs.add((i, j) if i < j else (j, i))
    gen_pairs = sorted(sub.edge_index_pairs() - tree_pairs)
    gen_edges = tuple((sub.vertices[i], sub.vertices[j]) for i, j in gen_pairs)
    letter = {}
    for k, (u, v) in enumerate(gen_edges, start=1):
        letter[(u, v)] = k
        letter[(v, u)] = -k
    names = tuple(f"x{k}" for k in range(1, len(gen_edges) + 1))
    relators = []
    for cycle in small_cycles(sub):
        word = []
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            x = letter.get((a, b))
            if x is not None:
                word.append(x)
        relators.append(tuple(word))
    presentation = GroupPresentation(names, tuple(relators))
    return gen_edges, letter, presentation


@lru_cache(maxsize=_CACHED_GRAPHS)
def _equivalence_data(g: Graph, base: str):
    """The simplified presentation with its rewriter, a Hermite basis of
    its relator lattice, and whether its relators include every
    generator commutator (then the group is abelian)."""
    tietze = tietze_with_rewriter(_presentation_data(g, base)[2])
    simplified = tietze.presentation
    k = len(simplified.generators)
    basis = echelon_basis((exponent_vector(r, k) for r in simplified.relators), k)
    relators = {canonical_relator(r) for r in simplified.relators}
    abelian = all(
        canonical_relator((i, j, -i, -j)) in relators
        for i in range(1, k + 1)
        for j in range(i + 1, k + 1)
    )
    return tietze, basis, abelian


def a1_presentation(g: Graph, base=None) -> GroupPresentation:
    """Presentation of the based loop group: one generator per non-tree
    edge of the base component, one relator per 3- or 4-cycle read along
    its canonical traversal (tree edges contribute nothing)."""
    base = g.require_base(base)
    return _presentation_data(g, base)[2]


def a1_generator_edges(g: Graph, base=None) -> tuple[tuple[str, str], ...]:
    """The non-tree edges the presentation generators stand for, in
    generator order."""
    base = g.require_base(base)
    return _presentation_data(g, base)[0]


def a1_invariants(g: Graph, base=None) -> AbelianInvariants:
    """Abelian invariants of the based loop group, read off the
    simplified presentation."""
    base = g.require_base(base)
    return abelianization(_equivalence_data(g, base)[0].presentation)


def loop_to_word(loop, g: Graph, base=None) -> tuple[int, ...]:
    """Read a based loop as a freely reduced word in the presentation
    generators.  Stationary steps and tree edges contribute nothing."""
    base = g.require_base(base)
    walk = check_walk(g, loop, start=base, end=base)
    _, letter, _ = _presentation_data(g, base)
    word = []
    for a, b in zip(walk, walk[1:]):
        if a == b:
            continue
        x = letter.get((a, b))
        if x is not None:
            word.append(x)
    return free_reduce(word)


def loops_equivalent_detail(l1, l2, g: Graph, base=None, box=None, max_layers=6):
    """Decide whether two based loops are homotopic, reporting how.

    Returns (status, method, certificate), the method naming the rung
    that settled it (see the module docstring for their order): "equal"
    with method "words", "abelian" or "search" (the last with an
    explicit certificate), "distinct" with method "abelianization" or
    "free-words", or "unknown" with neither.
    """
    base = g.require_base(base)
    w1 = loop_to_word(l1, g, base)
    w2 = loop_to_word(l2, g, base)
    diff = free_reduce(w1 + invert_word(w2))
    if not diff:
        return EQUAL, "words", None
    tietze, basis, abelian = _equivalence_data(g, base)
    rewritten = tietze.rewrite(diff)
    if not rewritten:
        # The rewrite map is an isomorphism onto the simplified group, so a
        # freely trivial image is trivial regardless of leftover relators.
        return EQUAL, "words", None
    simplified = tietze.presentation
    if not lattice_contains(basis, exponent_vector(rewritten, len(simplified.generators))):
        return DISTINCT, "abelianization", None
    if abelian:
        return EQUAL, "abelian", None
    if not simplified.relators:
        return DISTINCT, "free-words", None
    from .grids import bounded_homotopy_search, loop_to_grid

    f1 = loop_to_grid(g, l1, base)
    f2 = loop_to_grid(g, l2, base)
    if box is None:
        interior = max(len(tuple(l1)), len(tuple(l2))) - 2
        box = max(7, interior + 2)
    cert = bounded_homotopy_search(f1, f2, box=box, max_layers=max_layers)
    if cert is not None:
        return EQUAL, "search", cert
    return UNKNOWN, None, None


def loops_equivalent(l1, l2, g: Graph, base=None, box=None, max_layers=6) -> str:
    """Decide whether two based loops are homotopic.

    Returns "equal" when the words agree in the simplified presentation
    read as a free group, when the simplified group is visibly abelian
    and the words agree in it, or when a bounded grid search finds an
    explicit deformation; "distinct" when the abelianized images differ
    or the free-group word problem separates them; "unknown" otherwise.
    The rungs are tried in the order the module docstring gives.
    """
    status, _, _ = loops_equivalent_detail(l1, l2, g, base, box, max_layers)
    return status
