"""Tests for the based loop invariant: presentations, invariants, and
loop equivalence."""

import itertools
import random

import pytest

from ahomotopy import (
    AbelianInvariants,
    Graph,
    a1_generator_edges,
    a1_invariants,
    a1_presentation,
    cartesian_product,
    complete_graph,
    cycle_graph,
    free_reduce,
    invert_word,
    loop_to_word,
    loops_equivalent,
    loops_equivalent_detail,
    small_cycles,
    spanning_tree,
    tietze_simplify,
)

from conftest import gnp_graph, random_connected_graph, random_tree


def brute_small_cycles(g):
    """Canonical 3- and 4-cycle set via raw enumeration of vertex
    tuples."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    edges = {frozenset((idx[a], idx[b])) for a, b in g.edges}
    out = set()
    n = len(g.vertices)
    for k in (3, 4):
        for combo in itertools.permutations(range(n), k):
            if any(
                frozenset((combo[t], combo[(t + 1) % k])) not in edges
                for t in range(k)
            ):
                continue
            if k == 4 and len(set(combo)) < 4:
                continue
            # canonical representative: least vertex first, smaller neighbor next
            m = min(combo)
            p = combo.index(m)
            rot = combo[p:] + combo[:p]
            rev = (rot[0],) + tuple(reversed(rot[1:]))
            out.add(min(rot, rev))
    return {tuple(g.vertices[i] for i in c) for c in out}


def test_small_cycles_matches_brute():
    for seed in range(10):
        g = gnp_graph(7, 0.5, seed)
        got = small_cycles(g)
        assert set(got) == brute_small_cycles(g)
        assert len(got) == len(set(got))


def test_small_cycles_order():
    g = complete_graph(4)
    got = small_cycles(g)
    tri = [c for c in got if len(c) == 3]
    quad = [c for c in got if len(c) == 4]
    assert got == tri + quad
    assert tri == sorted(tri)
    assert quad == sorted(quad)


def test_small_cycles_examples():
    assert small_cycles(cycle_graph(3)) == [("0", "1", "2")]
    assert small_cycles(cycle_graph(4)) == [("0", "1", "2", "3")]
    assert small_cycles(cycle_graph(5)) == []
    assert len(small_cycles(complete_graph(4))) == 4 + 3


def test_spanning_tree_reaches_component():
    for seed in range(5):
        g = random_connected_graph(8, 0.4, seed)
        parent = spanning_tree(g, "0")
        assert set(parent) == set(g.vertices) - {"0"}
        edges = {frozenset(e) for e in g.edges}
        for child, par in parent.items():
            assert frozenset((child, par)) in edges


def test_generator_count_is_cycle_rank():
    for seed in range(12):
        g = random_connected_graph(random.Random(seed).randint(2, 8), 0.45, seed)
        p = a1_presentation(g, "0")
        assert len(p.generators) == len(g.edges) - len(g.vertices) + 1


def test_tree_has_no_generators():
    g = random_tree(9, 4)
    p = a1_presentation(g, "0")
    assert p.generators == ()
    assert p.relators == ()
    assert a1_invariants(g, "0") == AbelianInvariants(0, ())


def test_cycle_graph_invariants():
    # triangles and squares bound; longer cycles wind
    assert a1_invariants(cycle_graph(3), "0") == AbelianInvariants(0, ())
    assert a1_invariants(cycle_graph(4), "0") == AbelianInvariants(0, ())
    for n in (5, 6, 7, 9):
        assert a1_invariants(cycle_graph(n), "0") == AbelianInvariants(1, ())


def test_complete_graph_trivial():
    for n in (4, 5, 6):
        assert a1_invariants(complete_graph(n), "0") == AbelianInvariants(0, ())


def test_c5_presentation_is_free_on_one_generator():
    p = a1_presentation(cycle_graph(5), "0")
    assert len(p.generators) == 1
    assert p.relators == ()
    edges = a1_generator_edges(cycle_graph(5), "0")
    assert edges == (("2", "3"),)


def test_generator_edges_are_graph_edges():
    for seed in range(6):
        g = random_connected_graph(7, 0.5, seed)
        p = a1_presentation(g, "0")
        edges = a1_generator_edges(g, "0")
        assert len(edges) == len(p.generators)
        all_edges = {frozenset(e) for e in g.edges}
        assert all(frozenset(e) in all_edges for e in edges)
        # spanning tree plus generator edges is the whole edge set
        parent = spanning_tree(g, "0")
        tree = {frozenset(e) for e in parent.items()}
        assert tree | {frozenset(e) for e in edges} == all_edges


def test_torus_product_invariants():
    g = cartesian_product(cycle_graph(5), cycle_graph(5)).with_base("(0,0)")
    assert a1_invariants(g) == AbelianInvariants(2, ())
    s = tietze_simplify(a1_presentation(g))
    assert len(s.generators) == 2
    assert len(s.relators) == 1
    assert len(s.relators[0]) == 4


def test_loop_to_word_c5():
    g = cycle_graph(5).with_base("0")
    around = ["0", "1", "2", "3", "4", "0"]
    w = loop_to_word(around, g)
    assert len(w) == 1
    back = list(reversed(around))
    assert loop_to_word(back, g) == invert_word(w)
    # pauses contribute nothing
    lazy = ["0", "0", "1", "2", "2", "3", "4", "0", "0"]
    assert loop_to_word(lazy, g) == w
    # out and back is trivial
    assert loop_to_word(["0", "1", "2", "1", "0"], g) == ()
    assert loop_to_word(["0"], g) == ()


def test_loop_to_word_concatenation():
    g = cycle_graph(5).with_base("0")
    around = ["0", "1", "2", "3", "4", "0"]
    double = around + around[1:]
    w = loop_to_word(around, g)
    assert loop_to_word(double, g) == free_reduce(w + w)


def test_loop_to_word_rejects_bad_walks():
    g = cycle_graph(5).with_base("0")
    with pytest.raises(ValueError):
        loop_to_word(["0", "2", "0"], g)  # not an edge
    with pytest.raises(ValueError):
        loop_to_word(["1", "2", "1"], g)  # not based
    with pytest.raises(ValueError):
        loop_to_word(["0", "1"], g)  # open walk


def test_loops_equivalent_square_contracts():
    g = cycle_graph(4).with_base("0")
    around = ["0", "1", "2", "3", "0"]
    status, method, cert = loops_equivalent_detail(around, ["0"], g)
    assert status == "equal"
    assert method == "words"
    assert cert is None


def test_loops_equivalent_c5_winding():
    g = cycle_graph(5).with_base("0")
    around = ["0", "1", "2", "3", "4", "0"]
    const = ["0"]
    assert loops_equivalent(around, const, g) == "distinct"
    status, method, _ = loops_equivalent_detail(around, const, g)
    assert (status, method) == ("distinct", "abelianization")
    back = list(reversed(around))
    assert loops_equivalent(around, back, g) == "distinct"
    double = around + around[1:]
    assert loops_equivalent(double, around, g) == "distinct"
    lazy = ["0", "1", "1", "2", "3", "4", "4", "0"]
    assert loops_equivalent(around, lazy, g) == "equal"


def wedge_of_two_five_cycles():
    """Two 5-cycles sharing only the vertex a0."""
    verts = ["a0"] + [f"a{k}" for k in range(1, 5)] + [f"b{k}" for k in range(1, 5)]
    ring_a = ["a0", "a1", "a2", "a3", "a4"]
    ring_b = ["a0", "b1", "b2", "b3", "b4"]
    edges = [(r[k], r[(k + 1) % 5]) for r in (ring_a, ring_b) for k in range(5)]
    return Graph(verts, edges, base="a0")


def test_loops_equivalent_free_words_method():
    # free group of rank 2, no relators survive, so an abelian-trivial
    # nontrivial word is separated by free reduction alone
    g = wedge_of_two_five_cycles()
    la = ["a0", "a1", "a2", "a3", "a4", "a0"]
    lb = ["a0", "b1", "b2", "b3", "b4", "a0"]
    comm = la + lb[1:] + list(reversed(la))[1:] + list(reversed(lb))[1:]
    status, method, _ = loops_equivalent_detail(comm, ["a0"], g)
    assert (status, method) == ("distinct", "free-words")


def torus_with_wedged_cycle():
    """C5 x C5 with a 5-cycle sharing only the vertex (0,0)."""
    t = cartesian_product(cycle_graph(5), cycle_graph(5))
    ring = ["(0,0)", "w1", "w2", "w3", "w4"]
    edges = list(t.edges) + [(ring[k], ring[(k + 1) % 5]) for k in range(5)]
    return Graph(list(t.vertices) + ring[1:], edges, base="(0,0)")


def test_loops_equivalent_torus_outcomes():
    g = cartesian_product(cycle_graph(5), cycle_graph(5)).with_base("(0,0)")
    # a face square contracts, and the rewriter already sees it
    square = ["(0,0)", "(1,0)", "(1,1)", "(0,1)", "(0,0)"]
    status, method, cert = loops_equivalent_detail(square, ["(0,0)"], g)
    assert (status, method, cert) == ("equal", "words", None)
    # commuted windings differ by the one surviving relator, a
    # commutator, so the group is Z^2 and the abelian rung decides
    horiz = [f"({i % 5},0)" for i in range(6)]
    vert = [f"(0,{j % 5})" for j in range(6)]
    l1 = horiz + vert[1:]
    l2 = vert + horiz[1:]
    status, method, cert = loops_equivalent_detail(l1, l2, g, max_layers=1)
    assert (status, method, cert) == ("equal", "abelian", None)
    # a wedged free factor makes the group non-abelian: the word pipeline
    # cannot decide, and one layer of deformation is not enough
    w = torus_with_wedged_cycle()
    assert len(tietze_simplify(a1_presentation(w)).generators) == 3
    status, method, cert = loops_equivalent_detail(l1, l2, w, max_layers=1)
    assert (status, method, cert) == ("unknown", None, None)


def test_loops_equivalent_random_consistency():
    # word-equal loops must never be called distinct, and winding numbers
    # separate loops on a plain cycle
    g = cycle_graph(6).with_base("0")
    around = ["0", "1", "2", "3", "4", "5", "0"]
    rng = random.Random(9)
    for _ in range(20):
        # random lazy re-parameterization of the same loop
        lazy = []
        for vtx in around:
            lazy.extend([vtx] * rng.randint(1, 3))
        assert loops_equivalent(around, lazy, g) == "equal"


def test_disconnected_graph_warns():
    g = Graph(["0", "1", "2", "3"], [("0", "1"), ("2", "3")], base="0")
    with pytest.warns(UserWarning, match="disconnected"):
        p = a1_presentation(g)
    assert p.generators == ()
