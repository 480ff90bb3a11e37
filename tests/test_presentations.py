"""Tests for word algebra, Smith normal form, lattice membership,
abelian invariants and Tietze simplification.  sympy is used only as an
oracle; hypothesis drives the property tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from ahomotopy import (
    AbelianInvariants,
    GroupPresentation,
    PresentationError,
    abelianization,
    canonical_relator,
    cyclic_reduce,
    echelon_basis,
    free_reduce,
    in_row_lattice,
    invert_word,
    lattice_contains,
    smith_diagonal,
    substitute,
    tietze_simplify,
    tietze_with_rewriter,
)


def random_word(rng, ngens, maxlen):
    return tuple(
        rng.choice([-1, 1]) * rng.randint(1, ngens) for _ in range(rng.randint(0, maxlen))
    )


def sympy_snf_diag(rows, ncols):
    if not rows:
        return [0] * 0
    m = Matrix(rows)
    s = smith_normal_form(m, domain=ZZ)
    k = min(m.rows, ncols)
    return [abs(int(s[i, i])) for i in range(k)]


def test_free_reduce_examples():
    assert free_reduce(()) == ()
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)
    assert free_reduce((1, 2, 3)) == (1, 2, 3)


def test_free_reduce_properties():
    rng = random.Random(11)
    for _ in range(200):
        w = random_word(rng, 3, 12)
        r = free_reduce(w)
        assert all(r[i] != -r[i + 1] for i in range(len(r) - 1))
        assert free_reduce(r) == r
        # cancellation only ever removes pairs
        assert (len(w) - len(r)) % 2 == 0


def test_invert_word_cancels():
    rng = random.Random(7)
    for _ in range(100):
        w = random_word(rng, 4, 10)
        assert free_reduce(w + invert_word(w)) == ()
        assert free_reduce(invert_word(w) + w) == ()


def test_cyclic_reduce():
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert cyclic_reduce((1, -2, 2, 3, -1)) == (3,)
    assert cyclic_reduce((1, 2)) == (1, 2)
    assert cyclic_reduce((1, -1)) == ()


def test_canonical_relator_invariance():
    rng = random.Random(23)
    for _ in range(100):
        w = random_word(rng, 3, 8)
        c = canonical_relator(w)
        assert canonical_relator(invert_word(w)) == c
        if w:
            k = rng.randrange(len(w))
            assert canonical_relator(w[k:] + w[:k]) == c
        # idempotent
        assert canonical_relator(c) == c


def test_substitute():
    assert substitute((1, 2, 1), 1, (3,)) == (3, 2, 3)
    assert substitute((1, -1), 1, (2, 3)) == ()
    # inverse occurrences get the inverted replacement, result reduced
    assert substitute((-1,), 1, (2, 3)) == (-3, -2)
    assert substitute((-1, 2), 1, (2, 3)) == (-3,)


def test_presentation_validation():
    with pytest.raises(PresentationError):
        GroupPresentation(("a", "a"), ())
    with pytest.raises(PresentationError):
        GroupPresentation(("a",), ((2,),))
    with pytest.raises(PresentationError):
        GroupPresentation(("a",), ((0,),))
    p = GroupPresentation(("a", "b"), ((1, -2, 2, 1),))
    assert p.relators == ((1, 1),)


def test_format_word():
    p = GroupPresentation(("a", "b"), ())
    assert p.format_word(()) == "1"
    assert p.format_word((1, -2, 1)) == "a*b^-1*a"


def test_smith_diagonal_hand_cases():
    assert smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3) == [2, 2, 156]
    assert smith_diagonal([[1, 0], [0, 1]], 2) == [1, 1]
    assert smith_diagonal([[0, 0]], 2) == [0]
    assert smith_diagonal([], 3) == []
    with pytest.raises(ValueError):
        smith_diagonal([[1, 2], [3]], 2)


def test_smith_diagonal_matches_sympy():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        assert smith_diagonal(rows, n) == sympy_snf_diag(rows, n)


def test_smith_diagonal_divisibility():
    rng = random.Random(17)
    for _ in range(40):
        rows = [[rng.randint(-20, 20) for _ in range(3)] for _ in range(3)]
        d = smith_diagonal(rows, 3)
        for a, b in zip(d, d[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0


def test_in_row_lattice_hand_cases():
    assert in_row_lattice([[2, 0], [0, 2]], [2, 0])
    assert not in_row_lattice([[2, 0], [0, 2]], [1, 0])
    assert not in_row_lattice([[2]], [1])
    assert in_row_lattice([[1, 1]], [3, 3])
    assert not in_row_lattice([[1, 1]], [1, 0])
    assert in_row_lattice([], [0, 0])
    assert not in_row_lattice([], [0, 1])


def test_in_row_lattice_constructive():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        coeffs = [rng.randint(-3, 3) for _ in rows]
        vec = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
        assert in_row_lattice(rows, vec)
    # doubled rows never reach an odd vector
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = [[2 * rng.randint(-5, 5) for _ in range(n)] for _ in range(3)]
        vec = [2 * rng.randint(-5, 5) for _ in range(n)]
        vec[rng.randrange(n)] = 2 * rng.randint(-5, 5) + 1
        assert not in_row_lattice(rows, vec)


def test_abelian_invariants_validation():
    AbelianInvariants(0, (2, 4))
    with pytest.raises(PresentationError):
        AbelianInvariants(-1, ())
    with pytest.raises(PresentationError):
        AbelianInvariants(0, (1,))
    with pytest.raises(PresentationError):
        AbelianInvariants(0, (4, 2))


def test_abelianization_hand_cases():
    free2 = GroupPresentation(("a", "b"), ())
    assert abelianization(free2) == AbelianInvariants(2, ())

    z2 = GroupPresentation(("a",), ((1, 1),))
    assert abelianization(z2) == AbelianInvariants(0, (2,))

    # Z/2 x Z/3 == Z/6
    p = GroupPresentation(("a", "b"), ((1, 1), (2, 2, 2)))
    assert abelianization(p) == AbelianInvariants(0, (6,))

    comm = GroupPresentation(("a", "b"), ((1, 2, -1, -2),))
    assert abelianization(comm) == AbelianInvariants(2, ())

    trivial = GroupPresentation(("a",), ((1,),))
    assert abelianization(trivial) == AbelianInvariants(0, ())


def test_abelianization_matches_sympy():
    rng = random.Random(13)
    for _ in range(30):
        ngens = rng.randint(1, 4)
        rels = tuple(random_word(rng, ngens, 6) for _ in range(rng.randint(0, 4)))
        p = GroupPresentation(tuple(f"g{i}" for i in range(ngens)), rels)
        inv = abelianization(p)
        rows = []
        for r in p.relators:
            v = [0] * ngens
            for x in r:
                v[abs(x) - 1] += 1 if x > 0 else -1
            rows.append(v)
        diag = sympy_snf_diag(rows, ngens) if rows else []
        nonzero = [d for d in diag if d]
        assert inv.free_rank == ngens - len(nonzero)
        assert inv.torsion == tuple(d for d in nonzero if d > 1)


def test_tietze_kills_single_generator_relator():
    p = GroupPresentation(("a",), ((1,),))
    s = tietze_simplify(p)
    assert s.generators == ()
    assert s.relators == ()


def test_tietze_leaves_commutator_alone():
    p = GroupPresentation(("a", "b"), ((1, 2, -1, -2),))
    s = tietze_simplify(p)
    assert s.generators == ("a", "b")
    assert len(s.relators) == 1
    assert canonical_relator(s.relators[0]) == canonical_relator((1, 2, -1, -2))


def test_tietze_keeps_unused_generators():
    p = GroupPresentation(("a", "b", "c"), ((2, 2),))
    s = tietze_simplify(p)
    assert set(s.generators) == {"a", "b", "c"}


def test_tietze_eliminates_chained_definitions():
    # b defined as a^2, c defined as b^2: everything collapses onto a.
    p = GroupPresentation(("a", "b", "c"), ((-2, 1, 1), (-3, 2, 2)))
    s = tietze_simplify(p)
    assert s.generators == ("a",)
    assert s.relators == ()

    # same group with c = b*a gets stuck after one elimination, but the
    # invariants still say infinite cyclic
    q = GroupPresentation(("a", "b", "c"), ((-2, 1, 1), (-3, 2, 1)))
    assert abelianization(tietze_simplify(q)) == AbelianInvariants(1, ())


def test_tietze_renames_onto_survivor():
    p = GroupPresentation(("a", "b"), ((-2, 1),))
    s = tietze_simplify(p)
    assert s.generators == ("b",)
    assert s.relators == ()


def test_tietze_rewriter_trivializes_relators():
    rng = random.Random(41)
    for _ in range(30):
        ngens = rng.randint(1, 4)
        rels = tuple(random_word(rng, ngens, 6) for _ in range(rng.randint(1, 4)))
        p = GroupPresentation(tuple(f"g{i}" for i in range(ngens)), rels)
        res = tietze_with_rewriter(p)
        for r in p.relators:
            image = res.rewrite(r)
            # image must be trivial in the simplified group; in the
            # abelianization it must at least lie in the relator lattice
            k = len(res.presentation.generators)
            rows = []
            for rr in res.presentation.relators:
                v = [0] * k
                for x in rr:
                    v[abs(x) - 1] += 1 if x > 0 else -1
                rows.append(v)
            v = [0] * k
            for x in image:
                v[abs(x) - 1] += 1 if x > 0 else -1
            assert in_row_lattice(rows, v)


def test_tietze_rewriter_multiplicative():
    rng = random.Random(43)
    p = GroupPresentation(("a", "b", "c"), ((-3, 1, 2), (1, 1, 1)))
    res = tietze_with_rewriter(p)
    for _ in range(50):
        w1 = random_word(rng, 3, 6)
        w2 = random_word(rng, 3, 6)
        lhs = res.rewrite(w1 + w2)
        rhs = free_reduce(res.rewrite(w1) + res.rewrite(w2))
        assert lhs == rhs


def test_tietze_preserves_abelian_invariants():
    rng = random.Random(3)
    for _ in range(40):
        ngens = rng.randint(1, 4)
        rels = tuple(random_word(rng, ngens, 6) for _ in range(rng.randint(0, 4)))
        p = GroupPresentation(tuple(f"g{i}" for i in range(ngens)), rels)
        assert abelianization(tietze_simplify(p)) == abelianization(p)


# ---------------------------------------------------------------- properties

properties = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def presentations(draw, max_gens=4, max_relators=4, max_len=6):
    ngens = draw(st.integers(1, max_gens))
    letters = st.integers(1, ngens).flatmap(lambda g: st.sampled_from((g, -g)))
    words = st.lists(letters, max_size=max_len).map(tuple)
    rels = draw(st.lists(words, max_size=max_relators))
    return GroupPresentation(tuple(f"g{i}" for i in range(ngens)), tuple(rels))


@st.composite
def presentation_and_words(draw):
    p = draw(presentations())
    n = len(p.generators)
    letters = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    words = st.lists(letters, max_size=8).map(tuple)
    return p, draw(words), draw(words)


@st.composite
def matrix_and_vector(draw):
    n = draw(st.integers(1, 4))
    entries = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=4))
    if rows and draw(st.booleans()):
        # half the cases are members by construction
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        vec = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
    else:
        vec = draw(st.lists(entries, min_size=n, max_size=n))
    return rows, vec


def smith_member(rows, vec):
    """Membership by comparing Smith diagonals: the row lattice lies in
    the lattice with vec added, and equal invariant factors make the
    inclusion an equality."""
    n = len(vec)
    base = [d for d in smith_diagonal(rows, n) if d]
    ext = [d for d in smith_diagonal(list(rows) + [vec], n) if d]
    return base == ext


@properties
@given(presentation_and_words())
def test_property_rewrite_is_homomorphism(case):
    p, w1, w2 = case
    res = tietze_with_rewriter(p)
    assert res.rewrite(w1 + w2) == free_reduce(res.rewrite(w1) + res.rewrite(w2))
    assert res.rewrite(invert_word(w1)) == invert_word(res.rewrite(w1))


@properties
@given(presentations())
def test_property_tietze_keeps_abelianization(p):
    assert abelianization(tietze_with_rewriter(p).presentation) == abelianization(p)


@properties
@given(matrix_and_vector())
def test_property_echelon_membership_matches_smith(case):
    rows, vec = case
    n = len(vec)
    basis = echelon_basis(rows, n)
    assert lattice_contains(basis, vec) == smith_member(rows, vec)
    assert in_row_lattice(rows, vec) == smith_member(rows, vec)
    # Hermite shape: positive pivots moving right, reduced entries above
    pivots = [next(j for j, x in enumerate(b) if x) for b in basis]
    assert pivots == sorted(set(pivots))
    for i, (b, p) in enumerate(zip(basis, pivots)):
        assert b[p] > 0
        assert all(0 <= basis[k][p] < b[p] for k in range(i))
    # the basis spans the rows' lattice: every row is a member, and both
    # have the same invariant factors
    assert all(lattice_contains(basis, r) for r in rows)
    assert [d for d in smith_diagonal(basis, n) if d] == [
        d for d in smith_diagonal(rows, n) if d
    ]
