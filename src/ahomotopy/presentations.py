"""Finite group presentations, free-word algebra, Tietze
simplification, abelian invariants via integer Smith normal form, and
integer lattice membership via Hermite normal form.

A word is a tuple of nonzero ints: letter ``k`` is the k-th generator
(1-based), ``-k`` its inverse.  Relators are read cyclically, so they
are normalized to a canonical rotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class PresentationError(ValueError):
    """Invalid presentation data."""


def free_reduce(word) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs."""
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_word(word) -> tuple[int, ...]:
    return tuple(-x for x in reversed(word))


def cyclic_reduce(word) -> tuple[int, ...]:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def canonical_relator(word) -> tuple[int, ...]:
    """Cyclically reduce, then take the least rotation of the word or
    its inverse.  Two relators with the same normal closure contribution
    up to rotation and inversion get the same canonical form."""
    w = cyclic_reduce(word)
    if not w:
        return ()
    best = None
    for cand in (w, invert_word(w)):
        for k in range(len(cand)):
            rot = cand[k:] + cand[:k]
            if best is None or rot < best:
                best = rot
    return best


def substitute(word, gen: int, replacement) -> tuple[int, ...]:
    """Replace every occurrence of generator ``gen`` by ``replacement``
    (and inverses by the inverse), then freely reduce."""
    rep = tuple(replacement)
    rep_inv = invert_word(rep)
    out = []
    for x in word:
        if x == gen:
            out.extend(rep)
        elif x == -gen:
            out.extend(rep_inv)
        else:
            out.append(x)
    return free_reduce(out)


def exponent_vector(word, ngens: int) -> list[int]:
    v = [0] * ngens
    for x in word:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return v


@dataclass(frozen=True)
class GroupPresentation:
    """Generators with names, and relators stored freely reduced."""

    generators: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("duplicate generator names")
        n = len(self.generators)
        reduced = []
        for r in self.relators:
            for x in r:
                if not isinstance(x, int) or x == 0 or abs(x) > n:
                    raise PresentationError(f"letter {x!r} outside generator range")
            reduced.append(free_reduce(r))
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(reduced))

    def format_word(self, word) -> str:
        if not word:
            return "1"
        parts = []
        for x in word:
            name = self.generators[abs(x) - 1]
            parts.append(name if x > 0 else name + "^-1")
        return "*".join(parts)

    def __repr__(self):
        return (
            f"GroupPresentation({len(self.generators)} generators, "
            f"{len(self.relators)} relators)"
        )


@dataclass(frozen=True)
class AbelianInvariants:
    """Rank and torsion of a finitely generated abelian group, torsion
    in divisibility order."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise PresentationError("negative free rank")
        torsion = tuple(int(t) for t in self.torsion)
        for t in torsion:
            if t < 2:
                raise PresentationError(f"torsion entry {t} < 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise PresentationError("torsion entries must divide in order")
        object.__setattr__(self, "torsion", torsion)


def smith_diagonal(rows, ncols: int) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix given by
    rows, as nonnegative entries each dividing the next.  Exact integer
    arithmetic throughout."""
    a = [list(map(int, r)) for r in rows]
    m, n = len(a), ncols
    for r in a:
        if len(r) != n:
            raise ValueError("ragged matrix")
    size = min(m, n)
    diag = []
    t = 0
    while t < size:
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
        while True:
            progress = False
            for i in range(t + 1, m):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                if q:
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                if a[i][t]:
                    # Nonzero remainder: it is strictly smaller, promote it.
                    a[t], a[i] = a[i], a[t]
                    progress = True
            for j in range(t + 1, n):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                if q:
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                if a[t][j]:
                    for i in range(t, m):
                        a[i][t], a[i][j] = a[i][j], a[i][t]
                    progress = True
            if progress:
                continue
            d = a[t][t]
            witness = None
            for i in range(t + 1, m):
                if any(a[i][j] % d for j in range(t + 1, n)):
                    witness = i
                    break
            if witness is None:
                break
            # Fold a row with a non-divisible entry into the pivot row so
            # the next pass replaces the pivot by a proper divisor.
            for j in range(t, n):
                a[t][j] += a[witness][j]
        diag.append(abs(a[t][t]))
        t += 1
    while len(diag) < size:
        diag.append(0)
    return diag


def echelon_basis(rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Basis of the integer row lattice of a matrix, in Hermite normal
    form: each row's first nonzero entry (its pivot) is positive and
    lies strictly right of the previous row's, and the entries above a
    pivot lie in [0, pivot).  Only unimodular row operations are used,
    so the rows span the same lattice as the input."""
    a = [list(map(int, r)) for r in rows]
    for r in a:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    basis = []
    for c in range(ncols):
        active = [r for r in a if r[c]]
        if not active:
            continue
        while True:
            # Euclid down the column: the least entry divides the others
            # with remainder until it is the only nonzero one left.
            piv = min(active, key=lambda r: abs(r[c]))
            rest = []
            for r in active:
                if r is piv:
                    continue
                q = r[c] // piv[c]
                for j in range(c, ncols):
                    r[j] -= q * piv[j]
                if r[c]:
                    rest.append(r)
            if not rest:
                break
            active = rest + [piv]
        a = [r for r in a if r is not piv and any(r)]
        if piv[c] < 0:
            piv = [-x for x in piv]
        for b in basis:
            q = b[c] // piv[c]
            if q:
                for j in range(c, ncols):
                    b[j] -= q * piv[j]
        basis.append(piv)
    return tuple(tuple(b) for b in basis)


def lattice_contains(basis, vec) -> bool:
    """Is ``vec`` in the lattice spanned by an ``echelon_basis``?  Each
    pivot entry of ``vec`` must be a multiple of the pivot, and once
    those multiples are subtracted nothing may remain."""
    v = list(vec)
    for row in basis:
        p = next(j for j, x in enumerate(row) if x)
        q, rem = divmod(v[p], row[p])
        if rem:
            return False
        if q:
            for j in range(p, len(v)):
                v[j] -= q * row[j]
    return not any(v)


def in_row_lattice(rows, vec) -> bool:
    """Is ``vec`` an integer combination of the rows?"""
    vec = list(map(int, vec))
    return lattice_contains(echelon_basis(rows, len(vec)), vec)


def abelianization(p: GroupPresentation) -> AbelianInvariants:
    """Invariants of the abelianized presentation: exponent-sum matrix,
    Smith normal form, unit entries dropped."""
    ngens = len(p.generators)
    rows = [exponent_vector(r, ngens) for r in p.relators]
    diag = smith_diagonal(rows, ngens)
    nonzero = [d for d in diag if d]
    free_rank = ngens - len(nonzero)
    torsion = tuple(d for d in nonzero if d > 1)
    return AbelianInvariants(free_rank, torsion)


@dataclass(frozen=True)
class TietzeResult:
    """A simplified presentation plus the substitution trail needed to
    rewrite words over the original generators into the new ones."""

    presentation: GroupPresentation
    original: GroupPresentation
    eliminations: tuple[tuple[int, tuple[int, ...]], ...]
    renumber: dict[int, int] = field(hash=False)

    def rewrite(self, word) -> tuple[int, ...]:
        """Image of a word over the original generators, freely reduced
        over the surviving generators."""
        w = free_reduce(word)
        for gen, rep in self.eliminations:
            w = substitute(w, gen, rep)
        out = []
        for x in w:
            new = self.renumber[abs(x)]
            out.append(new if x > 0 else -new)
        return free_reduce(out)


def tietze_with_rewriter(p: GroupPresentation) -> TietzeResult:
    """Simplify by free/cyclic reduction, removal of empty relators,
    deduplication of relators up to rotation and inversion, and
    elimination of any generator occurring exactly once in some relator.

    Every move preserves the presented group; eliminations are recorded
    so arbitrary words can be rewritten into the surviving generators.
    Unused generators are kept: they are free factors, not noise.
    """
    ngens = len(p.generators)
    relators = _clean_relators(p.relators)
    alive = set(range(1, ngens + 1))
    eliminations = []
    while True:
        candidate = None
        for r in relators:
            counts = {}
            for x in r:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            for g, c in sorted(counts.items()):
                if c == 1:
                    key = (len(r), r, g)
                    if candidate is None or key < candidate[0]:
                        candidate = (key, r, g)
            # Relators are scanned exhaustively; the least key wins.
        if candidate is None:
            break
        _, r, g = candidate
        pos = next(k for k, x in enumerate(r) if abs(x) == g)
        u, letter, v = r[:pos], r[pos], r[pos + 1 :]
        if letter > 0:
            rep = invert_word(u) + invert_word(v)
        else:
            rep = tuple(v) + tuple(u)
        eliminations.append((g, rep))
        alive.discard(g)
        relators = _clean_relators(
            substitute(other, g, rep) for other in relators if other is not r
        )
    renumber = {g: k + 1 for k, g in enumerate(sorted(alive))}
    names = tuple(p.generators[g - 1] for g in sorted(alive))
    new_relators = sorted(
        tuple(renumber[abs(x)] * (1 if x > 0 else -1) for x in r) for r in relators
    )
    simplified = GroupPresentation(names, tuple(new_relators))
    return TietzeResult(simplified, p, tuple(eliminations), renumber)


def tietze_simplify(p: GroupPresentation) -> GroupPresentation:
    return tietze_with_rewriter(p).presentation


def _clean_relators(relators) -> list[tuple[int, ...]]:
    """Canonicalize, drop empties, deduplicate, deterministic order."""
    seen = {}
    for r in relators:
        c = canonical_relator(r)
        if c:
            seen.setdefault(c, None)
    return sorted(seen, key=lambda w: (len(w), w))
