"""Finite groups as validated Cayley tables, plus the standard small groups."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupStructureError",
    "FiniteGroup",
    "cyclic",
    "dihedral",
    "symmetric",
    "quaternion",
    "direct_product",
    "named_group",
]

#: Exhaustive associativity checking is done up to this order; beyond it a
#: fixed-size random sample of triples is used.
EXHAUSTIVE_ORDER = 64
SAMPLED_TRIPLES = 10_000

#: Largest group order built: a table of order m takes 8 m^2 bytes.
MAX_ORDER = 4096


class GroupStructureError(ValueError):
    """Raised when a Cayley table does not describe a group."""


@dataclass(frozen=True)
class FiniteGroup:
    """Element labels plus the full multiplication table.

    ``table[i, j]`` is the index of ``elements[i] * elements[j]``.  The
    identity and inverse table are located during validation.
    """

    elements: tuple[str, ...]
    table: np.ndarray
    identity: int
    inverses: np.ndarray

    @classmethod
    def from_table(cls, elements, table) -> "FiniteGroup":
        labels = tuple(str(e) for e in elements)
        t = np.asarray(table, dtype=int)
        m = len(labels)
        if t.shape != (m, m):
            raise GroupStructureError(f"table must be {m}x{m}, got {t.shape}")
        if m == 0:
            raise GroupStructureError("group must be non-empty")
        if t.min() < 0 or t.max() >= m:
            raise GroupStructureError("table entries out of range")
        full = np.arange(m)
        for i in range(m):
            if not np.array_equal(np.sort(t[i]), full):
                raise GroupStructureError(f"row {i} is not a permutation")
            if not np.array_equal(np.sort(t[:, i]), full):
                raise GroupStructureError(f"column {i} is not a permutation")

        identity = None
        for e in range(m):
            if np.array_equal(t[e], full) and np.array_equal(t[:, e], full):
                identity = e
                break
        if identity is None:
            raise GroupStructureError("no identity element found")

        inverses = np.empty(m, dtype=int)
        for g in range(m):
            hits = np.where(t[g] == identity)[0]
            if hits.size != 1 or t[hits[0], g] != identity:
                raise GroupStructureError(f"element {g} has no two-sided inverse")
            inverses[g] = hits[0]

        if m <= EXHAUSTIVE_ORDER:
            # table[table[i, j], k] vs table[i, table[j, k]] over all triples
            if not np.array_equal(t[t, :], t[:, t]):
                raise GroupStructureError("multiplication is not associative")
        else:
            rng = np.random.default_rng(0)
            i, j, k = rng.integers(0, m, size=(3, SAMPLED_TRIPLES))
            if not np.array_equal(t[t[i, j], k], t[i, t[j, k]]):
                raise GroupStructureError("multiplication is not associative")

        t.setflags(write=False)
        inverses.setflags(write=False)
        return cls(elements=labels, table=t, identity=int(identity), inverses=inverses)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mult(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverses[i])

    def left_translation(self, g: int) -> np.ndarray:
        """Permutation matrix of h -> g*h (column h has its 1 at row g*h)."""
        m = self.order
        p = np.zeros((m, m))
        p[self.table[g], np.arange(m)] = 1.0
        return p


def _closure(generators, mul, key, label):
    """Generic closure of a generator set under an associative product."""
    elems = []
    index = {}

    def add(x):
        k = key(x)
        if k not in index:
            index[k] = len(elems)
            elems.append(x)
        return index[k]

    pending = [add(g) for g in generators]
    frontier = list(range(len(elems)))
    while frontier:
        nxt = []
        for i in frontier:
            for j in range(len(elems)):
                for prod in (mul(elems[i], elems[j]), mul(elems[j], elems[i])):
                    before = len(elems)
                    add(prod)
                    if len(elems) > before:
                        nxt.append(len(elems) - 1)
            if len(elems) > MAX_ORDER:
                raise GroupStructureError("generator closure did not terminate")
        frontier = nxt
    m = len(elems)
    table = np.empty((m, m), dtype=int)
    for i in range(m):
        for j in range(m):
            table[i, j] = index[key(mul(elems[i], elems[j]))]
    return FiniteGroup.from_table([label(x) for x in elems], table)


def _capped(order: int) -> int:
    """``order``, checked against :data:`MAX_ORDER` before any table is built."""
    if order > MAX_ORDER:
        raise ValueError(f"group order {order} exceeds MAX_ORDER = {MAX_ORDER}")
    return order


def cyclic(n: int) -> FiniteGroup:
    """Z_n with elements labelled 0..n-1."""
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    idx = np.arange(_capped(n))
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup.from_table([str(i) for i in range(n)], table)


def _perm_group(perms) -> FiniteGroup:
    perms = [tuple(p) for p in perms]
    return _closure(
        perms,
        mul=lambda p, q: tuple(p[q[i]] for i in range(len(p))),
        key=lambda p: p,
        label=lambda p: "".join(str(i) for i in p),
    )


def symmetric(n: int) -> FiniteGroup:
    """S_n as permutations of 0..n-1 (n <= 5 is plenty for fixtures)."""
    if n < 1 or n > 5:
        raise ValueError("symmetric group supported for 1 <= n <= 5")
    return _perm_group(itertools.permutations(range(n)))


def dihedral(n: int) -> FiniteGroup:
    """D_n of order 2n, acting on the vertices of the n-gon."""
    if n < 3:
        raise ValueError("dihedral group needs n >= 3 (use Z2 x Z2 for order 4)")
    _capped(2 * n)
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((n - i) % n for i in range(n))
    return _perm_group([rotation, reflection])


_QUATERNION_UNITS = {
    "1": np.array([[1, 0], [0, 1]], dtype=complex),
    "-1": np.array([[-1, 0], [0, -1]], dtype=complex),
    "i": np.array([[1j, 0], [0, -1j]], dtype=complex),
    "-i": np.array([[-1j, 0], [0, 1j]], dtype=complex),
    "j": np.array([[0, 1], [-1, 0]], dtype=complex),
    "-j": np.array([[0, -1], [1, 0]], dtype=complex),
    "k": np.array([[0, 1j], [1j, 0]], dtype=complex),
    "-k": np.array([[0, -1j], [-1j, 0]], dtype=complex),
}


def quaternion() -> FiniteGroup:
    """The quaternion group Q_8 = {+-1, +-i, +-j, +-k}."""

    def key(mat):
        return tuple(np.round(mat, 9).reshape(-1).view(float))

    names = {key(mat): name for name, mat in _QUATERNION_UNITS.items()}
    return _closure(
        [_QUATERNION_UNITS["i"], _QUATERNION_UNITS["j"]],
        mul=lambda a, b: a @ b,
        key=key,
        label=lambda mat: names[key(mat)],
    )


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with componentwise multiplication."""
    mg, mh = g.order, h.order
    _capped(mg * mh)
    labels = [f"({g.elements[i]},{h.elements[j]})" for i in range(mg) for j in range(mh)]
    table = np.empty((mg * mh, mg * mh), dtype=int)
    for i1 in range(mg):
        for j1 in range(mh):
            row = i1 * mh + j1
            table[row] = (g.table[i1][:, None] * mh + h.table[j1][None, :]).reshape(-1)
    return FiniteGroup.from_table(labels, table)


def named_group(name: str) -> FiniteGroup:
    """Resolve names like ``Z4``, ``D4``, ``S3``, ``Q8`` to group instances."""
    name = name.strip().upper()
    if name == "Q8":
        return quaternion()
    if name and name[0] in "ZDS" and name[1:].isdigit():
        n = int(name[1:])
        if name[0] == "Z":
            return cyclic(n)
        if name[0] == "D":
            return dihedral(n)
        return symmetric(n)
    raise ValueError(f"unknown group name {name!r} (use Z<n>, D<n>, S<n>, or Q8)")
