"""Finite groups as validated Cayley tables, plus the standard small groups.

Each named group's table comes from its own arithmetic, with no search for
products, and lists its elements in a fixed order:

* ``cyclic(n)``: ``0, 1, ..., n-1``;
* ``symmetric(n)``: the permutations of ``0..n-1`` in lexicographic order;
* ``dihedral(n)``: the rotations ``r^0, ..., r^(n-1)``, then the reflections
  ``r^0 s, ..., r^(n-1) s``, each labelled by its permutation of the vertices
  (comma-separated from n = 11 on);
* ``quaternion()``: ``1, -1, i, -i, j, -j, k, -k``;
* ``direct_product(g, h)``: the pairs ``(a, b)``, with ``b`` running fastest.
"""

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
        """The validated group; it keeps a read-only copy, so the caller's table stays writable."""
        return cls._adopt(elements, np.array(table, dtype=int))

    @classmethod
    def _adopt(cls, elements, table) -> "FiniteGroup":
        """:meth:`from_table` for a table no caller keeps: an int array is frozen and kept, not copied."""
        labels = tuple(str(e) for e in elements)
        t = np.asarray(table, dtype=int)
        m = len(labels)
        if t.shape != (m, m):
            raise GroupStructureError(f"table must be {m}x{m}, got {t.shape}")
        if m == 0:
            raise GroupStructureError("group must be non-empty")
        if len(set(labels)) != m:
            raise GroupStructureError("element labels must be distinct")
        if t.min() < 0 or t.max() >= m:
            raise GroupStructureError("table entries out of range")
        # row i (column j) is a permutation iff it hits every value 0..m-1
        full = np.arange(m)
        row_hits = np.zeros((m, m), dtype=bool)
        row_hits[full[:, None], t] = True
        col_hits = np.zeros((m, m), dtype=bool)
        col_hits[t, full] = True
        rows_ok, cols_ok = row_hits.all(axis=1), col_hits.all(axis=0)
        if not (rows_ok.all() and cols_ok.all()):
            i = int(np.argmin(rows_ok & cols_ok))
            kind = "row" if not rows_ok[i] else "column"
            raise GroupStructureError(f"{kind} {i} is not a permutation")

        is_identity = (t == full).all(axis=1) & (t == full[:, None]).all(axis=0)
        if not is_identity.any():
            raise GroupStructureError("no identity element found")
        identity = int(np.argmax(is_identity))

        # each row is a permutation, so it holds the identity exactly once
        inverses = np.argmax(t == identity, axis=1)
        one_sided = t[inverses, full] != identity
        if one_sided.any():
            raise GroupStructureError(
                f"element {int(np.argmax(one_sided))} has no two-sided inverse"
            )

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
        return cls(elements=labels, table=t, identity=identity, inverses=inverses)

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


def _capped(order: int) -> int:
    """``order``, checked against :data:`MAX_ORDER` before any table is built."""
    if order > MAX_ORDER:
        raise ValueError(f"group order {order} exceeds MAX_ORDER = {MAX_ORDER}")
    return order


def _perm_labels(perms: np.ndarray) -> list[str]:
    """Each permutation written as the string of its images of 0, 1, 2, ...

    From 11 points on the images are separated by commas: ``1,11,0`` and
    ``11,1,0`` would otherwise both read ``1110``.
    """
    sep = "," if perms.shape[1] >= 11 else ""
    return [sep.join(map(str, p.tolist())) for p in perms]


def cyclic(n: int) -> FiniteGroup:
    """Z_n with elements labelled 0..n-1."""
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    idx = np.arange(_capped(n))
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup._adopt([str(i) for i in range(n)], table)


def symmetric(n: int) -> FiniteGroup:
    """S_n, n <= 5 (plenty for fixtures); ``p * q`` is the composition ``x -> p(q(x))``."""
    if n < 1 or n > 5:
        raise ValueError("symmetric group supported for 1 <= n <= 5")
    perms = np.array(list(itertools.permutations(range(n))))
    # base-n codes increase in lexicographic order, so searchsorted indexes them
    place = n ** np.arange(n - 1, -1, -1)
    table = np.searchsorted(perms @ place, perms[:, perms] @ place)
    return FiniteGroup._adopt(_perm_labels(perms), table)


def dihedral(n: int) -> FiniteGroup:
    """D_n of order 2n, acting on the vertices of the n-gon.

    Element ``k`` is ``r^k: x -> x + k`` and element ``n + k`` is ``r^k s: x -> k - x``
    (mod n), and ``r^a s^e * r^b s^f = r^(a + (-1)^e b) s^(e + f)``.
    """
    if n < 3:
        raise ValueError("dihedral group needs n >= 3 (use Z2 x Z2 for order 4)")
    idx = np.arange(_capped(2 * n))
    a, e = idx % n, idx // n
    sign = 1 - 2 * e
    table = (a[:, None] + sign[:, None] * a) % n
    table[:n, n:] += n  # a product is a reflection exactly when one factor is
    table[n:, :n] += n
    perms = (a[:, None] + sign[:, None] * np.arange(n)) % n
    return FiniteGroup._adopt(_perm_labels(perms), table)


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
    """The quaternion group Q_8 = {+-1, +-i, +-j, +-k}.

    Its 2x2 matrices have entries in {0, +-1, +-i}, so each product is exactly one unit.
    """
    units = np.array(list(_QUATERNION_UNITS.values()))
    products = units[:, None] @ units[None, :]
    table = np.argmax((products[:, :, None] == units).all(axis=(-2, -1)), axis=-1)
    return FiniteGroup._adopt(list(_QUATERNION_UNITS), table)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with componentwise multiplication; ``(a, b)`` has index ``a * |H| + b``."""
    mg, mh = g.order, h.order
    _capped(mg * mh)
    labels = [f"({a},{b})" for a in g.elements for b in h.elements]
    table = g.table[:, None, :, None] * mh + h.table[None, :, None, :]
    return FiniteGroup._adopt(labels, table.reshape(mg * mh, mg * mh))


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
