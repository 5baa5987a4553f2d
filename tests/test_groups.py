import itertools

import numpy as np
import pytest

from kreinkit import (
    FiniteGroup,
    GroupStructureError,
    cyclic,
    dihedral,
    direct_product,
    named_group,
    quaternion,
    symmetric,
)
from kreinkit.groups import EXHAUSTIVE_ORDER, MAX_ORDER, _perm_labels
from kreinkit.serialization import group_from_json


@pytest.mark.parametrize(
    "group,order,abelian",
    [
        (cyclic(1), 1, True),
        (cyclic(2), 2, True),
        (cyclic(7), 7, True),
        (symmetric(3), 6, False),
        (dihedral(4), 8, False),
        (quaternion(), 8, False),
        (direct_product(cyclic(2), cyclic(2)), 4, True),
        (symmetric(4), 24, False),
    ],
)
def test_standard_groups(group, order, abelian):
    assert group.order == order
    t = group.table
    is_abelian = np.array_equal(t, t.T)
    assert is_abelian == abelian
    e = group.identity
    for g in range(order):
        assert group.mult(e, g) == g == group.mult(g, e)
        assert group.mult(g, group.inv(g)) == e


def test_quaternion_structure():
    q8 = quaternion()
    labels = set(q8.elements)
    assert labels == {"1", "-1", "i", "-i", "j", "-j", "k", "-k"}
    idx = {name: i for i, name in enumerate(q8.elements)}
    assert q8.mult(idx["i"], idx["j"]) == idx["k"]
    assert q8.mult(idx["j"], idx["i"]) == idx["-k"]
    assert q8.mult(idx["i"], idx["i"]) == idx["-1"]


def test_left_translation_is_regular_rep():
    g = symmetric(3)
    for a in range(g.order):
        for b in range(g.order):
            pa, pb = g.left_translation(a), g.left_translation(b)
            assert np.array_equal(pa @ pb, g.left_translation(g.mult(a, b)))


# a Latin square with two-sided identity that fails associativity; each element is its own inverse
NON_ASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


@pytest.mark.parametrize(
    "table,message",
    [
        ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "row 1 is not a permutation"),
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "column 1 is not a permutation"),
        # row 1 is bad too, but column 0 comes first
        ([[0, 1], [0, 0]], "column 0 is not a permutation"),
        ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], "no identity element found"),
        # x * y = y - x (mod 3): 0 is a left identity only
        ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "no identity element found"),
        # 2 * 3 = 0 but 3 * 2 = 1
        (
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
            "element 2 has no two-sided inverse",
        ),
        ([[0, -1], [1, 0]], "table entries out of range"),
        ([[0, 1], [1, 0], [0, 1]], "table must be 2x2, got \\(3, 2\\)"),
    ],
    ids=["row", "column", "first-index", "no-identity", "left-identity", "one-sided-inverse",
         "below-range", "shape"],
)
def test_corrupted_tables_rejected(table, message):
    with pytest.raises(GroupStructureError, match=f"^{message}$"):
        FiniteGroup.from_table([f"g{i}" for i in range(len(table[0]))], table)


def _loop_reference_error(t):
    """The first defect the per-row checks find, in their order, or None."""
    m, full = len(t), list(range(len(t)))
    for i in range(m):
        if sorted(t[i]) != full:
            return f"row {i} is not a permutation"
        if sorted(row[i] for row in t) != full:
            return f"column {i} is not a permutation"
    ids = [e for e in range(m) if t[e] == full and [row[e] for row in t] == full]
    if not ids:
        return "no identity element found"
    for g in range(m):
        if t[t[g].index(ids[0])][g] != ids[0]:
            return f"element {g} has no two-sided inverse"
    return None


@pytest.mark.parametrize("name", ["Z6", "S3", "D4", "Q8"])
def test_array_checks_match_the_loop_reference(name):
    # corrupt a table by overwriting one entry, or by swapping two entries of a
    # row, two rows, or two values throughout
    rng = np.random.default_rng(3)
    base = named_group(name).table.tolist()
    m = len(base)
    for _ in range(100):
        t = [row[:] for row in base]
        i, j, k = (int(x) for x in rng.integers(0, m, size=3))
        kind = rng.integers(0, 4)
        if kind == 0:
            t[i][j] = k
        elif kind == 1:
            t[i][j], t[i][k] = t[i][k], t[i][j]
        elif kind == 2:
            t[i], t[j] = t[j], t[i]
        else:
            t = [[{j: k, k: j}.get(x, x) for x in row] for row in t]
        expected = _loop_reference_error(t)
        if expected is None:
            continue  # a group or a loop: associativity is checked as before
        with pytest.raises(GroupStructureError, match=f"^{expected}$"):
            FiniteGroup.from_table([str(x) for x in range(m)], t)


def test_corrupted_table_rejected():
    t = cyclic(4).table.copy()
    t[1, 2] = 0  # duplicate in row 1
    with pytest.raises(GroupStructureError, match="row 1 is not a permutation"):
        FiniteGroup.from_table(["0", "1", "2", "3"], t)


def test_non_associative_latin_square_rejected():
    with pytest.raises(GroupStructureError, match="multiplication is not associative"):
        FiniteGroup.from_table(list("abcde"), NON_ASSOCIATIVE_LOOP)


def test_non_associative_above_the_exhaustive_order():
    # loop x Z13 has order 65 > EXHAUSTIVE_ORDER, so only sampled triples are checked
    loop, z13 = np.array(NON_ASSOCIATIVE_LOOP), cyclic(13).table
    table = (loop[:, None, :, None] * 13 + z13[None, :, None, :]).reshape(65, 65)
    assert table.shape[0] > EXHAUSTIVE_ORDER
    with pytest.raises(GroupStructureError, match="multiplication is not associative"):
        FiniteGroup.from_table([str(i) for i in range(65)], table)


def test_out_of_range_entries_rejected():
    with pytest.raises(GroupStructureError, match="table entries out of range"):
        FiniteGroup.from_table(["e", "s"], [[0, 1], [1, 5]])


def test_repeated_labels_rejected():
    with pytest.raises(GroupStructureError, match="element labels must be distinct"):
        FiniteGroup.from_table(["a", "a"], [[0, 1], [1, 0]])
    with pytest.raises(GroupStructureError, match="element labels must be distinct"):
        group_from_json({"elements": ["a", "a"], "table": [[0, 1], [1, 0]]})


def test_named_group_resolution():
    assert named_group("Z6").order == 6
    assert named_group("d4").order == 8
    assert named_group("S4").order == 24
    assert named_group("Q8").order == 8
    with pytest.raises(ValueError):
        named_group("E8")


@pytest.mark.parametrize(
    "build,message",
    [(lambda: cyclic(0), "cyclic group order must be positive"),
     (lambda: symmetric(6), "symmetric group supported for 1 <= n <= 5"),
     (lambda: dihedral(2), "dihedral group needs n >= 3")],
    ids=["Z0", "S6", "D2"],
)
def test_builders_reject_orders_out_of_range(build, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


@pytest.mark.parametrize(
    "build",
    [lambda: named_group("Z4097"), lambda: named_group("D2049"),
     lambda: direct_product(cyclic(64), cyclic(65))],
    ids=["Z4097", "D2049", "Z64xZ65"],
)
def test_order_cap_fires_before_the_table_is_built(build):
    # a table of order m takes 8 m^2 bytes; named groups stop at MAX_ORDER
    assert MAX_ORDER == 4096
    with pytest.raises(ValueError, match="exceeds MAX_ORDER = 4096"):
        build()


def _perm_label(p) -> str:
    p = list(p)
    return ("," if len(p) >= 11 else "").join(map(str, p))


def _check_perm_table(group, perms):
    """table[i, j] is the element x -> p_i(p_j(x)), found through the labels."""
    by_label = {_perm_label(p): tuple(p) for p in perms}
    assert sorted(group.elements) == sorted(by_label)
    index = {label: i for i, label in enumerate(group.elements)}
    for i, a in enumerate(group.elements):
        p = by_label[a]
        for j, b in enumerate(group.elements):
            q = by_label[b]
            assert group.table[i, j] == index[_perm_label(p[x] for x in q)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_composes_permutations(n):
    # lexicographic order plus composition fixes the table bit for bit
    group = symmetric(n)
    assert group.elements == tuple(_perm_label(p) for p in itertools.permutations(range(n)))
    _check_perm_table(group, itertools.permutations(range(n)))


@pytest.mark.parametrize("n", [*range(3, 13), 100])
def test_dihedral_composes_symmetries_of_the_polygon(n):
    group = dihedral(n)
    rotations = [[(k + x) % n for x in range(n)] for k in range(n)]
    reflections = [[(k - x) % n for x in range(n)] for k in range(n)]
    _check_perm_table(group, rotations + reflections)
    assert group.identity == 0 and group.elements[0] == _perm_label(range(n))


def test_quaternion_multiplies_matrices():
    one = np.eye(2, dtype=complex)
    i = np.array([[1j, 0], [0, -1j]])
    j = np.array([[0, 1], [-1, 0]], dtype=complex)
    units = {"1": one, "i": i, "j": j, "k": i @ j}
    units.update({f"-{name}": -u for name, u in list(units.items())})
    q8 = quaternion()
    assert sorted(q8.elements) == sorted(units)
    for a, x in enumerate(q8.elements):
        for b, y in enumerate(q8.elements):
            assert np.array_equal(units[q8.elements[q8.mult(a, b)]], units[x] @ units[y])


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_cyclic_adds_mod_n(n):
    group = cyclic(n)
    assert group.elements == tuple(str(i) for i in range(n))
    for a, x in enumerate(group.elements):
        for b, y in enumerate(group.elements):
            assert group.elements[group.mult(a, b)] == str((int(x) + int(y)) % n)


@pytest.mark.parametrize(
    "g,h", [(symmetric(3), cyclic(4)), (cyclic(2), cyclic(2))], ids=["S3xZ4", "Z2xZ2"]
)
def test_direct_product_multiplies_componentwise(g, h):
    group = direct_product(g, h)
    pairs = {f"({x},{y})": (a, b) for a, x in enumerate(g.elements) for b, y in enumerate(h.elements)}
    assert group.elements == tuple(pairs)  # the second factor runs fastest
    for i, u in enumerate(group.elements):
        for j, v in enumerate(group.elements):
            (a1, b1), (a2, b2) = pairs[u], pairs[v]
            w = group.elements[group.mult(i, j)]
            assert pairs[w] == (g.mult(a1, a2), h.mult(b1, b2))


def test_large_dihedral_builds():
    group = dihedral(1024)
    assert group.order == 2048 and group.identity == 0
    assert group.mult(1, 1023) == 0 and group.mult(1024, 1024) == 0  # r * r^-1 and s * s


def test_from_table_copies_the_callers_table():
    t = np.array([[0, 1], [1, 0]])
    group = FiniteGroup.from_table(["e", "s"], t)
    assert group.table is not t and t.flags.writeable and not group.table.flags.writeable
    t[0, 0] = 1
    assert group.table.tolist() == [[0, 1], [1, 0]]


def test_permutation_labels_are_unambiguous_from_eleven_points():
    # without a separator both would read 11102345678910
    a, b = [1, 11, 0, *range(2, 11)], [11, 1, 0, *range(2, 11)]
    assert _perm_labels(np.array([a, b])) == ["1,11,0,2,3,4,5,6,7,8,9,10", "11,1,0,2,3,4,5,6,7,8,9,10"]


@pytest.mark.parametrize("n", [11, 100])
def test_dihedral_labels_parse_back_to_their_permutations(n):
    rotations = [[(k + x) % n for x in range(n)] for k in range(n)]
    reflections = [[(k - x) % n for x in range(n)] for k in range(n)]
    labels = dihedral(n).elements
    assert [[int(x) for x in label.split(",")] for label in labels] == rotations + reflections


def test_labels_below_eleven_points_are_digit_strings():
    # S4 and S5 label the group-certify and cli-cold inputs; D3..D10 keep theirs too
    assert symmetric(3).elements == ("012", "021", "102", "120", "201", "210")
    for n in range(3, 11):
        labels = dihedral(n).elements
        assert labels[n + 1] == "".join(str((1 - x) % n) for x in range(n))
        assert all(len(label) == n for label in labels)
