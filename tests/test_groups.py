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
from kreinkit.groups import MAX_ORDER


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


def test_corrupted_table_rejected():
    t = cyclic(4).table.copy()
    t[1, 2] = 0  # duplicate in row 1
    with pytest.raises(GroupStructureError):
        FiniteGroup.from_table(["0", "1", "2", "3"], t)


def test_non_associative_latin_square_rejected():
    # a Latin square with two-sided identity that fails associativity
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupStructureError):
        FiniteGroup.from_table(list("abcde"), table)


def test_out_of_range_entries_rejected():
    with pytest.raises(GroupStructureError):
        FiniteGroup.from_table(["e", "s"], [[0, 1], [1, 5]])


def test_named_group_resolution():
    assert named_group("Z6").order == 6
    assert named_group("d4").order == 8
    assert named_group("S4").order == 24
    assert named_group("Q8").order == 8
    with pytest.raises(ValueError):
        named_group("E8")


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
