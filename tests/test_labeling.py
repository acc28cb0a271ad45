"""Tests for Definition 2 labeling (Figure 2) and Lemma 1."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.dist.hat import hat_shape
from repro.dist.labeling import (
    ancestor_index,
    is_valid_path,
    left_child_index,
    make_path,
    right_child_index,
)


def tree_keys(shape, j):
    """Phase ``j``'s segment tree ids (anchor labels, levels from the cut)
    in key order: their own sorted order, derived here independently."""
    return sorted({shape.label(i)[1:] for i in range(shape.size) if shape.dim[i] == j})


def fan_out(shape, i):
    """The tree ids hat leaf ``i``'s points fan out to, nearest first."""
    keys = shape.fan_keys[shape.fan_off[i] : shape.fan_off[i] + shape.fan_len[i]]
    anchors = tree_keys(shape, int(shape.dim[i]) + 1)
    return [anchors[key] for key in keys.tolist()]


class TestFigure2Arithmetic:
    """The exact index relations illustrated in the paper's Figure 2."""

    def test_children_of_x(self):
        x = 5
        assert left_child_index(x) == 2 * x
        assert right_child_index(x) == 2 * x + 1

    def test_grandchildren_of_x(self):
        """Figure 2: the four grandchildren of index x are 4x..4x+3."""
        x = 3
        kids = [left_child_index(x), right_child_index(x)]
        grand = []
        for k in kids:
            grand.extend([left_child_index(k), right_child_index(k)])
        assert grand == [4 * x, 4 * x + 1, 4 * x + 2, 4 * x + 3]

    def test_descendant_root_inherits_index(self):
        """Figure 2: Index(V) = Index(U) = x when V = root of descendant(U)."""
        shape = hat_shape(8, 3)
        anchors = [i for i in range(shape.size) if shape.desc[i] >= 0]
        assert anchors
        for u in anchors:
            v = int(shape.desc[u])
            assert shape.label(v) == (shape.label(u)[0],) + shape.label(u)

    def test_parent_inverts_children(self):
        for x in range(1, 100):
            assert ancestor_index(left_child_index(x), 1) == x
            assert ancestor_index(right_child_index(x), 1) == x

    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=0, max_value=20))
    def test_ancestor_index_composition(self, x: int, k: int):
        y = x
        for _ in range(k):
            y = ancestor_index(y, 1)
        assert ancestor_index(x, k) == y


class TestLeafIndex:
    """A phase's groups are its hat leaves in label order: tree by tree,
    each tree's leaf level left to right."""

    def test_positions_enumerate_level(self):
        # T1 on p = 4: root (1, 2), hat leaves at the cut: 4, 5, 6, 7
        shape = hat_shape(4, 1)
        assert [shape.label(i) for i in shape.groups[0]] == [((x, 0),) for x in (4, 5, 6, 7)]

    def test_inherited_root_index(self):
        # p = 16: the phase-1 tree hanging from T1 node (6, 2) is rooted at
        # index 6, height 2, so its leaves are 24..27
        shape = hat_shape(16, 2)
        got = [shape.label(i)[0][0] for i in shape.groups[1] if shape.label(i)[1:] == ((6, 2),)]
        assert got == [24, 25, 26, 27]

    def test_leaf_index_consistent_with_child_arithmetic(self):
        """Descending left/right from the root must enumerate the level."""
        shape = hat_shape(16, 1)
        for m, leaf in enumerate(shape.groups[0].tolist()):
            row = 0
            for bit in format(m, "04b"):
                row = int(shape.right[row] if bit == "1" else shape.left[row])
            assert row == leaf


class TestPaths:
    def test_t1_paths_are_singletons(self):
        p = make_path(5, 2, ())
        assert p == ((5, 2),)
        assert p[1:] == ()

    def test_nested_path(self):
        u = make_path(3, 4, ())
        v = make_path(12, 2, u)
        assert v == ((12, 2), (3, 4))
        assert v[1:] == u

    def test_root_level_of_tree(self):
        """A tree's root level: log p (the cut's height) for T1, else its
        anchor's level."""
        shape = hat_shape(16, 3)
        assert shape.label(0) == ((1, 4),)
        for u in range(shape.size):
            if shape.desc[u] >= 0:
                assert shape.label(int(shape.desc[u]))[0][1] == shape.label(u)[0][1]

    def test_lemma1_distinct_trees_have_distinct_ids(self):
        """Lemma 1: path(ancestor) uniquely identifies the segment tree."""
        ids = set()
        for idx in range(1, 16):
            for lvl in range(0, 4):
                ids.add(make_path(idx, lvl, ()))
        assert len(ids) == 15 * 4  # all distinct


class TestHatAncestorPaths:
    """Construct fans a hat leaf's points out to the descendant trees its
    proper ancestors anchor, nearest first, named by the trees' keys."""

    def test_walk_to_root(self):
        # hat leaf (12, 0) of T1 on p = 8: ancestors (6, 1), (3, 2), (1, 3)
        shape = hat_shape(8, 2)
        leaf = next(i for i in shape.groups[0].tolist() if shape.label(i) == ((12, 0),))
        assert fan_out(shape, leaf) == [((6, 1),), ((3, 2),), ((1, 3),)]
        # a key is the tree id's rank in the phase: (1,3) (2,2) (3,2) (4,1) ...
        assert shape.fan_keys[shape.fan_off[leaf] : shape.fan_off[leaf] + 3].tolist() == [5, 2, 0]

    def test_leaf_at_root_level_yields_nothing(self):
        # p = 1: the one hat leaf is its tree's root
        shape = hat_shape(1, 3)
        assert shape.fan_len.tolist() == [0]
        assert len(shape.fan_keys) == 0

    def test_count_is_height_difference(self):
        """One record per level between the cut and the tree's root — log p
        for T1, the anchor's level otherwise — and none off the last
        dimension."""
        shape = hat_shape(32, 3)
        for j, groups in enumerate(shape.groups):
            for leaf in groups.tolist():
                tid = shape.label(leaf)[1:]
                root_level = tid[0][1] if tid else 5
                assert shape.fan_len[leaf] == (root_level if j < 2 else 0)

    def test_nested_tree_ids_carried(self):
        shape = hat_shape(16, 3)
        for leaf in shape.groups[1].tolist():
            tid = shape.label(leaf)[1:]
            fanned = fan_out(shape, leaf)
            assert all(anchor[1:] == tid for anchor in fanned)
            assert [anchor[0][1] for anchor in fanned] == list(range(1, tid[0][1] + 1))


class TestPathValidation:
    def test_valid_paths(self):
        assert is_valid_path(((1, 3),))
        u = make_path(3, 4, ())
        assert is_valid_path(make_path(12, 2, u))

    def test_level_must_not_increase(self):
        assert not is_valid_path(((3, 5), (3, 4)))

    def test_index_must_lie_under_root(self):
        # node index 99 cannot live in a tree rooted at index 3 level 4 if
        # its ancestor arithmetic doesn't reach 3
        assert not is_valid_path(((99, 2), (3, 4)))

    def test_empty_invalid(self):
        assert not is_valid_path(())

    def test_nonpositive_index_invalid(self):
        assert not is_valid_path(((0, 1),))
