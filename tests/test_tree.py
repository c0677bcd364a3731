import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import binary_tree, random_tree, three_node_tree, trinomial_tree
from treeval.errors import ValidationError
from treeval.tree import (
    CashBalance,
    NodeRecord,
    build_tree,
    children,
    descendants,
    hitting_stop,
    replace_after,
    stop_index,
    stopping_time,
    subtree_mass,
)


class TestBuildTree:
    def test_smallest_branching_tree(self):
        t = build_tree([
            NodeRecord("r", None),
            NodeRecord("a", "r"),
            NodeRecord("b", "r"),
        ])
        assert t.depth == 1
        assert len(t.leaf_indices) == 2
        assert t.root == "r"

    def test_chain(self):
        t = build_tree([NodeRecord("a", None), NodeRecord("b", "a"), NodeRecord("c", "b")])
        assert t.depth == 2
        assert len(t.leaf_indices) == 1

    def test_missing_parent_rejected(self):
        with pytest.raises(ValidationError, match="missing parent"):
            build_tree([NodeRecord("r", None), NodeRecord("a", "nope")])

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            build_tree([NodeRecord("r", None), NodeRecord("r", "r")])

    def test_multiple_roots_rejected(self):
        with pytest.raises(ValidationError, match="multiple roots"):
            build_tree([NodeRecord("r", None), NodeRecord("s", None), NodeRecord("a", "r"), NodeRecord("b", "s")])

    def test_unequal_leaf_depths_rejected(self):
        with pytest.raises(ValidationError, match="same depth"):
            build_tree([
                NodeRecord("r", None),
                NodeRecord("a", "r"),
                NodeRecord("b", "r"),
                NodeRecord("aa", "a"),
            ])

    def test_lone_root_rejected(self):
        with pytest.raises(ValidationError, match="depth >= 1"):
            build_tree([NodeRecord("r", None)])

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError, match="unreachable"):
            build_tree([
                NodeRecord("r", None),
                NodeRecord("x", "r"),
                NodeRecord("a", "b"),
                NodeRecord("b", "a"),
            ])

    def test_partial_weights_rejected(self):
        with pytest.raises(ValidationError, match="every node or on none"):
            build_tree([
                NodeRecord("r", None),
                NodeRecord("a", "r", 0.5),
                NodeRecord("b", "r", None),
            ])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError, match="strictly positive"):
            build_tree([
                NodeRecord("r", None, 0.5),
                NodeRecord("a", "r", 0.0),
                NodeRecord("b", "r", 0.5),
            ])


class TestDescendants:
    def test_leaf_is_its_own_subtree(self):
        t = three_node_tree()
        assert descendants(t, "up") == {"up"}

    def test_root_of_depth1(self):
        t = three_node_tree()
        assert descendants(t, "root") == {"root", "up", "down"}

    def test_depth2_trinomial_count(self):
        # oracle: 1 + 3 + 9 by direct enumeration of the level sizes
        t = trinomial_tree(depth=2)
        assert len(descendants(t, "r")) == 1 + 3 + 9

    def test_children_special_case(self):
        t = trinomial_tree(depth=2)
        assert children(t, "r") == ("a", "b", "c")

    def test_unknown_node(self):
        t = three_node_tree()
        with pytest.raises(ValidationError, match="unknown node"):
            descendants(t, "zzz")

    def test_level_groups_cover_internal_nodes_deepest_first(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            base = random_tree(rng)
            # records in shuffled order: children may precede their parents
            records = [NodeRecord(i, None if base.parent_index[base.node_index(i)] < 0
                                  else base.ids[base.parent_index[base.node_index(i)]])
                       for i in rng.permutation(base.ids)]
            t = build_tree(records)
            seen, last_time = [], t.depth
            for nodes, kids in t.level_groups:
                times = {int(t.time[u]) for u in nodes}
                assert len(times) == 1 and times.pop() <= last_time
                last_time = int(t.time[nodes[0]])
                assert kids.shape == (nodes.size, len(t.children_index[nodes[0]]))
                for u, row in zip(nodes.tolist(), kids.tolist()):
                    assert tuple(row) == t.children_index[u]
                seen.extend(nodes.tolist())
            assert sorted(seen) == [i for i in range(t.n_nodes) if not t.is_leaf[i]]

    def test_partition_into_child_subtrees(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = random_tree(rng)
            for node_id in t.ids:
                i = t.node_index(node_id)
                parts = [descendants(t, t.ids[c]) for c in t.children_index[i]]
                union = {node_id}
                total = 1
                for p in parts:
                    union |= p
                    total += len(p)
                assert union == descendants(t, node_id)
                assert total == len(descendants(t, node_id))


class TestSubtreeMass:
    def test_root_mass_is_one(self):
        t = three_node_tree()
        assert subtree_mass(t, "root") == pytest.approx(1.0, abs=1e-12)

    def test_leaf_mass_is_weight(self):
        t = three_node_tree()
        assert subtree_mass(t, "up") == pytest.approx(0.4, abs=1e-15)

    def test_direct_sum(self):
        t = three_node_tree((0.2, 0.4, 0.4))
        assert subtree_mass(t, "root") == pytest.approx(0.2 + 0.4 + 0.4, abs=1e-15)

    def test_requires_weights(self):
        t = random_tree(np.random.default_rng(0), weighted=False)
        with pytest.raises(ValidationError, match="no node weights"):
            subtree_mass(t, t.root)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_mass_recursion(self, seed):
        t = random_tree(np.random.default_rng(seed))
        for node_id in t.ids:
            i = t.node_index(node_id)
            expected = t.weights[i] + sum(subtree_mass(t, t.ids[c]) for c in t.children_index[i])
            assert subtree_mass(t, node_id) == pytest.approx(expected, abs=1e-12)


class TestStoppingTimes:
    def test_hitting_root(self):
        t = three_node_tree()
        assert hitting_stop(t, "root").graph == frozenset({"root"})

    def test_hitting_leaf_is_all_leaves(self):
        t = binary_tree(2)
        st_ = hitting_stop(t, "uu")
        leaves = {t.ids[i] for i in t.leaf_indices}
        assert st_.graph == leaves

    def test_hitting_internal_node(self):
        # oracle: enumerate the four root-to-leaf paths of the depth-2
        # binary tree and intersect with {u} plus off-branch leaves
        t = binary_tree(2)
        st_ = hitting_stop(t, "u")
        assert st_.graph == frozenset({"u", "du", "dd"})

    def test_hitting_satisfies_invariant_exhaustively(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            t = random_tree(rng, max_depth=4)
            for node_id in t.ids:
                hitting_stop(t, node_id)  # stopping_time() validates internally

    def test_stop_index_matches_walking_up(self):
        # oracle: from each node, follow parents to the first graph node;
        # any mask works, antichain or not, and the batch axis is free
        rng = np.random.default_rng(12)
        for _ in range(10):
            t = random_tree(rng, max_depth=4)
            masks = rng.uniform(size=(6, t.n_nodes)) < 0.3
            at = stop_index(t, masks)
            assert at.shape == masks.shape
            for row, mask in zip(at, masks):
                for u in range(t.n_nodes):
                    v = u
                    while v >= 0 and not mask[v]:
                        v = t.parent_index[v]
                    assert row[u] == v

    def test_subtree_sums_match_descendants(self):
        rng = np.random.default_rng(13)
        t = random_tree(rng, max_depth=4)
        values = rng.normal(size=t.n_nodes)
        sums = t.subtree_sums(values)
        for i in range(t.n_nodes):
            assert sums[i] == pytest.approx(values[t.descendant_indices(i)].sum(), abs=1e-12)

    def test_invalid_graph_rejected(self):
        t = binary_tree(2)
        with pytest.raises(ValidationError, match="not a stopping time"):
            stopping_time(t, {"r", "u"})
        with pytest.raises(ValidationError, match="not a stopping time"):
            stopping_time(t, {"u"})


class TestCashBalance:
    def test_total_map_required(self):
        t = three_node_tree()
        with pytest.raises(ValidationError, match="missing"):
            CashBalance.from_mapping(t, {"root": 1.0, "up": 2.0})
        with pytest.raises(ValidationError, match="unknown"):
            CashBalance.from_mapping(t, {"root": 1.0, "up": 2.0, "down": 0.0, "zzz": 1.0})

    def test_round_trip(self):
        t = three_node_tree()
        m = {"root": 0.5, "up": -1.25, "down": 3.0}
        assert CashBalance.from_mapping(t, m).as_mapping() == m

    def test_values_read_only(self):
        t = three_node_tree()
        k = CashBalance.constant(t, 1.0)
        with pytest.raises(ValueError):
            k.values[0] = 2.0


class TestReplaceAfter:
    def test_root_stop_gives_constant(self):
        t = binary_tree(2)
        k = CashBalance(t, np.arange(t.n_nodes, dtype=float))
        out = replace_after(k, stopping_time(t, {"r"}), {"r": 7.5})
        assert np.all(out.values == 7.5)

    def test_terminal_pasting_is_identity(self):
        t = binary_tree(2)
        rng = np.random.default_rng(3)
        k = CashBalance(t, rng.normal(size=t.n_nodes))
        leaves = {t.ids[i]: k.values[i] for i in t.leaf_indices}
        out = replace_after(k, stopping_time(t, set(leaves)), leaves)
        assert np.array_equal(out.values, k.values)

    def test_time1_zeroing(self):
        # nodewise construction: values kept strictly before time 1, zero after
        t = binary_tree(2)
        k = CashBalance(t, np.arange(t.n_nodes, dtype=float))
        sigma = stopping_time(t, {"u", "d"})
        out = replace_after(k, sigma, {"u": 0.0, "d": 0.0})
        for node_id in t.ids:
            i = t.node_index(node_id)
            expected = k.values[i] if node_id == "r" else 0.0
            assert out.values[i] == expected

    def test_missing_replacement_value(self):
        t = binary_tree(1)
        k = CashBalance.constant(t, 1.0)
        with pytest.raises(ValidationError, match="missing"):
            replace_after(k, stopping_time(t, {"u", "d"}), {"u": 0.0})

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_constant_after_stop(self, seed):
        rng = np.random.default_rng(seed)
        t = random_tree(rng)
        k = CashBalance(t, rng.uniform(-5, 5, t.n_nodes))
        stop = hitting_stop(t, t.ids[int(rng.integers(t.n_nodes))])
        repl = {z: float(rng.normal()) for z in stop.graph}
        out = replace_after(k, stop, repl)
        for z, v in repl.items():
            for i in t.descendant_indices(t.node_index(z)):
                assert out.values[i] == v
