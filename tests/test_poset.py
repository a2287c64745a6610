"""Poset construction, neighbor queries and indicator estimation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dysonnet.errors import DomainError, NumericError, ShapeError
from dysonnet.kernels import ActivationRule, KernelSpec, conditional_group_law, estimate_indicator
from dysonnet.poset import ScalePoset, build_s_system, load_network_json
from oracles import evaluate_plan


def chain(n):
    nodes = tuple(str(i) for i in range(n))
    return ScalePoset(nodes, tuple((str(i), str(i + 1)) for i in range(n - 1)), "0")


def diamond():
    return ScalePoset(("0", "a", "b", "2"), (("0", "a"), ("0", "b"), ("a", "2"), ("b", "2")), "0")


class TestNeighbors:
    def test_chain_successor(self):
        p = chain(3)
        assert p.successors("0") == {"1"}
        assert p.successors("2") == set()

    def test_chain_predecessor(self):
        p = chain(3)
        assert p.predecessors("2") == {"1"}
        assert p.predecessors("0") == set()

    def test_diamond_by_exhaustive_comparison(self):
        # oracle: minimal strict upper bounds / maximal strict lower bounds
        p = diamond()
        nodes = p.node_ids

        def oracle_succ(s):
            above = {t for t in nodes if p.less(s, t)}
            return {t for t in above if not any(p.less(u, t) for u in above)}

        def oracle_pred(s):
            below = {t for t in nodes if p.less(t, s)}
            return {t for t in below if not any(p.less(t, u) for u in below)}

        for s in nodes:
            assert p.successors(s) == oracle_succ(s)
            assert p.predecessors(s) == oracle_pred(s)
        assert p.successors("0") == {"a", "b"}
        assert p.predecessors("2") == {"a", "b"}

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            chain(3).successors("zz")
        with pytest.raises(DomainError):
            chain(3).predecessors("zz")


class TestValidation:
    def test_cycle_rejected(self):
        with pytest.raises(DomainError):
            ScalePoset(("a", "b"), (("a", "b"), ("b", "a")), "a")

    def test_two_minimal_rejected(self):
        with pytest.raises(DomainError):
            ScalePoset(("a", "b", "c"), (("a", "c"), ("b", "c")), "a")

    def test_minimal_must_match(self):
        with pytest.raises(DomainError):
            ScalePoset(("a", "b"), (("a", "b"),), "b")

    def test_self_edge_rejected(self):
        with pytest.raises(DomainError):
            ScalePoset(("a",), (("a", "a"),), "a")


def dense_spec(rows, cols, rule=ActivationRule.ARGMAX_MASK_01, seed=0):
    rng = np.random.default_rng(seed)
    return KernelSpec(rng.standard_normal((rows, cols))), rule


class TestBuild:
    def test_chain_is_mlp_wiring(self):
        p = chain(4)
        specs = {"1": dense_spec(3, 5), "2": dense_spec(5, 4), "3": dense_spec(4, 2)}
        plan = build_s_system(p, 3, specs)
        assert plan.evaluation_order == ("1", "2", "3")
        assert [layer.input_nodes for layer in plan.layers] == [("0",), ("1",), ("2",)]
        assert plan.terminal_nodes == ("3",)
        assert plan.output_dim == 2

    def test_single_node_identity(self):
        p = ScalePoset(("0",), (), "0")
        plan = build_s_system(p, 4, {})
        assert plan.layers == ()
        x = np.arange(4.0)
        out, states = evaluate_plan(plan, x)
        assert np.array_equal(out, x)
        assert states == {}

    def test_diamond_concatenates_predecessors(self):
        specs = {
            "a": dense_spec(3, 2, seed=1),
            "b": dense_spec(3, 4, seed=2),
            "2": dense_spec(6, 2, seed=3),
        }
        plan = build_s_system(diamond(), 3, specs)
        top = [layer for layer in plan.layers if layer.node == "2"][0]
        assert top.input_nodes == ("a", "b")
        assert top.in_dim == 6
        # evaluation wires a's output before b's output
        x = np.array([0.5, -1.0, 2.0])
        out, states = evaluate_plan(plan, x)
        t_in = states["2"].t_in
        assert np.array_equal(t_in[:2], states["a"].h_tilde)
        assert np.array_equal(t_in[2:], states["b"].h_tilde)

    def test_layers_ordered_by_height_then_id(self):
        # heights: 19 and 2 are 1, 13 and 6 are 2, and 16 (above 13) and 3 are 3;
        # ids sort as strings within a height
        edges = (("4", "19"), ("4", "2"), ("19", "13"), ("19", "6"), ("2", "16"),
                 ("13", "16"), ("6", "3"))
        poset = ScalePoset(("2", "3", "4", "6", "13", "16", "19"), edges, "4")
        specs = {node: (KernelSpec(np.ones((len(poset.predecessors(node)), 1))),
                        ActivationRule.ARGMAX_MASK_01)
                 for node in poset.node_ids if node != "4"}
        plan = build_s_system(poset, 1, specs)
        assert plan.evaluation_order == ("19", "2", "13", "6", "16", "3")

    def test_missing_spec(self):
        with pytest.raises(DomainError):
            build_s_system(chain(3), 2, {"1": dense_spec(2, 2)})

    def test_shape_mismatch(self):
        specs = {"1": dense_spec(2, 3), "2": dense_spec(5, 1)}
        with pytest.raises(ShapeError):
            build_s_system(chain(3), 2, specs)


def all_posets_up_to(n_max):
    """Every labeled strict partial order with a unique bottom on <= n_max nodes."""
    for n in range(1, n_max + 1):
        nodes = tuple(str(i) for i in range(n))
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for mask in range(2 ** len(pairs)):
            rel = np.zeros((n, n), dtype=bool)
            for bit, (a, b) in enumerate(pairs):
                if mask >> bit & 1:
                    rel[a, b] = True
            closure = rel.copy()
            for k in range(n):
                closure |= np.outer(closure[:, k], closure[k, :])
            if np.any(np.diag(closure)):
                continue
            sources = [i for i in range(n) if not closure[:, i].any()]
            if sources != [0]:
                continue
            edges = tuple(
                (nodes[a], nodes[b])
                for a in range(n)
                for b in range(n)
                if closure[a, b] and not any(closure[a, k] and closure[k, b] for k in range(n))
            )
            yield ScalePoset(nodes, edges, "0")


def random_poset(rng, n):
    """Random order with unique bottom: node 0 below everything."""
    while True:
        rel = np.triu(rng.random((n, n)) < 0.4, k=1)
        rel[0, 1:] |= ~rel[:, 1:].any(axis=0)
        perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])
        nodes = tuple(str(i) for i in range(n))
        closure = rel.copy()
        for k in range(n):
            closure |= np.outer(closure[:, k], closure[k, :])
        edges = tuple(
            (nodes[perm[a]], nodes[perm[b]])
            for a in range(n)
            for b in range(n)
            if closure[a, b] and not any(closure[a, k] and closure[k, b] for k in range(n))
        )
        try:
            return ScalePoset(nodes, edges, str(perm[0]))
        except DomainError:
            continue


def assert_plan_topological(poset):
    """Exhaustive oracle: the plan order is among all valid topological orders."""
    specs = {}
    dims = {poset.minimal: 1}
    order_guess = sorted(n for n in poset.node_ids if n != poset.minimal)
    # assign unit widths so any wiring is dimension-consistent
    for node in order_guess:
        dims[node] = 1
    for node in order_guess:
        in_dim = len(poset.predecessors(node))
        specs[node] = (KernelSpec(np.ones((in_dim, 1))), ActivationRule.ARGMAX_MASK_01)
    plan = build_s_system(poset, 1, specs)
    non_minimal = [n for n in poset.node_ids if n != poset.minimal]
    valid = set()
    for perm in itertools.permutations(non_minimal):
        position = {node: i for i, node in enumerate(perm)}
        if all(
            position[a] < position[b]
            for a in non_minimal
            for b in non_minimal
            if poset.less(a, b)
        ):
            valid.add(perm)
    assert plan.evaluation_order in valid
    for layer in plan.layers:
        assert set(layer.input_nodes) == poset.predecessors(layer.node)


class TestTopologicalOracle:
    def test_exhaustive_small(self):
        count = 0
        for poset in all_posets_up_to(4):
            assert_plan_topological(poset)
            count += 1
        assert count == 86  # labeled unique-bottom posets on 1..4 nodes: 1+1+3+81

    def test_random_medium(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            assert_plan_topological(random_poset(rng, int(rng.integers(5, 7))))


class TestCovers:
    def test_covers_are_the_hasse_edges(self):
        # both generators pass exactly the covering pairs of their order as edges
        rng = np.random.default_rng(9)
        posets = [*all_posets_up_to(4), *(random_poset(rng, 8) for _ in range(50))]
        for p in posets:
            succ = {(s, t) for s in p.node_ids for t in p.successors(s)}
            pred = {(t, s) for s in p.node_ids for t in p.predecessors(s)}
            assert succ == pred == set(p.cover_edges)


class TestConditionalGroupLaw:
    def test_zero_weight_uniform(self):
        spec = KernelSpec(np.zeros((3, 4)))
        law = conditional_group_law(spec, np.array([1.0, -2.0, 0.5]))
        assert np.allclose(law, 0.5)

    def test_zero_logit_symmetric(self):
        spec = KernelSpec(np.array([[1.0], [-1.0]]))
        law = conditional_group_law(spec, np.array([1.0, 1.0]))
        assert np.allclose(law, [[0.5, 0.5]])

    def test_log3_gives_quarter(self):
        spec = KernelSpec(np.array([[np.log(3.0)]]))
        law = conditional_group_law(spec, np.array([1.0]))
        assert np.allclose(law, [[0.25, 0.75]], atol=1e-15)

    def test_rows_normalize(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            rows, cols = rng.integers(1, 6, size=2)
            field = rng.choice(["01", "pm1"])
            spec = KernelSpec(3.0 * rng.standard_normal((rows, cols)), field)
            law = conditional_group_law(spec, 3.0 * rng.standard_normal(rows))
            assert np.all(law >= 0)
            assert np.abs(law.sum(axis=1) - 1.0).max() <= 1e-12

    def test_pm1_field(self):
        spec = KernelSpec(np.array([[0.7]]), "pm1")
        law = conditional_group_law(spec, np.array([1.0]))
        # pmf over {-1, +1} proportional to exp(+-0.7)
        expected = np.exp([-0.7, 0.7])
        assert np.allclose(law[0], expected / expected.sum())

    def test_nonfinite_rejected(self):
        spec = KernelSpec(np.ones((2, 2)))
        with pytest.raises(NumericError):
            conditional_group_law(spec, np.array([1.0, np.nan]))

    def test_rows_match_single_inputs(self):
        rng = np.random.default_rng(12)
        for field in ("01", "pm1"):
            spec = KernelSpec(3.0 * rng.standard_normal((3, 4)), field)
            rows = 3.0 * rng.standard_normal((5, 3))
            law = conditional_group_law(spec, rows)
            assert law.shape == (5, 4, 2)
            for row, row_law in zip(rows, law):
                assert np.abs(row_law - conditional_group_law(spec, row)).max() <= 1e-15
        with pytest.raises(ShapeError):
            conditional_group_law(spec, np.ones((5, 4)))


class TestEstimateIndicator:
    def test_argmax_mask(self):
        h_tilde, h_prime = estimate_indicator(ActivationRule.ARGMAX_MASK_01, np.array([2.0, -3.0]))
        assert np.array_equal(h_tilde, [2.0, 0.0])
        assert np.array_equal(h_prime, [1.0, 0.0])

    def test_argmax_equals_ramp_everywhere(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal(100000) * 10
        h_tilde, _ = estimate_indicator(ActivationRule.ARGMAX_MASK_01, h)
        assert np.array_equal(h_tilde, np.maximum(0.0, h))

    def test_logistic_at_zero(self):
        h_tilde, _ = estimate_indicator(ActivationRule.PARTIAL_EXPECTATION_01, np.array([0.0]))
        assert h_tilde[0] == 0.5

    def test_mask_expectation_at_zero(self):
        h_tilde, _ = estimate_indicator(ActivationRule.EXPECTATION_MASK_01, np.array([0.0]))
        assert h_tilde[0] == 0.0

    def test_output_ranges(self):
        # float64 saturates tanh at |h| ~ 19 and the logistic at |h| ~ 37;
        # the open-interval ranges are tested inside the representable band
        h = np.linspace(-15, 15, 1001)
        sig, _ = estimate_indicator(ActivationRule.PARTIAL_EXPECTATION_01, h)
        tanh, _ = estimate_indicator(ActivationRule.PARTIAL_EXPECTATION_PM1, h)
        assert np.all((sig > 0) & (sig < 1))
        assert np.all((tanh > -1) & (tanh < 1))

    def test_argmax_agrees_with_group_law(self):
        # per coordinate, the mask picks the most probable indicator value;
        # ties at zero preactivation resolve to inactive
        rng = np.random.default_rng(3)
        for _ in range(200):
            rows, cols = rng.integers(1, 7, size=2)
            spec = KernelSpec(rng.standard_normal((rows, cols)))
            t = rng.standard_normal(rows)
            h_hat = spec.weight.T @ t
            law = conditional_group_law(spec, t)
            argmax_value = np.where(law[:, 1] > law[:, 0], 1.0, 0.0)
            h_tilde, _ = estimate_indicator(ActivationRule.ARGMAX_MASK_01, h_hat)
            assert np.allclose(h_tilde, argmax_value * h_hat)

    def test_argmax_tie_resolves_inactive(self):
        h_tilde, h_prime = estimate_indicator(ActivationRule.ARGMAX_MASK_01, np.array([0.0]))
        assert h_tilde[0] == 0.0
        assert h_prime[0] == 0.0

    @pytest.mark.parametrize(
        "rule",
        [
            ActivationRule.ARGMAX_MASK_01,
            ActivationRule.EXPECTATION_MASK_01,
            ActivationRule.PARTIAL_EXPECTATION_01,
            ActivationRule.PARTIAL_EXPECTATION_PM1,
        ],
    )
    def test_derivative_matches_central_difference(self, rule):
        rng = np.random.default_rng(17)
        h = rng.standard_normal(500) * 4
        h = h[np.abs(h) > 1e-3]
        step = 1e-6
        _, h_prime = estimate_indicator(rule, h)
        up, _ = estimate_indicator(rule, h + step)
        down, _ = estimate_indicator(rule, h - step)
        fd = (up - down) / (2 * step)
        assert np.abs(h_prime - fd).max() <= 1e-6


class TestJsonLoading:
    def test_round_trip(self, tmp_path):
        doc = {
            "nodes": ["0", "1", "2"],
            "edges": [["0", "1"], ["1", "2"]],
            "layers": {
                "1": {"rows": 2, "cols": 3, "field": "01", "rule": "relu",
                      "weights": [1, 2, 3, 4, 5, 6]},
                "2": {"rows": 3, "cols": 1, "field": "01", "rule": "relu",
                      "weights": [1, 0, -1]},
            },
        }
        path = tmp_path / "net.json"
        path.write_text(__import__("json").dumps(doc))
        poset, specs = load_network_json(path)
        assert poset.minimal == "0"
        assert specs["1"][0].weight.shape == (2, 3)
        assert specs["1"][0].weight[0, 1] == 2.0  # row-major layout
        assert specs["2"][1] is ActivationRule.ARGMAX_MASK_01
        plan = build_s_system(poset, 2, specs)
        assert plan.evaluation_order == ("1", "2")

    def test_bad_rule_rejected(self):
        doc = {
            "nodes": ["0", "1"],
            "edges": [["0", "1"]],
            "layers": {"1": {"rows": 1, "cols": 1, "field": "01", "rule": "gelu", "weights": [1]}},
        }
        with pytest.raises(DomainError):
            load_network_json(doc)

    def test_malformed_entry_names_node(self):
        doc = {
            "nodes": ["0", "1"],
            "edges": [["0", "1"]],
            "layers": {"1": {"rows": 2, "cols": 2, "rule": "relu", "weights": [1, 2, 3]}},
        }
        with pytest.raises(DomainError, match="layer entry for node '1'"):
            load_network_json(doc)


class TestPropertyBased:
    """Hypothesis sweeps over the closed-form identities."""

    @given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-30, 30)),
           hnp.arrays(np.float64, 3, elements=st.floats(-30, 30)))
    @settings(max_examples=200, deadline=None)
    def test_group_law_rows_always_normalize(self, weight, t):
        for field in ("01", "pm1"):
            law = conditional_group_law(KernelSpec(weight, field), t)
            assert np.all(law >= 0)
            assert np.abs(law.sum(axis=1) - 1.0).max() <= 1e-12

    @given(hnp.arrays(np.float64, 16, elements=st.floats(-1e6, 1e6)))
    @settings(max_examples=300, deadline=None)
    def test_argmax_mask_is_ramp(self, h):
        h_tilde, h_prime = estimate_indicator(ActivationRule.ARGMAX_MASK_01, h)
        assert np.array_equal(h_tilde, np.maximum(0.0, h))
        assert np.array_equal(h_prime, (h > 0).astype(float))
