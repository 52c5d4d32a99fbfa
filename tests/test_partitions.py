from itertools import combinations

import pytest

from boxops import partitions, posets
from boxops.bits import iter_bits
from boxops.complexes import greedy_collapse, replay_trace
from boxops.errors import FalsificationError, IntegrityError
from boxops.homology import reduced_homology
from boxops.partitions import (
    ArcContext,
    OrderedPartition,
    all_contexts,
    compatible,
    compatible_blocks,
    collapse_driver,
    block_infimum,
    le_partition,
    least_element,
    matching_check,
    preceq,
    preceq_blocks,
    compatible_predecessor,
    wedge,
)
from boxops.textform import from_box_expr

from conftest import seeded_contexts
from oracles import (
    generic_cycle_search,
    maximal_cliques,
    naive_closure,
    oracle_collapse_driver,
    oracle_compatibility_masks,
    oracle_gradient_order,
    oracle_partitions,
    oracle_refinement_poset,
)


def part(*blocks):
    return OrderedPartition.from_blocks(blocks)


def ctx_free(k):
    return ArcContext.from_arcs(k, ())


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_refinement_poset_equals_le_partition_oracle(k):
    for ctx in all_contexts(k):
        got, want = ctx.poset(), oracle_refinement_poset(ctx)
        assert got.elements == want.elements
        assert got.up == want.up


# ---------------------------------------------------------------------------
# contexts and enumeration


def test_forced_separation():
    ctx = ArcContext.from_arcs(2, [(0, 1)])
    assert [v.alpha for v in ctx.partitions()] == [(1, 2)]


def test_unconstrained_two_elements():
    ctx = ctx_free(2)
    assert [v.alpha for v in ctx.partitions()] == [(1, 1), (1, 2), (2, 1)]


def test_partition_counts_fubini():
    assert len(ctx_free(3).partitions()) == 13
    assert len(ctx_free(4).partitions()) == 75


def test_partitions_equal_the_product_enumeration():
    contexts = [ctx for k in range(5) for ctx in all_contexts(k)]
    contexts += seeded_contexts(5, 300, 15, max_partitions=541) + [ctx_free(5)]
    for ctx in contexts:
        want = oracle_partitions(ctx.k, ctx.closure())
        assert [v.alpha for v in ctx.partitions()] == want
    assert len(ctx_free(5).partitions()) == 541


def test_context_rejects_cycles():
    with pytest.raises(IntegrityError):
        ArcContext.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def test_context_refuses_exactly_the_cyclic_arc_sets():
    for k in range(4):
        pairs = [(x, y) for x in range(k) for y in range(k) if x != y]
        for r in range(len(pairs) + 1):
            for arcs in combinations(pairs, r):
                if generic_cycle_search(k, arcs):
                    with pytest.raises(IntegrityError):
                        ArcContext.from_arcs(k, arcs)
                else:
                    assert ArcContext.from_arcs(k, arcs).one_arcs == frozenset(arcs)


def test_context_from_graph_object():
    obj = from_box_expr("1[]1 2", 2)
    ctx = ArcContext.from_graph_object(obj)
    assert ctx.one_arcs == frozenset({(0, 1)})


def test_all_contexts_counts():
    # strict partial orders on a labeled set: 1, 1, 3, 19, 219, 4231
    assert len(all_contexts(0)) == 1
    assert len(all_contexts(1)) == 1
    assert len(all_contexts(2)) == 3
    assert len(all_contexts(3)) == 19
    assert len(all_contexts(4)) == 219
    assert len(all_contexts(5)) == 4231


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_all_contexts_are_the_closures_of_the_acyclic_arc_sets(k):
    pairs = [(x, y) for x in range(k) for y in range(k) if x != y]
    closures = set()
    for r in range(len(pairs) + 1):
        for arcs in combinations(pairs, r):
            if not generic_cycle_search(k, arcs):
                closures.add(tuple(sorted(naive_closure(k, arcs))))
    got = [tuple(sorted(ctx.one_arcs)) for ctx in all_contexts(k)]
    assert got == sorted(closures)
    assert all(ctx.closure() == ctx.one_arcs for ctx in all_contexts(k))


def test_enumerate_matches_over_poset_identification():
    # the admissible-partition poset is the over-poset of the decreasing
    # decomposables at obj, for every obj at small scale
    from boxops.contractibility import object_poset
    from boxops.posets import poset_isomorphic

    from conftest import family_members, row_subposet

    ambient = list(family_members("ke", 2, 3))
    sub = {o.key for o in family_members("mdown", 2, 3)}
    big = object_poset(ambient)
    down = big.down_rows()
    for obj in ambient:
        ctx = ArcContext.from_graph_object(obj)
        left = ctx.poset()
        right = row_subposet(big, down[big.index[obj.key]], within=sub)
        assert poset_isomorphic(left, right) is not None


# ---------------------------------------------------------------------------
# compatibility


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_compatibility_rows_equal_pairwise_oracle(k):
    for ctx in all_contexts(k):
        assert ctx.compatibility_masks() == oracle_compatibility_masks(ctx)


def test_compatibility_rows_equal_pairwise_oracle_free_k5():
    ctx = ctx_free(5)
    assert len(ctx.partitions()) == 541
    assert ctx.compatibility_masks() == oracle_compatibility_masks(ctx)


def test_compatibility_rows_never_call_compatible():
    # the rows come from the weakly-ordered columns alone; compatible stays
    # the definition they are held to
    def names(code):
        out = set(code.co_names)
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                out |= names(const)
        return out

    for fn in (partitions._compatibility_masks.__wrapped__, partitions._order_rows):
        assert not names(fn.__code__) & {"compatible", "compatible_blocks"}


def test_cap_reflexive_and_crossing():
    for v in ctx_free(3).partitions():
        assert compatible(v, v)
    assert not compatible(part({0}, {1}), part({1}, {0}))


def test_cap_worked_example():
    v = part({0}, {1}, {2, 3})
    w = part({1}, {0}, {2, 3})
    u = part({0, 1}, {2, 3})
    assert not compatible(v, w)
    assert compatible(v, u) and compatible(u, v)
    assert compatible(w, u) and compatible(u, w)


def test_cap_two_characterizations_agree_exhaustive_k4():
    parts = ctx_free(4).partitions()
    for v in parts:
        for w in parts:
            assert compatible(v, w) == compatible_blocks(v, w)


def test_cap_is_symmetric():
    parts = ctx_free(3).partitions()
    for v in parts:
        for w in parts:
            assert compatible(v, w) == compatible(w, v)


# ---------------------------------------------------------------------------
# infimum via block intersections


def test_inf_original_examples():
    v = part({0, 1})
    w = part({0}, {1})
    assert block_infimum(v, v) == v
    assert block_infimum(v, w) == w
    assert block_infimum(part({0}, {1}), part({1}, {0})) is None


def test_inf_original_is_greatest_lower_bound_all_k3_contexts():
    for ctx in all_contexts(3):
        parts = ctx.partitions()
        poset = ctx.poset()
        down = poset.down_rows()
        idx = {v.alpha: i for i, v in enumerate(parts)}
        for v in parts:
            for w in parts:
                got = block_infimum(v, w)
                if not compatible(v, w):
                    assert got is None
                    continue
                gi = idx[got.alpha]
                lower = down[idx[v.alpha]] & down[idx[w.alpha]]
                assert (lower >> gi) & 1  # a common lower bound
                assert down[gi] == lower  # and it dominates all of them


def test_overlap_sets_lemma_exhaustive_k4():
    # P_v meets P_w exactly when compatible, and then equals P_inf
    for ctx in all_contexts(4):
        poset = ctx.poset()
        down = poset.down_rows()
        parts = ctx.partitions()
        idx = {v.alpha: i for i, v in enumerate(parts)}
        for i, v in enumerate(parts):
            for j in range(i, len(parts)):
                w = parts[j]
                meet = down[i] & down[idx[w.alpha]]
                if compatible(v, w):
                    u = block_infimum(v, w)
                    assert meet == down[idx[u.alpha]]
                else:
                    assert meet == 0


# ---------------------------------------------------------------------------
# preceq and wedge


def test_wedge_worked_example():
    v = part({0}, {1}, {2, 3})
    w = part({1}, {0}, {2, 3})
    assert wedge(v, w) == part({0, 1}, {2, 3})
    # not the pointwise infimum: two incomparable maximal lower bounds sit
    # strictly above it, so no greatest lower bound exists
    lb1 = part({0, 1}, {2}, {3})
    lb2 = part({0, 1}, {3}, {2})
    for lb in (lb1, lb2):
        assert preceq(lb, v) and preceq(lb, w)
        assert preceq(wedge(v, w), lb) and wedge(v, w) != lb
    assert not preceq(lb1, lb2) and not preceq(lb2, lb1)
    assert preceq(wedge(v, w), v) and preceq(wedge(v, w), w)


def test_wedge_idempotent():
    for v in ctx_free(3).partitions():
        assert wedge(v, v) == v


def test_preceq_block_form_agrees_exhaustive_k4():
    parts = ctx_free(4).partitions()
    for v in parts:
        for w in parts:
            assert preceq(v, w) == preceq_blocks(v, w)


def test_cap_pairs_wedge_is_infimum_k3():
    for ctx in all_contexts(3):
        parts = ctx.partitions()
        for v in parts:
            for w in parts:
                if not compatible(v, w):
                    continue
                u = wedge(v, w)
                # no compression needed under compatibility
                mins = tuple(min(a, b) for a, b in zip(v.alpha, w.alpha))
                assert u.alpha == mins
                assert u.p == min(v.p, w.p)
                for z in parts:
                    if preceq(z, v) and preceq(z, w):
                        assert preceq(z, u)


def test_wedge_preserves_cap_exhaustive_k3():
    parts = ctx_free(3).partitions()
    for u in parts:
        for v in parts:
            for w in parts:
                if compatible(u, v) and compatible(u, w):
                    assert compatible(u, wedge(v, w))


def test_morphism_implies_pointwise_and_converse_fails():
    parts = ctx_free(3).partitions()
    witness = None
    for v in parts:
        for w in parts:
            if le_partition(w, v):
                assert preceq(v, w)
            elif preceq(v, w) and v != w:
                witness = (v, w)
    assert witness is not None  # pointwise order is strictly coarser


# ---------------------------------------------------------------------------
# least element


def test_least_element_examples():
    assert ctx_free(3).least() == part({0, 1, 2})
    ctx = ArcContext.from_arcs(2, [(0, 1)])
    assert ctx.least() == part({0}, {1})


def test_least_element_matches_brute_scan_all_k4_contexts():
    for ctx in all_contexts(4):
        parts = ctx.partitions()
        u0 = least_element(parts)
        mins = [v for v in parts if all(preceq(v, w) for w in parts)]
        assert mins == [u0]


# ---------------------------------------------------------------------------
# predecessor construction


def test_predecessor_smallest_instance():
    u = part({0, 1})
    v = part({0}, {1})
    assert compatible_predecessor(u, v) == u


def test_predecessor_shift_instance():
    u = part({0, 1}, {2, 3})
    v = part({0}, {1}, {2, 3})
    assert compatible_predecessor(u, v) == part({0, 1}, {2, 3})


def test_predecessor_requires_strict_order():
    with pytest.raises(ValueError):
        compatible_predecessor(part({0}, {1}), part({0}, {1}))


def test_predecessor_sweep_k3():
    for ctx in all_contexts(3):
        parts = ctx.partitions()
        for u in parts:
            for v in parts:
                if preceq(u, v) and u != v:
                    tv = compatible_predecessor(u, v, universe=parts)  # raises on violation
                    assert preceq(tv, v) and tv != v
                    assert compatible(tv, v)


# ---------------------------------------------------------------------------
# the compatibility complex and the driver


def test_flag_complex_point_and_path():
    single = ArcContext.from_arcs(2, [(0, 1)])
    assert len(single.flag_complex().materialize()) == 1
    path = ctx_free(2)
    cpx = path.flag_complex()
    assert len(cpx.materialize()) == 5  # three vertices, two edges
    assert not compatible(part({0}, {1}), part({1}, {0}))


def test_driver_singleton():
    res = collapse_driver(ArcContext.from_arcs(2, [(0, 1)]))
    assert res.steps == 0
    assert res.terminal == part({0}, {1})


def test_driver_path_two_steps():
    ctx = ctx_free(2)
    res = collapse_driver(ctx)
    assert res.steps == 2
    assert res.terminal == part({0, 1})
    # first step removes a maximal edge together with its non-least endpoint
    face0, simplex0 = map(res.trace.keys, res.trace.steps[0])
    assert len(simplex0) == 2 and len(face0) == 1
    assert face0[0] != (1, 1)
    replay_trace(ctx.flag_complex(), res.trace)


def test_driver_all_k3_contexts_verified_and_replayed():
    for ctx in all_contexts(3):
        res = collapse_driver(ctx)
        assert res.terminal == ctx.least()
        assert res.simplex_count == len(ctx.flag_complex().materialize())
        replay_trace(ctx.flag_complex(), res.trace)


def test_driver_equals_the_removed_set_oracle():
    contexts = [ctx for k in range(5) for ctx in all_contexts(k)]
    # the oracle's cost grows steeply with the partition count, so the 50
    # k=5 contexts hold one 101-partition context and 49 of at most 63
    contexts += seeded_contexts(5, 49, 15, max_partitions=63)
    contexts += seeded_contexts(5, 1, 15, min_partitions=101)
    for ctx in contexts:
        assert collapse_driver(ctx).trace.steps == oracle_collapse_driver(ctx)


def test_driver_refuses_a_face_whose_count_is_not_one(monkeypatch):
    ctx = ctx_free(3)
    face, cofacet = collapse_driver(ctx).trace.steps[0]

    class Corrupted(partitions._DriverState):
        def __init__(self, ctx):
            super().__init__(ctx)
            self.count[face] = 2

    monkeypatch.setattr(partitions, "_DriverState", Corrupted)
    with pytest.raises(FalsificationError, match="selected face is not free") as err:
        collapse_driver(ctx)
    st = partitions._DriverState(ctx)
    # the count alone says the face is not free: no other coface is present
    assert err.value.state == {"face": st.word_list(face), "other_coface": None}


def test_driver_names_the_other_coface_of_a_face_that_is_not_free(monkeypatch):
    # dropping the highest vertex instead of the least leaves the face 11,
    # which lies in both maximal edges of the free k=2 complex
    monkeypatch.setattr(partitions._DriverState, "least_vertex",
                        lambda self, mask: mask.bit_length() - 1)
    with pytest.raises(FalsificationError, match="selected face is not free") as err:
        collapse_driver(ctx_free(2))
    assert err.value.state["face"] == ["11"]
    assert err.value.state["other_coface"] in (["11", "12"], ["11", "21"])


def test_the_other_coface_named_is_never_a_removed_one():
    st = partitions._DriverState(ctx_free(3))
    face = next(f for f, c in st.count.items() if c >= 3)
    ups = sorted((u for u in st.count if u & face == face and (u ^ face).bit_count() == 1),
                 key=lambda u: u ^ face)
    del st.count[ups[0]]
    assert st.not_free(face, ups[1]).state["other_coface"] == st.word_list(ups[2])
    for u in ups[2:]:
        del st.count[u]
    assert st.not_free(face, ups[1]).state["other_coface"] is None


# ---------------------------------------------------------------------------
# the acyclic matching


def _matching_stream(ctx, monkeypatch):
    """matching_check's evidence and its least elements l(sigma), zipped
    with the flag complex's simplices: the walk visits them in the order
    the clique enumerator does."""
    seen = []

    def recorded(strict, up, down):
        seen.append(posets._least(strict, up, down))
        return seen[-1]

    monkeypatch.setattr(partitions, "_least", recorded)
    evidence = matching_check(ctx)
    monkeypatch.undo()
    simplices = list(ctx.flag_complex().coface_counts())
    assert len(seen) == len(simplices)
    return evidence, list(zip(simplices, seen))


def test_matching_pairs_are_the_driver_steps(monkeypatch):
    for k in range(5):
        for ctx in all_contexts(k):
            evidence, stream = _matching_stream(ctx, monkeypatch)
            pairs = {(s, s | least) for s, least in stream if not s & least}
            assert pairs == set(collapse_driver(ctx).trace.steps)
            dims = [0] * len(evidence["simplices"])
            for s, _ in stream:
                dims[s.bit_count() - 1] += 1
            assert evidence["simplices"] == dims
            assert evidence["partitions"] == len(ctx.partitions())
            assert evidence["least"] == ctx.least().word()


def test_matching_gradient_graph_has_a_topological_order(monkeypatch):
    for k in range(5):
        for ctx in all_contexts(k):
            _, stream = _matching_stream(ctx, monkeypatch)
            pairs = [(s, s | least) for s, least in stream if not s & least]
            assert oracle_gradient_order([s for s, _ in stream], pairs) is not None
    # the oracle sees the cycle of a matching around a triangle's boundary
    circle = [0b001, 0b010, 0b100, 0b011, 0b110, 0b101]
    assert oracle_gradient_order(circle, [(0b001, 0b011), (0b010, 0b110),
                                          (0b100, 0b101)]) is None


def test_matching_refuses_a_simplex_without_a_least_element(monkeypatch):
    real = posets._least
    monkeypatch.setattr(partitions, "_least",
                        lambda strict, up, down: 0 if strict & (strict - 1)
                        else real(strict, up, down))
    with pytest.raises(FalsificationError, match="no least element") as err:
        matching_check(ctx_free(2))
    assert err.value.state == {"simplex": ["12"], "L": ["11", "12"]}


def test_matching_refuses_critical_simplices_other_than_the_least(monkeypatch):
    # the greatest element pairs every vertex with itself
    monkeypatch.setattr(partitions, "_least", posets._greatest)
    with pytest.raises(FalsificationError, match="critical simplices") as err:
        matching_check(ctx_free(2))
    assert err.value.state == {"critical": [["11"], ["12"], ["21"]], "least": "11"}
    failed = 0
    for ctx in all_contexts(4):
        try:
            matching_check(ctx)
        except FalsificationError:
            failed += 1
    assert failed == 195


def test_matching_refuses_unequal_pair_counts(monkeypatch):
    # the second simplex of the free k=2 walk, {11, 12}, is paired down;
    # naming the vertex 21 outside it pairs it up instead
    real, calls = posets._least, []

    def skewed(strict, up, down):
        calls.append(strict)
        return 0b100 if len(calls) == 2 else real(strict, up, down)

    monkeypatch.setattr(partitions, "_least", skewed)
    with pytest.raises(FalsificationError, match="differ in number") as err:
        matching_check(ctx_free(2))
    assert err.value.state == {"context": [], "up": 3, "down": 1}


def test_least_vertex_equals_least_element_on_maximal_cliques():
    checked = 0
    for k in range(5):
        for ctx in all_contexts(k):
            st = partitions._DriverState(ctx)
            for mask in maximal_cliques(st.adj, st.n):
                members = [st.parts[i] for i in iter_bits(mask)]
                least = least_element(members)
                assert least in members
                assert st.parts[st.least_vertex(mask)] == least
                checked += 1
    assert checked > 1000


def test_least_vertex_raises_exactly_without_a_least_member():
    st = partitions._DriverState(ctx_free(2))
    incomparable = sum(
        1 << i for i, v in enumerate(st.parts) if v in (part({0}, {1}), part({1}, {0}))
    )
    with pytest.raises(FalsificationError, match="no least vertex"):
        st.least_vertex(incomparable)
    for ctx in all_contexts(3):
        st = partitions._DriverState(ctx)
        for size in (1, 2, 3):
            for verts in combinations(range(st.n), size):
                mask = sum(1 << i for i in verts)
                members = [st.parts[i] for i in verts]
                has_least = any(all(preceq(v, w) for w in members) for v in members)
                if has_least:
                    li = st.least_vertex(mask)
                    assert li in verts
                    assert all(preceq(st.parts[li], w) for w in members)
                else:
                    with pytest.raises(FalsificationError):
                        st.least_vertex(mask)


def test_driver_agrees_with_generic_collapse_and_homology_k3():
    for ctx in all_contexts(3):
        cpx = ctx.flag_complex()
        assert greedy_collapse(cpx).collapsed_to_point
        assert reduced_homology(cpx.materialize()).trivial()


def test_compatibility_complex_and_order_complex_both_collapse_k3():
    for ctx in all_contexts(3):
        assert greedy_collapse(ctx.poset().order_complex()).collapsed_to_point


def test_order_complex_homology_trivial_k3():
    for ctx in all_contexts(3):
        assert reduced_homology(ctx.poset().order_complex().materialize()).trivial()
