import random

import pytest

from boxops.bits import iter_bits
from boxops.complexes import (
    CollapseTrace,
    SimplicialComplex,
    greedy_collapse,
    replay_trace,
)
from boxops.contractibility import object_poset
from boxops.errors import CapExceededError, IntegrityError
from boxops.homology import reduced_homology, smith_diagonal
from boxops.partitions import all_contexts

from conftest import family_members, random_poset, sweep_cores
from oracles import oracle_clique_counts, oracle_coface_counts, oracle_greedy_collapse


def full_simplex(m, dim_cap=None):
    full = (1 << m) - 1
    return SimplicialComplex(range(m), [full ^ 1 << i for i in range(m)],
                             dim_cap=m if dim_cap is None else dim_cap)


def four_cycle():
    """0-1-2-3-0: no face is free, so the greedy collapse is stuck."""
    return SimplicialComplex(range(4), [0b1010, 0b0101, 0b1010, 0b0101], dim_cap=1)


def family(*simplices):
    """The given simplices over vertex indices, as masks, with all their faces."""
    out = set()
    for simplex in simplices:
        mask = sub = sum(1 << v for v in simplex)
        while sub:
            out.add(sub)
            sub = (sub - 1) & mask
    return frozenset(out)


def test_antichain_order_complex_is_points():
    from boxops.posets import Poset

    p = Poset.from_leq(tuple(range(4)), lambda a, b: a == b)
    c = p.order_complex()
    assert len(c.materialize()) == 4
    assert all(m.bit_count() == 1 for m in c.materialize())


def test_total_order_order_complex_is_full_simplex():
    from boxops.posets import Poset

    p = Poset.from_leq(tuple(range(4)), lambda a, b: a <= b)
    c = p.order_complex()
    assert len(c.materialize()) == 2**4 - 1


def test_order_complex_blind_to_opposite():
    from boxops.posets import Poset

    # divisibility order on 1..5 over 0-based keys
    p = Poset.from_leq(tuple(range(5)), lambda a, b: (b + 1) % (a + 1) == 0)
    assert p.order_complex().materialize() == p.opposite().order_complex().materialize()


def test_order_complex_keeps_the_poset_order():
    from boxops.posets import Poset

    p = Poset.from_leq((2, 0, 1), lambda a, b: a == b or (a, b) == (2, 0))
    c = p.order_complex()
    assert c.vertices == (2, 0, 1)
    edges = [m for m in c.materialize() if m.bit_count() == 2]
    assert [tuple(c.vertices[i] for i in iter_bits(m)) for m in edges] == [(2, 0)]


def test_flag_materialize_cap():
    with pytest.raises(CapExceededError):
        full_simplex(12, dim_cap=4).materialize()


def test_adjacency_rows_are_irreflexive():
    with pytest.raises(ValueError, match="irreflexive"):
        SimplicialComplex(range(2), [0b10, 0b11], dim_cap=1)


def test_coface_counts_equal_the_counts_over_the_materialized_family():
    # every k <= 4 compatibility complex, then order complexes of seeded
    # random posets under caps low enough that some enumerations refuse
    complexes = [lambda ctx=ctx: ctx.flag_complex()
                 for k in range(5) for ctx in all_contexts(k)]
    rng = random.Random(1515)
    for _ in range(200):
        poset, cap = random_poset(rng, rng.randint(1, 14)), rng.randint(0, 6)
        complexes.append(lambda poset=poset, cap=cap: SimplicialComplex(
            poset.elements, poset.comparability_masks(), dim_cap=cap))
    refused = 0
    for make in complexes:
        try:
            want = oracle_coface_counts(make().materialize())
        except CapExceededError:
            refused += 1
            with pytest.raises(CapExceededError):
                make().coface_counts()
            continue
        assert make().coface_counts() == want
    assert 20 < refused < 180


def test_clique_counts_equal_brute_force():
    # the driver, the replay and greedy_collapse all read this one
    # enumerator, so it is held to the definition: every k <= 3
    # compatibility graph, then seeded random graphs on at most 12 vertices
    graphs = [ctx.compatibility_masks() for k in range(4) for ctx in all_contexts(k)]
    rng = random.Random(1919)
    for _ in range(60):
        n, density = rng.randint(0, 12), rng.random()
        adj = [0] * n
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < density:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
        graphs.append(adj)
    for adj in graphs:
        n = len(adj)
        got = SimplicialComplex(range(n), adj, dim_cap=n).coface_counts()
        assert got == oracle_clique_counts(adj, n)


def test_greedy_collapse_full_simplex():
    trace = greedy_collapse(full_simplex(5))
    assert trace.collapsed_to_point
    assert len(trace.steps) == (2**5 - 2) // 2
    replay_trace(full_simplex(5), trace)


def test_greedy_collapse_four_cycle_inconclusive():
    c = four_cycle()
    trace = greedy_collapse(c)
    assert not trace.collapsed_to_point
    assert not trace.steps
    assert len(trace.terminal_maximal) == 4  # unchanged input


def test_collapsed_to_point_is_read_off_the_replayed_terminal():
    c = four_cycle()
    stuck = greedy_collapse(c)
    replay_trace(c, stuck)
    with pytest.raises(TypeError):
        _tampered(stuck, collapsed_to_point=True)
    # a trace can claim a point only by naming it as the terminal, which
    # the replay checks against the complex
    claimed = _tampered(stuck, terminal_maximal=(0b0001,))
    assert claimed.collapsed_to_point
    with pytest.raises(IntegrityError, match="terminal complex"):
        replay_trace(c, claimed)


def test_replay_rejects_tampered_trace():
    c = full_simplex(3)
    good = greedy_collapse(c)
    bad = CollapseTrace(
        vertices=good.vertices,
        steps=good.steps[1:],  # skip the first step; later steps now illegal
        terminal_maximal=good.terminal_maximal,
    )
    with pytest.raises(IntegrityError):
        replay_trace(c, bad)


def test_greedy_collapse_equals_scan_oracle():
    # the order complexes of the beat-point cores of the member posets in
    # the four sweeps over all of ke(3,3) and 40 seeded ke(3,4) objects
    cores = [core.order_complex()
             for scale in [(3, 3), (3, 4, 40)] for core in sweep_cores(*scale)]
    assert len(cores) >= 40
    for c in cores + [four_cycle()]:
        trace = greedy_collapse(c)
        assert (trace.steps, trace.terminal_maximal) == oracle_greedy_collapse(c)


def test_greedy_collapse_steps_are_mask_pairs():
    trace = greedy_collapse(full_simplex(3))
    assert trace.steps == ((0b011, 0b111), (0b001, 0b101), (0b010, 0b110))
    assert trace.terminal_maximal == (0b100,)
    assert [tuple(map(trace.keys, step)) for step in trace.steps] == [
        ((0, 1), (0, 1, 2)), ((0,), (0, 2)), ((1,), (1, 2))
    ]
    assert trace.keys(trace.terminal_maximal[0]) == (2,)


def _tampered(good, **fields):
    return CollapseTrace(**{
        "vertices": good.vertices,
        "steps": good.steps,
        "terminal_maximal": good.terminal_maximal,
        **fields,
    })


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"steps": ((0b011, 0b111), (0b011, 0b111))}, "already removed"),
        ({"steps": ((0b001, 0b111),)}, "not face/cofacet"),
        ({"steps": ((0b001, 0b110),)}, "not face/cofacet"),
        ({"steps": ((0b001, 0b011),)}, "second coface"),
        ({"vertices": (0, 1, 3)}, "vertices differ"),
        ({"vertices": (0, 1)}, "vertices differ"),
        ({"terminal_maximal": (0b001,)}, "terminal complex"),
        ({"steps": ((0b011, 0b111),)}, "terminal complex"),
    ],
)
def test_replay_rejects_each_illegal_trace(fields, message):
    c = full_simplex(3)
    good = greedy_collapse(c)
    replay_trace(c, good)
    with pytest.raises(IntegrityError, match=message):
        replay_trace(c, _tampered(good, **fields))


# ---------------------------------------------------------------------------
# homology


def test_single_vertex_trivial():
    assert reduced_homology(family((0,))).trivial()


def test_triangle_boundary_is_circle():
    rep = reduced_homology(family((0, 1), (1, 2), (0, 2)))
    assert rep.betti == {0: 0, 1: 1}
    assert rep.torsion == {0: [], 1: []}


def test_two_components():
    rep = reduced_homology(family((0, 1), (2, 3)))
    assert rep.betti[0] == 1


def test_projective_plane_torsion():
    rp2 = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ]
    rep = reduced_homology(family(*rp2))
    assert rep.betti == {0: 0, 1: 0, 2: 0}
    assert rep.torsion[1] == [2]


def test_sphere_betti():
    # boundary of the 3-simplex
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    rep = reduced_homology(family(*faces))
    assert rep.betti == {0: 0, 1: 0, 2: 1}


@pytest.mark.parametrize("simplices,missing", [
    ({0b11}, r"\(0,\)"),  # an edge without its vertices
    (family((0, 1, 2)) - {0b101}, r"\(0, 2\)"),  # a triangle short of one edge
    # {0, 1, 3} lacks the facets {0, 3} and {1, 3}; {3} is no simplex's facet
    (family((0, 1), (1, 2)) | {0b1011}, r"\(0, 3\)"),
])
def test_family_not_closed_under_faces_is_refused(simplices, missing):
    with pytest.raises(ValueError, match="not closed under faces: " + missing):
        reduced_homology(frozenset(simplices))


def test_smith_diagonal_divisibility():
    # diag(2, 3) has invariant factors 1, 6
    rows = [{0: 2}, {1: 3}]
    assert smith_diagonal(rows, 2) == [1, 6]
    rows = [{0: 4, 1: 0}, {0: 0, 1: 6}]
    assert smith_diagonal(rows, 2) == [2, 12]


def test_extended_complete_graph_poset_on_two_elements_is_circle():
    objs = list(family_members("ke", 2, 2))
    poset = object_poset(objs)
    rep = reduced_homology(poset.order_complex().materialize())
    assert rep.betti == {0: 0, 1: 1}


def test_collapse_preserves_homology_seeded():
    rng = random.Random(20260808)
    for _ in range(40):
        nverts = rng.randint(4, 12)
        nmax = rng.randint(2, 6)
        simplices = []
        for _ in range(nmax):
            size = rng.randint(1, 4)
            simplices.append(tuple(rng.sample(range(nverts), size)))
        simplices.extend((v,) for v in range(nverts))
        c = family(*simplices)
        free = [m for m, count in oracle_coface_counts(c).items() if count == 1]
        if not free:
            continue
        face = min(free, key=lambda m: tuple(i for i in range(nverts) if (m >> i) & 1))
        cof = next(m for m in c if m & face == face and (m ^ face).bit_count() == 1)
        before = reduced_homology(c)
        after = reduced_homology(c - {face, cof})
        dims = set(before.betti) | set(after.betti)
        for d in dims:
            assert before.betti.get(d, 0) == after.betti.get(d, 0)
            assert before.torsion.get(d, []) == after.torsion.get(d, [])
