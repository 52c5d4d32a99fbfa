import random
from itertools import product

import pytest

from boxops import contractibility, graphs
from boxops.contractibility import (
    CONTRACTIBLE,
    FAILED,
    certify_contractible,
    check_homotopy_final,
    check_homotopy_initial,
    object_poset,
)
from boxops.complexes import greedy_collapse, replay_trace
from boxops.errors import DimensionError, IntegrityError
from boxops.graphs import from_key, is_morphism
from boxops.homology import reduced_homology
from boxops.posets import (
    Poset,
    poset_isomorphic,
    poset_product,
    replay_dismantle,
    replay_weak_points,
)
from boxops.textform import from_box_expr

from conftest import family_members, random_poset, row_subposet, sweep_cores
from oracles import (
    oracle_candidate_isomorphism,
    oracle_dismantle,
    oracle_member_poset,
    oracle_object_poset,
    oracle_weak_points,
)


def chain(m):
    return Poset.from_leq(tuple(range(m)), lambda a, b: a <= b)


def antichain(m):
    return Poset.from_leq(tuple(range(m)), lambda a, b: a == b)


def bowtie():
    """Two minimal elements both under two maximal ones; realizes a circle."""
    return object_poset(list(family_members("ke", 2, 2)))


def test_validation_rejects_non_posets():
    with pytest.raises(ValueError):
        Poset((0, 1), (0b10, 0b10))  # row 0 lacks its own bit
    with pytest.raises(ValueError):
        Poset((0, 1), (0b11, 0b11))  # antisymmetry
    with pytest.raises(ValueError):
        Poset((0, 1, 2), (0b011, 0b110, 0b100))  # 0<=1<=2 but not 0<=2
    # given down rows must be the transpose of the up rows
    assert Poset((0, 1), (0b11, 0b10), down_rows=(0b01, 0b11)).down_rows() == (0b01, 0b11)
    with pytest.raises(ValueError):
        Poset((0, 1), (0b11, 0b10), down_rows=(0b11, 0b10))


def test_minimum_maximum():
    c = chain(4)
    assert c.minimum() == 0
    assert c.maximum() == 3
    a = antichain(3)
    assert a.minimum() is None and a.maximum() is None


def test_under_over_posets():
    c = chain(5)
    up = row_subposet(c, c.up[2])
    assert set(up.elements) == {2, 3, 4}
    assert up.minimum() == 2  # cone point
    down = row_subposet(c, c.down_rows()[2])
    assert set(down.elements) == {0, 1, 2}
    assert down.maximum() == 2
    restricted = row_subposet(c, c.up[2], within=(0, 1, 4))
    assert set(restricted.elements) == {4}


def test_under_poset_b_in_sub_is_cone():
    objs = list(family_members("ke", 2, 3))
    poset = object_poset(objs)
    b = objs[7].key
    up = row_subposet(poset, poset.up[poset.index[b]])
    assert up.minimum() == b


def test_under_poset_all_label_2_triangle():
    # the all-label-2 object along the index order, inside the down family:
    # its under-poset there is the single point {b}
    ambient = list(family_members("ke", 2, 3))
    sub = {o.key for o in family_members("mdown", 2, 3)}
    poset = object_poset(ambient)
    b = from_box_expr("1[]2 2[]2 3", 2)
    assert b.key in sub
    up = row_subposet(poset, poset.up[poset.index[b.key]], within=sub)
    assert up.elements == (b.key,)
    assert certify_contractible(up).contractible()


def test_opposite_and_product():
    c = chain(3)
    op = c.opposite()
    assert op.maximum() == 0 and op.minimum() == 2
    grid = poset_product([chain(2), chain(2)])
    assert len(grid) == 4
    assert grid.le((0, 0), (1, 1))
    assert not grid.le((0, 1), (1, 0))


def test_poset_isomorphic_identity_and_refusal():
    c = chain(3)
    assert poset_isomorphic(c, c) is not None
    assert poset_isomorphic(c, antichain(3)) is None
    # candidate verification both accepts and rejects
    ok = poset_isomorphic(c, chain(3), candidate={0: 0, 1: 1, 2: 2})
    assert ok == {0: 0, 1: 1, 2: 2}
    assert poset_isomorphic(c, chain(3), candidate={0: 2, 1: 1, 2: 0}) is None


def test_poset_isomorphic_search_nontrivial():
    grid = poset_product([chain(2), chain(2)])
    # relabeled copy
    relabeled = Poset.from_leq(
        ("a", "b", "c", "d"),
        lambda x, y: {"a": (0, 0), "b": (0, 1), "c": (1, 0), "d": (1, 1)}[x]
        <= {"a": (0, 0), "b": (0, 1), "c": (1, 0), "d": (1, 1)}[y]
        or x == y,
    )
    # componentwise order, not tuple order, for the relabeled copy
    m = {"a": (0, 0), "b": (0, 1), "c": (1, 0), "d": (1, 1)}
    relabeled = Poset.from_leq(
        tuple(m),
        lambda x, y: m[x][0] <= m[y][0] and m[x][1] <= m[y][1],
    )
    found = poset_isomorphic(grid, relabeled)
    assert found is not None
    assert found[(0, 0)] == "a" and found[(1, 1)] == "d"


def test_dismantle_chain_to_point():
    core, steps = chain(5).dismantle()
    assert len(core) == 1
    replay_dismantle(chain(5), steps)


def test_dismantle_bowtie_is_stuck():
    core, steps = bowtie().dismantle()
    assert len(core) == 4 and not steps


def test_replay_dismantle_rejects_bogus_step():
    c = chain(3)
    with pytest.raises(IntegrityError):
        replay_dismantle(c, [(2, 0, "sideways")])
    a = antichain(2)
    with pytest.raises(IntegrityError):
        replay_dismantle(a, [(0, 1, "up")])


def test_certify_contractible_verdicts():
    assert certify_contractible(chain(4)).method == "cone"
    empty = Poset((), ())
    assert certify_contractible(empty).status == "EMPTY"
    v = certify_contractible(bowtie())
    assert v.status == FAILED
    assert v.detail["homology"]


def crown():
    """a1, a2 < b1, b2: no beat point, and the order complex is a circle."""
    return Poset.from_leq(
        ("a1", "a2", "b1", "b2"), lambda x, y: x == y or (x[0], y[0]) == ("a", "b")
    )


def test_homology_fallback_builds_the_order_complex_once(monkeypatch):
    expected = reduced_homology(crown().order_complex().materialize()).rows()
    assert expected == [(0, 0, ()), (1, 1, ())]
    calls = []
    real = Poset.order_complex

    def counted(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Poset, "order_complex", counted)
    v = certify_contractible(crown())
    assert v.status == FAILED
    assert v.detail["homology"] == expected
    assert len(calls) == 1


def fence():
    """a < b > c < d: no global min/max but beat points exist."""
    rel = {("a", "b"), ("c", "b"), ("c", "d")}
    return Poset.from_leq(
        ("a", "b", "c", "d"), lambda x, y: x == y or (x, y) in rel
    )


def test_certify_zigzag_dismantles():
    v = certify_contractible(fence())
    assert v.status == CONTRACTIBLE
    assert v.method == "dismantle"


def _reject(*args):
    raise IntegrityError("replay rejected the certificate")


def test_dismantle_verdict_is_replayed(monkeypatch):
    monkeypatch.setattr(contractibility, "replay_dismantle", _reject)
    with pytest.raises(IntegrityError):
        certify_contractible(fence())


def test_collapse_verdict_is_replayed(monkeypatch):
    # the over-poset of m(3,3) at this object has no beat point; its core
    # loses weak points down to a point, and with the weak pass finding
    # nothing the order complex collapses instead
    obj = from_key(3, 3, 37)
    sub = family_members("m", 3, 3)
    assert check_homotopy_initial([obj], sub)[37].method == "weak"
    monkeypatch.setattr(Poset, "remove_weak_points", lambda self: (self, []))
    assert check_homotopy_initial([obj], sub)[37].method == "collapse"
    monkeypatch.setattr(contractibility, "replay_trace", _reject)
    with pytest.raises(IntegrityError):
        check_homotopy_initial([obj], sub)


def m33_over_poset(key):
    """The poset of the m(3,3) members below the ke(3,3) object with key."""
    index = graphs.family_index(family_members("m", 3, 3))
    return object_poset(index.select(index.below(from_key(3, 3, key))))


def test_weak_points_take_a_beat_free_core_to_a_point():
    poset = m33_over_poset(37)
    core, steps = poset.dismantle()
    assert not steps and len(core) == 11
    left, weak = core.remove_weak_points()
    # one weak point: 0, whose strict up-set dismantles to 27; the beat
    # points its removal exposes take the rest to 33
    assert list(left.elements) == [33]
    assert [(key, side, len(link), len(beat)) for key, side, link, beat in weak] == [
        (0, "up", 4, 9)
    ]
    replay_weak_points(core, weak)
    v = certify_contractible(poset)
    assert (v.status, v.method) == (CONTRACTIBLE, "weak")
    assert v.detail == {"size": 11, "removals": 0, "core": 11, "weak": 1}


def test_weak_verdict_is_replayed(monkeypatch):
    monkeypatch.setattr(contractibility, "replay_weak_points", _reject)
    with pytest.raises(IntegrityError):
        certify_contractible(m33_over_poset(37))


@pytest.mark.parametrize("link_steps", [
    [], [("b1", "b2", "up")], [("b1", "b2", "up"), ("b2", "b1", "up")],
])
def test_weak_replay_rejects_a_point_that_is_not_weak(link_steps):
    # a1's strict up-set {b1, b2} is an antichain, which no steps dismantle
    with pytest.raises(IntegrityError):
        replay_weak_points(crown(), [("a1", "up", link_steps, [])])


def _mutated(step, **fields):
    key, side, link, beat = step
    return (fields.get("key", key), fields.get("side", side),
            fields.get("link", link), fields.get("beat", beat))


@pytest.mark.parametrize("mutate, message", [
    # the link steps leave 3 and 27
    (lambda s: _mutated(s, link=s[2][:-1]), "does not dismantle to one point"),
    # 2 is not an up-beat point of the link {2, 3, 5, 18, 27} via 5
    (lambda s: _mutated(s, link=[(2, 5, "up")] + s[2][1:]), "not an up-beat point"),
    # 1 is not in the link
    (lambda s: _mutated(s, link=[(1, 25, "up")] + s[2][1:]), "not alive"),
    # 0 is minimal: its strict down-set is empty
    (lambda s: _mutated(s, side="down"), "not alive"),
    (lambda s: _mutated(s, side="left"), "unknown weak-point side"),
    # the beat steps stop one short of a point
    (lambda s: _mutated(s, beat=s[3][:-1]), "leave 2 elements"),
])
def test_weak_replay_rejects_a_tampered_certificate(mutate, message):
    core = m33_over_poset(37)
    (step,) = core.remove_weak_points()[1]
    replay_weak_points(core, [step])
    with pytest.raises(IntegrityError, match=message):
        replay_weak_points(core, [mutate(step)])


@pytest.mark.parametrize("scale, certified", [
    ((3, 3), 24), ((4, 3), 72), ((3, 4, 40), 17),
], ids=["ke33", "ke43", "ke34-sample40"])
def test_weak_certified_cores_collapse(scale, certified):
    # the order-complex collapse is the definitional route for every core
    # the weak pass takes to a point; the pass also follows the restarted
    # scan of oracle_weak_points.  No core at these scales stops short.
    cores = sweep_cores(*scale)
    assert len(cores) == certified
    for core in cores:
        left, weak = core.remove_weak_points()
        assert len(left) == 1
        assert (list(left.elements), weak) == oracle_weak_points(core)
        replay_weak_points(core, weak)
        complex_ = core.order_complex()
        trace = greedy_collapse(complex_)
        assert trace.collapsed_to_point
        replay_trace(complex_, trace)


def test_weak_points_equal_oracle_on_random_posets():
    for shuffled in (True, False):
        rng = random.Random(7)
        removed = stuck = 0
        for _ in range(1000):
            core = random_poset(rng, rng.randint(4, 24), shuffled).dismantle()[0]
            left, weak = core.remove_weak_points()
            assert (list(left.elements), weak) == oracle_weak_points(core)
            removed += bool(weak)
            stuck += len(left) > 1
        # some cores lose weak points, and most have none
        assert removed >= 5 and stuck > 500


def test_check_homotopy_initial_small_sweep():
    ambient = list(family_members("ke", 2, 3))
    sub = list(family_members("mdown", 2, 3))
    verdicts = check_homotopy_initial(ambient, sub, is_morphism)
    assert len(verdicts) == 60
    assert all(v.contractible() for v in verdicts.values())


def test_check_homotopy_final_small_sweep():
    ambient = list(family_members("ke", 2, 3))
    sub = list(family_members("mup", 2, 3))
    verdicts = check_homotopy_final(ambient, sub, is_morphism)
    assert all(v.contractible() for v in verdicts.values())


SIDES = {"over": check_homotopy_initial, "under": check_homotopy_final}


@pytest.mark.parametrize("side,tag", [
    ("over", "mdown"), ("over", "m"), ("under", "mup"), ("under", "m"),
])
@pytest.mark.parametrize("n,k,sample", [(2, 3, None), (3, 3, None), (3, 4, 60)])
def test_homotopy_member_posets_equal_oracle(monkeypatch, n, k, sample, side, tag):
    ambient = list(family_members("ke", n, k))
    if sample is not None:
        ambient = random.Random(n * 10 + k).sample(ambient, sample)
    sub = family_members(tag, n, k)
    verdicts = SIDES[side](ambient, sub)
    # with the certifier patched out, the checker returns the posets it built
    monkeypatch.setattr(contractibility, "certify_contractible", lambda p: p)
    posets = SIDES[side](ambient, sub)
    for b in ambient:
        want = oracle_member_poset(sub, b, side)
        assert posets[b.key].elements == want.elements
        assert posets[b.key].up == want.up
        assert posets[b.key].down_rows() == want.down_rows()
        assert verdicts[b.key] == certify_contractible(want)


def test_object_poset_equals_oracle_on_random_subsets():
    rng = random.Random(20261018)
    for n, k in [(2, 3), (3, 3), (3, 4)]:
        objs = list(family_members("ke", n, k))
        for size in (0, 1, 2, 17, 50):
            subset = rng.sample(objs, size)
            got, want = object_poset(subset), oracle_object_poset(subset)
            assert got.elements == want.elements
            assert got.up == want.up
            # read from the index's below rows, not transposed from up
            assert got.down_rows() == want.down_rows()


def test_object_poset_rejects_mixed_shapes():
    ke23, ke33 = family_members("ke", 2, 3), family_members("ke", 3, 3)
    ke24 = family_members("ke", 2, 4)
    for mixed in (ke23[:5] + ke33[:1], ke24[:1] + ke23[:5], ke23[:1] + ke24[-1:]):
        with pytest.raises(DimensionError, match="family has shape"):
            object_poset(mixed)


def test_sub_equals_ambient_gives_cones():
    ambient = list(family_members("ke", 2, 2))
    verdicts = check_homotopy_final(ambient, ambient, is_morphism)
    assert all(v.method == "cone" for v in verdicts.values())


def test_cone_shortcut_agrees_with_collapse():
    from boxops.complexes import greedy_collapse

    objs = list(family_members("ke", 2, 3))
    poset = object_poset(objs)
    checked = 0
    for b in objs[:10]:
        cone = row_subposet(poset, poset.up[poset.index[b.key]])  # b is its own minimum
        assert cone.minimum() == b.key
        trace = greedy_collapse(cone.order_complex())
        assert trace.collapsed_to_point
        checked += 1
    assert checked == 10


def assert_dismantle_equals_oracle(poset):
    core, steps = poset.dismantle()
    want_core, want_steps = oracle_dismantle(poset)
    assert steps == want_steps
    assert list(core.elements) == want_core
    assert all(
        core.le(a, b) == poset.le(a, b) for a in want_core for b in want_core
    )


@pytest.mark.parametrize("side,tag", [
    ("over", "mdown"), ("over", "m"), ("under", "mup"), ("under", "m"),
])
def test_dismantle_equals_oracle_on_sweep_member_posets(monkeypatch, side, tag):
    ambient = family_members("ke", 3, 3)
    monkeypatch.setattr(contractibility, "certify_contractible", lambda p: p)
    posets = SIDES[side](ambient, family_members(tag, 3, 3))
    assert len(posets) == len(ambient)
    for poset in posets.values():
        assert_dismantle_equals_oracle(poset)


def test_product_equals_componentwise_order():
    rng = random.Random(11)
    shapes = [chain, antichain, lambda m: random_poset(rng, m)]
    cases = [[], [chain(1)], [chain(1), antichain(3)], [chain(3), antichain(2)]]
    for _ in range(60):
        count = rng.randint(0, 3)
        cases.append([rng.choice(shapes)(rng.randint(1, 5)) for _ in range(count)])
    for factors in cases:
        want = Poset.from_leq(
            list(product(*(f.elements for f in factors))),
            lambda xs, ys: all(f.le(x, y) for f, x, y in zip(factors, xs, ys)),
        )
        got = poset_product(factors)
        assert got.elements == want.elements
        assert got.up == want.up


def test_dismantle_equals_oracle_on_random_posets():
    for shuffled in (True, False):
        rng = random.Random(5)
        removed = stuck = 0
        for _ in range(2000):
            poset = random_poset(rng, rng.randint(1, 40), shuffled)
            assert_dismantle_equals_oracle(poset)
            core, steps = poset.dismantle()
            removed += bool(steps)
            stuck += len(core) > 1
        # both outcomes occur often
        assert removed > 500 and stuck > 200


def assert_index_order_extends_order(poset):
    for i, (up, down) in enumerate(zip(poset.up, poset.down_rows())):
        assert up >> i << i == up and down >> (i + 1) == 0


def test_member_posets_have_index_order_as_linear_extension(monkeypatch):
    # the dismantler's one-AND witness search rests on this
    assert_index_order_extends_order(object_poset(family_members("g", 3, 3)))
    ambient = random.Random(200).sample(family_members("ke", 3, 4), 200)
    monkeypatch.setattr(contractibility, "certify_contractible", lambda p: p)
    for side, tag in [("over", "mdown"), ("over", "m"), ("under", "mup"), ("under", "m")]:
        for poset in SIDES[side](ambient, family_members(tag, 3, 4)).values():
            assert_index_order_extends_order(poset)


def test_candidate_isomorphism_cases():
    grid = poset_product([chain(2), chain(2)])
    m = {(0, 0): "a", (0, 1): "b", (1, 0): "c", (1, 1): "d"}
    inv = {v: k for k, v in m.items()}
    copy = Poset.from_leq(
        tuple("abcd"),
        lambda x, y: inv[x][0] <= inv[y][0] and inv[x][1] <= inv[y][1],
    )
    right = dict(m)
    swapped = {**m, (0, 0): "d", (1, 1): "a"}
    not_injective = {**m, (1, 1): "a"}
    missing = {k: v for k, v in m.items() if k != (1, 1)}
    # swapping the two incomparable middle elements is an automorphism
    twisted = {**m, (0, 1): "c", (1, 0): "b"}
    cases = [(right, True), (twisted, True), (swapped, False),
             (not_injective, False), (missing, False)]
    for candidate, accepted in cases:
        assert oracle_candidate_isomorphism(grid, copy, candidate) is accepted
        got = poset_isomorphic(grid, copy, candidate=candidate)
        assert got == (candidate if accepted else None)
    # on an antichain every row carries over even through a non-injective map
    points = antichain(2)
    assert poset_isomorphic(points, points, candidate={0: 1, 1: 0}) == {0: 1, 1: 0}
    assert poset_isomorphic(points, points, candidate={0: 0, 1: 0}) is None


def test_candidate_isomorphism_equals_pairwise_check():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(300):
        m = rng.randint(1, 12)
        p = random_poset(rng, m)
        perm = list(range(m))
        rng.shuffle(perm)
        # q is p carried through perm, keyed by strings
        q = Poset(
            [f"q{i}" for i in range(m)],
            [sum(1 << perm[j] for j in range(m) if p.le_idx(i, j))
             for i in sorted(range(m), key=perm.__getitem__)],
        )
        right = {i: f"q{perm[i]}" for i in range(m)}
        a, b = rng.randrange(m), rng.randrange(m)
        swapped = {**right, a: right[b], b: right[a]}
        collided = {**right, a: right[b]}
        candidates = [right, swapped, collided, dict(list(right.items())[1:])]
        for candidate in candidates:
            want = oracle_candidate_isomorphism(p, q, candidate)
            got = poset_isomorphic(p, q, candidate=candidate)
            assert got == (candidate if want else None)
            verdicts.add(want)
    assert verdicts == {True, False}


def test_cone_apex_is_rechecked(monkeypatch):
    c = chain(4)
    assert certify_contractible(c).detail == {"size": 4}
    # a claimed minimum that is not below every element
    monkeypatch.setattr(Poset, "minimum", lambda self: 2)
    with pytest.raises(IntegrityError):
        certify_contractible(c)
    # with no minimum, a claimed maximum that is not above every element
    monkeypatch.setattr(Poset, "minimum", lambda self: None)
    monkeypatch.setattr(Poset, "maximum", lambda self: 1)
    with pytest.raises(IntegrityError):
        certify_contractible(c)
