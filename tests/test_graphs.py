import json
import math
import random
from itertools import combinations
from pathlib import Path

import pytest

from boxops import graphs
from boxops.errors import BitBudgetError, DimensionError, OrientedCycleError
from boxops.graphs import (
    G,
    K,
    KE,
    M,
    MDOWN,
    MUP,
    Family,
    box,
    box_chain,
    dual,
    enumerate_family,
    from_arcs,
    from_key,
    gamma,
    in_family,
    is_morphism,
    linear_order,
    point,
    restrict,
    shift_labels,
    sigma_action,
    top_decomposition,
    topological_order,
)
from boxops.textform import from_box_expr

from conftest import family_members
from oracles import (
    ORACLES,
    brute_force_family,
    decode,
    filter_route,
    generic_cycle_search,
    oracle_topological_order,
)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "family_counts.json").read_text())


def expr(text, n):
    return from_box_expr(text, n)


# ---------------------------------------------------------------------------
# keys and construction


def test_key_round_trip_exhaustive():
    for obj in family_members("g", 2, 3):
        assert from_key(2, 3, obj.key) == obj


def test_keys_strictly_ascending():
    keys = [o.key for o in family_members("ke", 2, 3)]
    assert keys == sorted(set(keys))


def test_small_conventions():
    assert graphs.empty(3).k == 0
    assert point(2).k == 1
    for fam in (G, KE, K, M, MUP, MDOWN):
        assert in_family(graphs.empty(2), fam)
        assert in_family(point(2), fam)


# ---------------------------------------------------------------------------
# is_morphism


def test_morphism_reflexive_on_anything():
    for obj in family_members("g", 2, 3):
        assert is_morphism(obj, obj)


def test_morphism_two_element_examples():
    m11 = expr("1[]1 2", 2)
    m12 = expr("1[]2 2", 2)
    assert is_morphism(m11, m12)
    assert not is_morphism(m12, m11)
    flip1 = expr("2[]1 1", 2)
    flip2 = expr("2[]2 1", 2)
    assert is_morphism(flip1, m12)  # opposite orientation, 1 < 2
    assert not is_morphism(flip2, m12)  # opposite orientation, 2 < 2 fails
    with pytest.raises(DimensionError):
        is_morphism(m11, point(2))


def test_morphism_is_partial_order_exhaustive_small():
    for n, k in [(1, 3), (2, 2), (2, 3)]:
        objs = family_members("g", n, k)
        for a in objs:
            assert is_morphism(a, a)
        for a in objs:
            for b in objs:
                if a != b:
                    assert not (is_morphism(a, b) and is_morphism(b, a))
        for a in objs:
            succ_a = [b for b in objs if is_morphism(a, b)]
            for b in succ_a:
                for c in objs:
                    if is_morphism(b, c):
                        assert is_morphism(a, c)


def test_morphism_transitive_sampled_n3_k4():
    rng = random.Random(411)
    objs = family_members("ke", 3, 4)
    for _ in range(4000):
        a, b, c = (rng.choice(objs) for _ in range(3))
        if is_morphism(a, b) and is_morphism(b, c):
            assert is_morphism(a, c)


# ---------------------------------------------------------------------------
# families


def test_six_element_membership_verdicts():
    neither = expr("3[]2((2[]3 6)[]1 4)[]2(1[]1 5)", 3)
    up = expr("3[]3((2[]1 6)[]2 4)[]3(1[]1 5)", 3)
    down = expr("3[]1((2[]3 6)[]2 4)[]1(1[]3 5)", 3)
    assert in_family(neither, M)
    assert not in_family(neither, MUP)
    assert not in_family(neither, MDOWN)
    assert in_family(up, MUP)
    assert in_family(down, MDOWN)
    assert dual(up) == down
    assert dual(down) == up


def test_monochromatic_cycle_detection():
    bad = from_arcs(2, 3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert not in_family(bad, KE)
    ok = from_arcs(2, 3, [(0, 1, 1), (1, 2, 1), (2, 0, 2)])
    assert in_family(ok, KE)
    assert not in_family(ok, K)


def test_family_chain_containments():
    for n, k in [(2, 3), (2, 4), (3, 3)]:
        for obj in family_members("g", n, k):
            memb = {t: in_family(obj, Family(t)) for t in ("ke", "k", "m", "mup", "mdown")}
            if memb["mup"] or memb["mdown"]:
                assert memb["m"]
            if memb["m"]:
                assert memb["k"]
            if memb["k"]:
                assert memb["ke"]


def test_family_membership_against_oracles():
    # with every label floor: a member of Family(tag, lo) is a member of tag
    # whose labels are all >= lo
    for n, k in [(2, 3), (3, 3), (2, 4)]:
        for obj in family_members("g", n, k):
            floor = min(obj.codes) // 2 + 1
            for tag in ("g", "ke", "k", "m", "mup", "mdown"):
                want = ORACLES[tag](obj)
                for lo in range(1, n + 2):
                    assert in_family(obj, Family(tag, lo)) == (want and floor >= lo), (
                        tag,
                        lo,
                        obj.key,
                    )


@pytest.mark.parametrize("n,k", [(3, 4), (4, 3)])
def test_m_membership_equals_position_tables(n, k):
    # past (2,4), the largest scale the definition oracle reaches: an acyclic
    # object is in m exactly when its labels over the positions of its
    # linear order (the object re-homed along that order) form an m table
    tables = set(graphs._position_tables(M, n, k))
    for obj in family_members("k", n, k):
        table = restrict(obj, linear_order(obj)).codes
        assert in_family(obj, M) == (table in tables), obj.key


def test_acyclicity_equals_no_directed_3cycle():
    # in_family("k") asks for a topological order; compare with generic search
    for obj in family_members("g", 2, 4):
        arcs = obj.arcs()
        assert in_family(obj, K) == (not generic_cycle_search(obj.k, arcs))


def test_label_floor_families():
    down = expr("3[]2((2[]3 6)[]2 4)[]2(1[]3 5)", 3)
    assert in_family(down, Family("mdown", 2))
    assert not in_family(down, Family("mdown", 3))
    assert in_family(down, Family("m", 2))
    assert Family("m", 1) == M


# ---------------------------------------------------------------------------
# linear order


def test_linear_order_examples():
    assert linear_order(point(3)) == (0,)
    assert linear_order(expr("1[]2 2", 2)) == (0, 1)
    assert linear_order(expr("2[]1 1", 2)) == (1, 0)
    neither = expr("3[]2((2[]3 6)[]1 4)[]2(1[]1 5)", 3)
    # 1-based reading: [3, 2, 6, 4, 1, 5]
    assert [v + 1 for v in linear_order(neither)] == [3, 2, 6, 4, 1, 5]


def test_linear_order_rejects_cycles():
    cyc = from_arcs(2, 3, [(0, 1, 1), (1, 2, 1), (2, 0, 2)])
    with pytest.raises(OrientedCycleError):
        linear_order(cyc)


def test_linear_order_equals_generic_cycle_search():
    for obj in family_members("g", 2, 4):
        _, k, _, arrow = decode(obj)
        if generic_cycle_search(k, [pair for pair, fwd in arrow.items() if fwd]):
            with pytest.raises(OrientedCycleError):
                linear_order(obj)
        else:
            order = linear_order(obj)
            assert sorted(order) == list(range(k))
            assert all(arrow[pair] for pair in combinations(order, 2)), obj.key


@pytest.mark.parametrize("n,k", [(2, 4), (3, 3)])
def test_topological_order_is_the_least_respecting_permutation(n, k):
    want = {}
    for obj in family_members("g", n, k):
        for label in range(1, n + 1):
            arcs = tuple(obj.arcs(label))
            if arcs not in want:
                want[arcs] = oracle_topological_order(k, arcs)
            assert topological_order(k, arcs) == want[arcs], (obj.key, label)
    assert None in want.values()


# ---------------------------------------------------------------------------
# box and gamma


def test_box_base_cases():
    assert box(2, point(2), point(2)) == expr("1[]2 2", 2)
    got = box(1, expr("1[]2 2", 2), point(2))
    assert got.label(0, 1) == 2 and got.arrow(0, 1)
    assert got.label(0, 2) == 1 and got.arrow(0, 2)
    assert got.label(1, 2) == 1 and got.arrow(1, 2)
    with pytest.raises(ValueError):
        box(3, point(2), point(2))


def test_gamma_unit():
    for nu in family_members("ke", 2, 3)[:20]:
        assert gamma(point(2), [nu]) == nu


def test_gamma_worked_example():
    mu = expr("2[]1(3[]2 1)", 3)
    nus = [expr("1[]1 2", 3), expr("1[]2 2", 3), expr("1[]3 2", 3)]
    got = gamma(mu, nus)
    want = expr("(3[]2 4)[]1((5[]3 6)[]2(1[]1 2))", 3)
    assert got == want
    # same object assembled by hand from box products; box builds over
    # concatenation positions, so re-home position p at its leaf name
    by_hand = box(
        1,
        box(2, point(3), point(3)),
        box(2, box(3, point(3), point(3)), box(1, point(3), point(3))),
    )
    leaves = [3, 4, 5, 6, 1, 2]
    assert restrict(by_hand, [leaves.index(e + 1) for e in range(6)]) == want


def _random_member(rng, fam, n, k):
    objs = family_members(fam.tag, n, k, fam.lo)
    return objs[rng.randrange(len(objs))]


def test_gamma_box_interchange_seeded():
    # gamma(mu1 box_i mu2, nus) == gamma(mu1, first part) box_i gamma(mu2, rest)
    rng = random.Random(711)
    for _ in range(50):
        n = rng.choice([2, 3])
        k1 = rng.randint(1, 2)
        k2 = rng.randint(1, 2)
        i = rng.randint(1, n)
        mu1 = _random_member(rng, KE, n, k1)
        mu2 = _random_member(rng, KE, n, k2)
        sizes = [rng.randint(1, 2) for _ in range(k1 + k2)]
        nus = [_random_member(rng, KE, n, s) for s in sizes]
        lhs = gamma(box(i, mu1, mu2), nus)
        rhs = box(i, gamma(mu1, nus[:k1]), gamma(mu2, nus[k1:]))
        assert lhs.key == rhs.key


def test_gamma_arity_mismatch():
    with pytest.raises(DimensionError):
        gamma(expr("1[]1 2", 2), [point(2)])


# ---------------------------------------------------------------------------
# sigma action and restriction


def test_sigma_identity_and_transposition():
    mu = expr("1[]2 2", 2)
    assert sigma_action(mu, (0, 1)) == mu
    swapped = sigma_action(mu, (1, 0))
    assert swapped.label(0, 1) == 2
    assert swapped.arrow(1, 0)  # orientation transported


def test_sigma_right_action_law_seeded():
    rng = random.Random(90210)
    for _ in range(100):
        n = rng.choice([2, 3])
        k = rng.randint(2, 4)
        mu = _random_member(rng, G, n, k)
        sigma = list(range(k))
        tau = list(range(k))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        lhs = sigma_action(sigma_action(mu, sigma), tau)
        composed = [sigma[tau[x]] for x in range(k)]
        assert lhs.key == sigma_action(mu, composed).key


def test_sigma_rejects_non_bijection():
    with pytest.raises(ValueError):
        sigma_action(expr("1[]1 2", 2), (0, 0))


def test_restrict_identity_and_subexpression():
    mu = expr("3[]2((2[]3 6)[]1 4)[]2(1[]1 5)", 3)
    assert restrict(mu, tuple(range(6))) == mu
    # restriction to names {2, 6, 4} is the sub-expression (2 []3 6) []1 4,
    # with names renumbered along the subset order 2,4,6 -> 1,2,3
    sub = restrict(mu, (1, 3, 5))
    assert sub == expr("(1[]3 3)[]1 2", 3)


def test_restrict_composes():
    rng = random.Random(5150)
    for _ in range(50):
        mu = _random_member(rng, G, 3, 4)
        inj1 = rng.sample(range(4), 3)
        inj2 = rng.sample(range(3), 2)
        direct = restrict(mu, [inj1[e] for e in inj2])
        assert restrict(restrict(mu, inj1), inj2) == direct


def test_restrict_preserves_mdown_exhaustive():
    from itertools import combinations

    for n, k in [(2, 3), (2, 4), (3, 3), (3, 4)]:
        for obj in family_members("mdown", n, k):
            for size in range(1, k + 1):
                for subset in combinations(range(k), size):
                    assert in_family(restrict(obj, subset), MDOWN)


def test_restrict_rejects_non_injection():
    with pytest.raises(ValueError):
        restrict(expr("1[]1 2", 2), (0, 0))


# ---------------------------------------------------------------------------
# duality


def test_dual_is_involution_exhaustive():
    for n, k in [(1, 3), (2, 3), (2, 4), (3, 3)]:
        for obj in family_members("g", n, k):
            assert dual(dual(obj)) == obj


def test_dual_reverses_edge_relation_state_table():
    # order reversal factorizes over edges, so checking every pair of edge
    # states is exhaustive for every k at once
    from boxops.graphs import edge_step_ok

    for n in (1, 2, 3):
        for a in range(2 * n):
            for b in range(2 * n):
                da = (n - 1 - (a >> 1)) * 2 | (a & 1)
                db = (n - 1 - (b >> 1)) * 2 | (b & 1)
                assert edge_step_ok(a, b) == edge_step_ok(db, da)


def test_dual_reverses_morphisms_object_level():
    objs = family_members("g", 2, 3)
    for a in objs:
        for b in objs:
            assert is_morphism(a, b) == is_morphism(dual(b), dual(a))


def test_dual_exchanges_up_and_down():
    for n, k in [(2, 3), (2, 4), (3, 3)]:
        ups = {o.key for o in family_members("mup", n, k)}
        downs = {o.key for o in family_members("mdown", n, k)}
        assert {dual(graphs.from_key(n, k, key)).key for key in ups} == downs
        for obj in family_members("m", n, k):
            assert in_family(dual(obj), M)


# ---------------------------------------------------------------------------
# top decomposition


def test_top_decomposition_single_block():
    mu = expr("1[]2 2", 2)
    assert top_decomposition(mu, 1) == ((0, 1),)


def test_top_decomposition_fully_split():
    mu = expr("1[]1 2[]1 3", 2)
    assert top_decomposition(mu, 1) == ((0,), (1,), (2,))


def test_top_decomposition_round_trip_exhaustive():
    for n, k in [(2, 3), (2, 4), (3, 3), (3, 4)]:
        for mu in family_members("mdown", n, k):
            blocks = top_decomposition(mu, 1)
            parts = [restrict(mu, blk) for blk in blocks]
            rebuilt = box_chain(1, parts)
            flat = [e for blk in blocks for e in blk]
            assert restrict(rebuilt, [flat.index(e) for e in range(k)]) == mu


def test_top_decomposition_requires_family():
    from boxops.errors import FamilyError

    not_down = expr("3[]2((2[]3 6)[]1 4)[]2(1[]1 5)", 3)
    with pytest.raises(FamilyError):
        top_decomposition(not_down, 1)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counting_formula_g23():
    assert len(family_members("g", 2, 3)) == 64


def test_single_edge_counts():
    for n in (1, 2, 3):
        for tag in ("k", "ke", "m"):
            assert len(family_members(tag, n, 2)) == 2 * n


def test_n1_families_coincide():
    for k in (2, 3, 4):
        kk = [o.key for o in family_members("k", 1, k)]
        assert kk == [o.key for o in family_members("ke", 1, k)]
        assert kk == [o.key for o in family_members("m", 1, k)]


def test_golden_counts_match_enumerator():
    for entry in GOLDEN["counts"]:
        n, k = entry["n"], entry["k"]
        for tag, want in entry["families"].items():
            assert len(family_members(tag, n, k)) == want, (tag, n, k)


def test_golden_counts_match_brute_force_k3():
    # re-derive the k=3 golden rows from the definition-literal oracle
    for entry in GOLDEN["counts"]:
        if entry["k"] != 3:
            continue
        n = entry["n"]
        for tag, want in entry["families"].items():
            assert len(brute_force_family(tag, n, 3)) == want, (tag, n)


def test_enumerator_matches_brute_force_objects():
    for tag in ("ke", "k", "m", "mup", "mdown"):
        fast = [o.key for o in family_members(tag, 2, 3)]
        slow = [o.key for o in brute_force_family(tag, 2, 3)]
        assert fast == slow
    # the tables of m, mup and mdown against the filter route, at every floor
    for n, k in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                 (3, 4), (4, 3)]:
        for lo in range(1, n + 2):
            for tag in ("m", "mup", "mdown"):
                fast = [o.key for o in enumerate_family(Family(tag, lo), n, k)]
                assert fast == list(filter_route(tag, n, k, lo)), (tag, n, k, lo)


def test_level_family_counts():
    # mdown and mup pair each of the k! linear orders with each of the
    # n^(k-1) level sequences
    scales = [(e["n"], e["k"], e["families"]) for e in GOLDEN["counts"]]
    scales += [(2, 5, None), (3, 5, None), (2, 6, None)]
    for n, k, golden in scales:
        want = math.factorial(k) * n ** (k - 1)
        for tag in ("mdown", "mup"):
            got = sum(1 for _ in enumerate_family(Family(tag), n, k))
            assert got == want, (tag, n, k)
            if golden is not None:
                assert golden[tag] == want, (tag, n, k)
    # m(2,5) as pinned here is also what the filter route over k(2,5) counts
    assert sum(1 for _ in enumerate_family(M, 2, 5)) == 10800


def test_enumeration_guard():
    with pytest.raises(BitBudgetError):
        list(enumerate_family(G, 3, 9, max_bits=64))


def test_interval_family_enumeration_via_shift():
    # members with labels >= 2 correspond to shifted members one label down
    lifted = sorted(
        shift_labels(o, 1, 3).key for o in family_members("mdown", 2, 3)
    )
    direct = [o.key for o in family_members("mdown", 3, 3, lo=2)]
    assert lifted == direct


def test_shift_labels_is_order_iso():
    objs = family_members("mdown", 2, 3)
    for a in objs:
        for b in objs:
            assert is_morphism(a, b) == is_morphism(
                shift_labels(a, 1, 3), shift_labels(b, 1, 3)
            )


def test_restrict_preserves_mup():
    from itertools import combinations

    for n, k in [(2, 4), (3, 3)]:
        for obj in family_members("mup", n, k):
            for size in range(1, k + 1):
                for subset in combinations(range(k), size):
                    assert in_family(restrict(obj, subset), MUP)


def test_dual_commutes_with_restriction():
    from itertools import combinations

    for obj in family_members("g", 3, 3):
        for size in (1, 2, 3):
            for subset in combinations(range(3), size):
                assert dual(restrict(obj, subset)) == restrict(dual(obj), subset)


def _bit_string(mask, size):
    """Character j is bit j of mask."""
    return format(mask, f"0{size}b")[::-1]


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_family_index_rows_equal_is_morphism(n, k):
    fam = family_members("ke", n, k)
    index = graphs.family_index(fam)
    # ups[i][j] is "1" iff fam[i] -> fam[j]
    ups = ["".join("1" if is_morphism(b, a) else "0" for a in fam) for b in fam]
    for b, row in zip(fam, ups):
        assert _bit_string(index.above(b), len(fam)) == row
    for nu, column in zip(fam, zip(*ups)):
        assert _bit_string(index.below(nu), len(fam)) == "".join(column)


def test_family_index_memo():
    fam = list(family_members("mdown", 3, 3))
    index = graphs.family_index(fam)
    assert graphs.family_index(fam) is index
    nu = fam[len(fam) // 2]
    fresh = graphs.family_index(list(fam))
    assert fresh is not index
    assert fresh.select(fresh.below(nu)) == index.select(index.below(nu))
    assert fresh.select(fresh.above(nu)) == index.select(index.above(nu))
    # a length change rebuilds the index
    extra = next(o for o in family_members("ke", 3, 3) if o not in set(fam))
    fam.append(extra)
    grown = graphs.family_index(fam)
    assert grown is not index and grown.size == len(fam)
    assert grown.select(grown.below(extra))[-1] == extra
    assert graphs.family_index([]).below(nu) == 0
    with pytest.raises(DimensionError):
        index.below(point(3))
