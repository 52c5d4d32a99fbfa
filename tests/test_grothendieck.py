import dataclasses
import hashlib
import json
import random

import pytest

from boxops import graphs
from boxops import grothendieck as groth
from boxops.contractibility import certify_contractible
from boxops.errors import FalsificationError, IntegrityError
from boxops.grothendieck import (
    BlockFiberFunctor,
    block_fiber_functor,
    family_tuple,
    grothendieck,
    two_label_form,
    verify_grothendieck_prop,
    verify_two_label_reduction,
)
from boxops.posets import Poset, poset_isomorphic, poset_product
from boxops.textform import from_box_expr

from oracles import (
    PosetFunctor,
    expand_block_functor,
    oracle_assembly_candidates,
    oracle_functor_laws,
    oracle_total_poset,
    oracle_transports,
    oracle_two_label_candidates,
    transport_keys,
)


def chain(m):
    return Poset.from_leq(tuple(range(m)), lambda a, b: a <= b)


def point_poset(key="*"):
    return Poset((key,), (1,))


def constant_functor(base, fiber):
    fibers = {a: fiber for a in base.elements}
    transports = {}
    for a in base.elements:
        for b in base.elements:
            if base.le(a, b):
                transports[(a, b)] = tuple(range(len(fiber)))
    return PosetFunctor(base=base, fibers=fibers, transports=transports)


def test_point_base_gives_fiber():
    fiber = chain(3)
    functor = constant_functor(point_poset(), fiber)
    total = oracle_total_poset(functor)
    assert poset_isomorphic(total, fiber) is not None


def test_point_fibers_give_base():
    base = chain(3)
    functor = constant_functor(base, point_poset())
    total = oracle_total_poset(functor)
    assert poset_isomorphic(total, base) is not None


def test_two_chains_identity_transport_is_grid():
    base = chain(2)
    functor = constant_functor(base, chain(2))
    total = oracle_total_poset(functor)
    grid = poset_product([chain(2), chain(2)])
    assert poset_isomorphic(total, grid) is not None


def test_functor_laws_are_enforced():
    base = chain(2)
    fiber = chain(2)
    transports = {
        (0, 0): (0, 1),
        (1, 1): (0, 1),
        (0, 1): (1, 0),  # not monotone
    }
    with pytest.raises(IntegrityError, match="not monotone"):
        PosetFunctor(base=base, fibers={0: fiber, 1: fiber}, transports=transports)


def antichain(m):
    return Poset.from_leq(tuple(range(m)), lambda a, b: a == b)


def law_case(law, base, fiber, transports, case):
    """base with the constant fiber, identities on the diagonal, then the
    given transports, where None drops one."""
    fibers = {a: fiber for a in base.elements}
    full = {(a, a): tuple(range(len(fiber))) for a in base.elements}
    full.update(transports)
    full = {pair: t for pair, t in full.items() if t is not None}
    return pytest.param(base, fibers, full, law, id=f"{law}-{case}")


LAW_BREAKS = [
    # a swap on the diagonal is not monotone either, and composes with
    # itself to the identity: the identity law is the one reported
    law_case("identity", chain(2), chain(2), {(0, 0): (1, 0), (0, 1): (0, 1)}, "swap"),
    law_case("identity", chain(2), chain(2), {(1, 1): None, (0, 1): (0, 1)}, "missing"),
    law_case("leaves the fiber", chain(2), chain(2), {(0, 1): (0,)}, "length"),
    law_case("leaves the fiber", chain(2), chain(2), {(0, 1): (0, 2)}, "above"),
    law_case("leaves the fiber", chain(2), chain(2), {(0, 1): (-1, 1)}, "below"),
    law_case("not monotone", chain(2), chain(2), {(0, 1): (1, 0)}, "swap"),
    # over an antichain every map is monotone; two swaps compose to the
    # identity, not to a swap
    law_case("composition", chain(3), antichain(2),
             {(0, 1): (1, 0), (1, 2): (1, 0), (0, 2): (1, 0)}, "swaps"),
]


@pytest.mark.parametrize("base,fibers,transports,law", LAW_BREAKS)
def test_each_functor_law_is_enforced(base, fibers, transports, law):
    assert oracle_functor_laws(base, fibers, transports) == law
    with pytest.raises(IntegrityError, match=law):
        PosetFunctor(base=base, fibers=fibers, transports=transports)


def test_fibers_are_points_for_two_labels():
    for obj in family_tuple("ke", 2, 3):
        functor = block_fiber_functor(2, obj)
        assert all(len(f) == 1 for f in functor.fibers.values())


def built_functor_objects():
    """Every ke(3,3) object and a seeded ke(3,4) sample."""
    objs = list(family_tuple("ke", 3, 3))
    return objs + random.Random(2024).sample(list(family_tuple("ke", 3, 4)), 40)


def test_functor_laws_hold_for_built_fibers():
    for obj in built_functor_objects():
        # both constructions validate: the block laws, then every pair and
        # triple of the expanded transports
        expanded = expand_block_functor(block_fiber_functor(3, obj))
        assert oracle_functor_laws(
            expanded.base, expanded.fibers, expanded.transports
        ) is None


def test_transports_equal_restriction_oracle():
    for obj in built_functor_objects():
        expanded = expand_block_functor(block_fiber_functor(3, obj))
        want = oracle_transports(3, obj)
        assert sorted(expanded.transports) == sorted(want)
        for pair, t in want.items():
            got = transport_keys(expanded.fibers, expanded.transports, *pair)
            assert list(got.items()) == list(t.items())  # element order too


def test_gather_equals_restrict_on_every_member():
    from boxops.graphs import restrict

    for obj in built_functor_objects():
        functor = block_fiber_functor(3, obj)
        for fine, coarse in functor.restrictions:
            at = [coarse.index(e) for e in fine]
            members = groth._block_fiber(3, obj, coarse)[1]
            gathered = groth._gather(3, len(coarse), at, [m.key for m in members])
            assert gathered == [restrict(m, at).key for m in members]
            scattered = [groth._scatter(3, len(coarse), at, key) for key in gathered]
            assert groth._gather(3, len(coarse), at, scattered) == gathered


def test_fiber_over_single_block_is_full_over_poset():
    # an object with no 1-labels admits the one-block partition, whose fiber
    # is the whole over-poset of the floor-2 family
    obj = from_box_expr("(1[]2 2)[]3 3", 3)
    functor = block_fiber_functor(3, obj)
    assert tuple([1] * 3) in functor.blocks
    from boxops.graphs import Family, is_morphism, shift_labels

    members = [
        shift_labels(o, 1, 3)
        for o in graphs.enumerate_family(Family("mdown"), 2, 3)
    ]
    want = sorted(o.key for o in members if is_morphism(o, obj))
    got = sorted(functor.fibers[(0, 1, 2)].elements)
    assert got == want


def test_grothendieck_prop_exhaustive_k2():
    for obj in family_tuple("ke", 3, 2):
        report = verify_grothendieck_prop(3, obj)
        assert report["isomorphic"]


def test_grothendieck_prop_sampled_k3():
    rng = random.Random(77)
    objs = family_tuple("ke", 3, 3)
    for obj in rng.sample(list(objs), 30):
        report = verify_grothendieck_prop(3, obj)
        assert report["isomorphic"]
        assert report["total"] == report["over"]


def test_trivial_reduction_for_two_labels():
    # with two labels the construction reproduces the over-poset directly
    for obj in family_tuple("ke", 2, 3)[:12]:
        report = verify_grothendieck_prop(2, obj)
        assert report["isomorphic"]
        assert all(s == 1 for s in report["fiber_sizes"])


# ---------------------------------------------------------------------------
# the two-label reduction


def test_two_label_form_labels_and_arcs():
    obj = from_box_expr("3[]1((2[]3 6)[]2 4)[]1(1[]3 5)", 3)
    prime = two_label_form(obj)
    assert prime.n == 2
    for x, y in graphs.edge_pairs(6):
        want = 1 if obj.label(x, y) == 1 else 2
        assert prime.label(x, y) == want
        if obj.label(x, y) == 1:
            assert prime.arrow(x, y) == obj.arrow(x, y)
    assert graphs.in_family(prime, graphs.KE)


def test_two_label_form_no_ones():
    obj = from_box_expr("(1[]2 2)[]3 3", 3)
    prime = two_label_form(obj)
    # orientations follow the index order when nothing is constrained
    for x, y in graphs.edge_pairs(3):
        assert prime.arrow(x, y)
        assert prime.label(x, y) == 2


def test_two_label_form_idempotent_context():
    for obj in family_tuple("ke", 2, 3):
        prime = two_label_form(obj)
        assert prime.arcs(label=1) == obj.arcs(label=1)
        report = verify_two_label_reduction(obj)
        assert report["isomorphic"]


def test_two_label_reduction_exhaustive_k3():
    for obj in family_tuple("ke", 3, 3):
        report = verify_two_label_reduction(obj)
        assert report["isomorphic"]


def test_recursive_pipeline_closes_direct_and_structural():
    import random

    from boxops.graphs import is_morphism
    from boxops.contractibility import object_poset

    rng = random.Random(314)
    cases = list(family_tuple("ke", 3, 2))
    cases += rng.sample(list(family_tuple("ke", 3, 3)), 30)
    cases += rng.sample(list(family_tuple("ke", 3, 4)), 8)
    down3 = {}
    for obj in cases:
        k = obj.k
        if k not in down3:
            down3[k] = list(family_tuple("mdown", 3, k))
        members = [a for a in down3[k] if is_morphism(a, obj)]
        direct = certify_contractible(object_poset(members))
        assert direct.contractible()


@pytest.mark.parametrize("n,k,sample", [(2, 3, None), (3, 3, None), (3, 4, 60)])
def test_indexed_member_filters_equal_is_morphism_filters(n, k, sample):
    from boxops.graphs import is_morphism, restrict, shift_labels
    from boxops.grothendieck import _block_fiber, over_poset_of_mdown
    from boxops.partitions import ArcContext

    objs = list(family_tuple("ke", n, k))
    if sample is not None:
        objs = random.Random(n * 10 + k).sample(objs, sample)
    for obj in objs:
        over = over_poset_of_mdown(n, obj)
        want = [o.key for o in family_tuple("mdown", n, k) if is_morphism(o, obj)]
        assert list(over.elements) == sorted(want)
        for partition in ArcContext.from_graph_object(obj).partitions():
            for block in partition.blocks():
                obj_b = restrict(obj, block)
                raised = [shift_labels(o, 1, n)
                          for o in family_tuple("mdown", n - 1, len(block))]
                want = [o.key for o in raised if is_morphism(o, obj_b)]
                poset, members = _block_fiber(n, obj, block)
                assert [m.key for m in members] == sorted(want)
                assert list(poset.elements) == sorted(want)


def test_total_poset_equals_defining_relation():
    for obj in built_functor_objects():
        functor = block_fiber_functor(3, obj)
        got = grothendieck(functor)
        want = oracle_total_poset(expand_block_functor(functor))
        assert got.elements == want.elements
        assert got.up == want.up


def test_total_preorder_is_refused():
    # over poset fibers the total relation is antisymmetric; a fiber that
    # is only a preorder (x <= y <= x) makes the total relation one too
    fiber = Poset(("x", "y"), (0b11, 0b11), validate=False)
    functor = BlockFiberFunctor(
        base=Poset(((1,),), (1,)), blocks={(1,): ((0,),)}, fibers={(0,): fiber},
        restrictions={((0,), (0,)): (0, 1)},
    )
    with pytest.raises(IntegrityError, match="preorder"):
        grothendieck(functor)


# ---------------------------------------------------------------------------
# the block laws


def nested_blocks():
    """The first sampled ke(3,4) object with blocks A inside B inside C whose
    r[A, C] is not constant: (object, its functor, (A, B, C))."""
    for obj in built_functor_objects()[len(family_tuple("ke", 3, 3)):]:
        functor = block_fiber_functor(3, obj)
        r = functor.restrictions
        for fine, mid in r:
            for coarse in {c for b, c in r if b == mid} - {fine, mid}:
                if fine != mid and len(set(r.get((fine, coarse), ()))) > 1:
                    return obj, functor, (fine, mid, coarse)
    raise AssertionError("the sample holds no three nested blocks")


def break_law(law):
    """The fields of nested_blocks()'s functor with one block law broken."""
    _, functor, (fine, _, coarse) = nested_blocks()
    fields = dict(vars(functor))
    r = fields["restrictions"] = dict(functor.restrictions)
    t = list(r[fine, coarse])
    if law == "identity":
        r[coarse, coarse] = r[coarse, coarse][::-1]
    elif law == "refine":
        fields["base"] = functor.base.opposite()
    elif law == "missing":
        del r[fine, coarse]
    elif law == "leaves the fiber":
        r[fine, coarse] = (len(functor.fibers[fine]),) + tuple(t[1:])
    elif law == "not monotone":
        # a swap on y < z with t[y] < t[z] carries y <= z to t[z] > t[y]
        up = functor.fibers[coarse].up
        y, z = next((y, z) for y in range(len(t)) for z in range(len(t))
                    if up[y] >> z & 1 and t[y] != t[z])
        t[y], t[z] = t[z], t[y]
        r[fine, coarse] = tuple(t)
    elif law == "composition":
        # a constant map is monotone, but r[A, B] r[B, C] is not constant
        r[fine, coarse] = (t[0],) * len(t)
    return fields


@pytest.mark.parametrize(
    "law", ["identity", "refine", "missing", "leaves the fiber", "not monotone", "composition"]
)
def test_each_block_law_is_enforced(law):
    fields = break_law(law)
    with pytest.raises(IntegrityError, match=law):
        BlockFiberFunctor(**fields)


def test_unbroken_fields_construct():
    _, functor, _ = nested_blocks()
    fields = dict(vars(functor))
    assert BlockFiberFunctor(**fields) == functor


@pytest.mark.parametrize("checked", [True, False], ids=["block-laws", "total-poset"])
def test_one_swapped_restriction_position_is_refused(monkeypatch, checked):
    obj, functor, (fine, _, coarse) = nested_blocks()
    t = list(functor.restrictions[fine, coarse])
    z = next(z for z, x in enumerate(t) if x != t[0])
    t[0], t[z] = t[z], t[0]
    r = {**functor.restrictions, (fine, coarse): tuple(t)}
    real = groth.block_fiber_functor

    def swapped(n, obj):
        built = real(n, obj)
        if checked:
            return dataclasses.replace(built, restrictions=r)
        object.__setattr__(built, "restrictions", r)  # past the block laws
        return built

    monkeypatch.setattr(groth, "block_fiber_functor", swapped)
    with pytest.raises(IntegrityError, match="not monotone" if checked else "preorder"):
        verify_grothendieck_prop(3, obj)


# sha256 over the verify_grothendieck_prop(3, obj) report of every ke(3,3)
# object, then of a seeded 300-object ke(3,4) sample, one sorted-key JSON
# line each, as computed when every transport was a per-pair position tuple
GROTHENDIECK_EVIDENCE = "86b1959a470f810b916e9712dafa4c9583d045cc9570df49b7e8371a2d3547ee"


def test_grothendieck_evidence_is_pinned():
    objs = list(family_tuple("ke", 3, 3))
    objs += random.Random(2024).sample(list(family_tuple("ke", 3, 4)), 300)
    h = hashlib.sha256()
    for obj in objs:
        report = verify_grothendieck_prop(3, obj)
        h.update(json.dumps(report, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == GROTHENDIECK_EVIDENCE


# ---------------------------------------------------------------------------
# the assembly candidates on keys


def capture_candidates(monkeypatch):
    """Record each candidate map the verifies hand to poset_isomorphic."""
    seen = []
    real = groth.poset_isomorphic

    def spy(p, q, candidate=None):
        seen.append(candidate)
        return real(p, q, candidate=candidate)

    monkeypatch.setattr(groth, "poset_isomorphic", spy)
    return seen


def test_assembly_candidates_equal_gluing_oracle(monkeypatch):
    seen = capture_candidates(monkeypatch)
    for obj in built_functor_objects():
        seen.clear()
        verify_grothendieck_prop(3, obj)
        assert seen == [oracle_assembly_candidates(3, obj)]


def test_two_label_candidates_equal_code_oracle(monkeypatch):
    seen = capture_candidates(monkeypatch)
    for obj in built_functor_objects():
        seen.clear()
        verify_two_label_reduction(obj)
        assert seen == [oracle_two_label_candidates(obj)]


def first_with_one_arc():
    return next(o for o in family_tuple("ke", 3, 3) if o.arcs(label=1))


def test_spoiled_cross_key_is_not_in_the_over_poset(monkeypatch):
    # reversing the block order points every cross edge to the earlier
    # block, against the 1-arc every admissible partition separates
    gluing = groth._gluing

    def reversed_blocks(n, alpha):
        return gluing(n, tuple(max(alpha) + 1 - i for i in alpha))

    monkeypatch.setattr(groth, "_gluing", reversed_blocks)
    obj = first_with_one_arc()
    with pytest.raises(FalsificationError, match="not in the over-poset") as exc:
        verify_grothendieck_prop(3, obj)
    over = groth.over_poset_of_mdown(3, obj)
    alphas = block_fiber_functor(3, obj).base.elements
    assert exc.value.state["alpha"] in alphas
    assert exc.value.state["key"] not in over.index


def test_swapped_assembly_keys_are_not_an_isomorphism(monkeypatch):
    real = groth.poset_isomorphic

    def swapped(p, q, candidate):
        # an element and one strictly above it trade images
        i = next(i for i, row in enumerate(p.up) if row.bit_count() > 1)
        j = next(j for j in range(len(p)) if j != i and p.up[i] >> j & 1)
        a, b = p.elements[i], p.elements[j]
        candidate = dict(candidate)
        candidate[a], candidate[b] = candidate[b], candidate[a]
        return real(p, q, candidate=candidate)

    monkeypatch.setattr(groth, "poset_isomorphic", swapped)
    with pytest.raises(FalsificationError, match="not an order isomorphism"):
        verify_grothendieck_prop(3, from_box_expr("(1[]2 2)[]3 3", 3))


def test_spoiled_two_label_candidate_is_refused(monkeypatch):
    # an empty within key drops prime's label-2 edges inside every block
    gluing = groth._gluing
    monkeypatch.setattr(groth, "_gluing", lambda n, alpha: (gluing(n, alpha)[0], 0))
    with pytest.raises(FalsificationError, match="identity-on-partitions"):
        verify_two_label_reduction(from_box_expr("(1[]2 2)[]3 3", 3))
