"""Acceptance gate: every criterion runs at its pinned scale.

Each test prints one PASS/FAIL line (visible under `pytest -s` or in the
captured output).  Scales, seeds and tolerances are fixed here; nothing is
deferred to later calibration.  All comparisons are exact.
"""

import time

from boxops import checks, graphs
from boxops.bits import iter_bits
from boxops.graphs import dual, gamma, in_family
from boxops.grothendieck import (
    family_tuple,
    verify_grothendieck_prop,
    verify_two_label_reduction,
)
from boxops.partitions import (
    ArcContext,
    all_contexts,
    compatible,
    compatible_blocks,
    block_infimum,
    least_element,
    preceq,
    preceq_blocks,
    compatible_predecessor,
    wedge,
)
from boxops.reports import PASS
from boxops.textform import from_box_expr, to_box_expr

SEED = 20260808


def _announce(num, name, detail):
    print(f"ACCEPTANCE {num} [{name}]: PASS ({detail})")


def _require_all_pass(records, context):
    bad = [r for r in records if r.verdict != PASS]
    assert not bad, f"{context}: {len(bad)} non-passing, first: {bad[0].to_json()}"


def test_criterion_1_collapse_certificates():
    counts = {}
    for k in (2, 3, 4):
        records = checks.run_collapse(n=2, k=k)
        assert len(records) == len(family_tuple("ke", 2, k))
        _require_all_pass(records, f"collapse k={k}")
        for rec in records:
            assert rec.evidence["method"] == "matching"
            # a complex that collapses to a point has Euler characteristic 1
            simplices = rec.evidence["simplices"]
            assert sum((-1) ** d * c for d, c in enumerate(simplices)) == 1
        counts[k] = len(records)
    _announce(
        1,
        "collapse to the least partition, by an acyclic matching checked on "
        "every simplex",
        f"objects per k: {counts}",
    )


def test_criterion_2_homotopy_sweeps():
    totals = []
    for n, k in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        over = checks.run_initiality(n, k)
        under = checks.run_finality(n, k)
        _require_all_pass(over, f"initiality n={n} k={k}")
        _require_all_pass(under, f"finality n={n} k={k}")
        totals.append((n, k, len(over)))
    over = checks.run_initiality(3, 4, sample=500, seed=SEED)
    under = checks.run_finality(3, 4, sample=500, seed=SEED)
    assert len(over) == 500 and len(under) == 500
    _require_all_pass(over, "initiality n=3 k=4 sampled")
    _require_all_pass(under, "finality n=3 k=4 sampled")
    _announce(
        2,
        "over-posets of the down-family and under-posets of the up-family "
        "all contractibility-certified",
        f"exhaustive {totals}, plus 500 sampled at (3,4)",
    )


def test_criterion_3_grothendieck_isomorphism():
    done = 0
    for k in (1, 2, 3):
        for obj in family_tuple("ke", 3, k):
            report = verify_grothendieck_prop(3, obj)
            assert report["isomorphic"] and report["total"] == report["over"]
            done += 1
    import random

    rng = random.Random(SEED)
    sample = sorted(
        rng.sample(list(family_tuple("ke", 3, 4)), 200), key=lambda o: o.key
    )
    for obj in sample:
        assert verify_grothendieck_prop(3, obj)["isomorphic"]
    _announce(
        3,
        "partition-fiber assembly is a poset isomorphism",
        f"{done} exhaustive at k<=3, 200 sampled at k=4",
    )


def test_criterion_4_two_label_reduction():
    objs = family_tuple("ke", 3, 4)
    verified = {}
    for obj in objs:
        key = ArcContext.from_graph_object(obj).context_key()
        if key not in verified:
            verified[key] = verify_two_label_reduction(obj)["isomorphic"]
        assert verified[key]
    assert len(objs) == 41400
    assert len(verified) == 219
    _announce(
        4,
        "identity-on-partitions reduction to two labels",
        f"{len(objs)} objects across {len(verified)} constraint contexts",
    )


def test_criterion_5_worked_algebra():
    mu = from_box_expr("2[]1(3[]2 1)", 3)
    nus = [from_box_expr("1[]1 2", 3), from_box_expr("1[]2 2", 3),
           from_box_expr("1[]3 2", 3)]
    rendered = to_box_expr(gamma(mu, nus))
    assert rendered == "(3[]2 4)[]1((5[]3 6)[]2(1[]1 2))"

    neither = from_box_expr("3[]2((2[]3 6)[]1 4)[]2(1[]1 5)", 3)
    up = from_box_expr("3[]3((2[]1 6)[]2 4)[]3(1[]1 5)", 3)
    down = from_box_expr("3[]1((2[]3 6)[]2 4)[]1(1[]3 5)", 3)
    assert in_family(neither, graphs.M)
    assert not in_family(neither, graphs.MUP)
    assert not in_family(neither, graphs.MDOWN)
    assert in_family(up, graphs.MUP)
    assert in_family(down, graphs.MDOWN)
    assert dual(up) == down and dual(down) == up
    _announce(
        5,
        "worked product reproduced byte-exactly; example memberships and "
        "dual exchange verified",
        f"rendered {rendered!r}",
    )


def test_criterion_6_duality():
    details = []
    for n in (1, 2, 3):
        for k in (3, 4):
            records = checks.run_duality(n, k, seed=SEED)
            _require_all_pass(records, f"duality n={n} k={k}")
            reversal = next(
                r for r in records if r.params["variant"] == "order-reversal"
            )
            details.append((n, k, reversal.evidence["mode"]))
    _announce(
        6,
        "dual is an involutive order-reversing bijection exchanging the "
        "up/down families and preserving the rest",
        f"order-reversal modes {details}",
    )


def test_criterion_7_cube_sweeps():
    records = checks.run_cubes(SEED)
    _require_all_pass(records, "cubes")
    variants = {}
    for rec in records:
        variants.setdefault(rec.params["variant"], 0)
        variants[rec.params["variant"]] += 1
    assert variants == {
        "nonempty": 3,
        "union": 3,
        "homotopy": 3,
        "infimum": 1,
        "factorization": 1,
    }
    union_counts = [
        rec.evidence["configs"] for rec in records if rec.params["variant"] == "union"
    ]
    assert all(c >= 1000 for c in union_counts)
    homotopy_counts = [
        rec.evidence["samples"]
        for rec in records
        if rec.params["variant"] == "homotopy"
    ]
    assert all(c >= 200 for c in homotopy_counts)
    _announce(
        7,
        "realization nonemptiness, closed-form union membership, homotopy "
        "identities, and action/composition factorizations",
        f"records {variants}",
    )


def test_criterion_8_colimit_counterexample():
    t0 = time.perf_counter()
    (record,) = checks.run_reedy()
    wall = time.perf_counter() - t0
    assert record.verdict == PASS
    assert record.evidence["step1_in_both"]
    assert len(record.evidence["step2_interval"]) == 2
    assert len(record.evidence["step3_below"]) == 1
    assert len(record.evidence["step4_components"]) >= 2
    assert record.evidence["not_injective"]
    assert wall < 1.0, f"counterexample took {wall:.3f}s"
    _announce(
        8,
        "punctured-overcategory colimit map is not injective at the shared "
        "configuration",
        f"{wall * 1000:.0f}ms, fiber components {record.evidence['step4_components']}",
    )


def test_criterion_9_property_suites():
    # two characterizations of compatibility and of the pointwise order
    for k in (2, 3, 4):
        parts = ArcContext.from_arcs(k, ()).partitions()
        for v in parts:
            for w in parts:
                assert compatible(v, w) == compatible_blocks(v, w)
                assert preceq(v, w) == preceq_blocks(v, w)

    property_pairs = 0
    predecessor_pairs = 0
    for k in (2, 3, 4):
        for ctx in all_contexts(k):
            parts = ctx.partitions()
            npart = len(parts)
            idx = {v.alpha: i for i, v in enumerate(parts)}
            below = []
            for v in parts:
                mask = 0
                for j, w in enumerate(parts):
                    if preceq(w, v):
                        mask |= 1 << j
                below.append(mask)
            poset = ctx.poset()
            down = poset.down_rows()
            least = least_element(parts)
            assert all(preceq(least, v) for v in parts)
            for i, v in enumerate(parts):
                for j in range(i, npart):
                    w = parts[j]
                    compat = compatible(v, w)
                    got = block_infimum(v, w)
                    if compat:
                        # blockwise infimum is the greatest lower bound in
                        # the refinement order
                        gi = idx[got.alpha]
                        assert down[i] & down[j] == down[gi]
                        # pointwise minimum needs no compression and is the
                        # greatest lower bound in the pointwise order
                        u = wedge(v, w)
                        assert u.alpha == tuple(
                            min(a, b) for a, b in zip(v.alpha, w.alpha)
                        )
                        assert below[i] & below[j] == below[idx[u.alpha]]
                        assert compatible(u, v) and compatible(u, w)
                        property_pairs += 1
                    else:
                        assert got is None
                        assert down[i] & down[j] == 0
            for u in parts:
                for v in parts:
                    if preceq(u, v) and u != v:
                        compatible_predecessor(u, v, universe=parts)
                        predecessor_pairs += 1

    # wedge preserves compatibility, exhaustive at k <= 4
    for k in (3, 4):
        parts = ArcContext.from_arcs(k, ()).partitions()
        caps = []
        for v in parts:
            mask = 0
            for j, w in enumerate(parts):
                if compatible(v, w):
                    mask |= 1 << j
            caps.append(mask)
        for i, v in enumerate(parts):
            for j, w in enumerate(parts):
                u = wedge(v, w)
                meet = caps[i] & caps[j]
                bits = meet
                while bits:
                    b = bits & (-bits)
                    z = b.bit_length() - 1
                    bits ^= b
                    assert compatible(parts[z], u)
        property_pairs += len(parts) ** 2

    axioms = checks.run_axioms(SEED)
    _require_all_pass(axioms, "operad axioms")

    # determinism: identical reruns produce identical records and bytes
    first = [
        (r.check, r.params, r.verdict, r.evidence)
        for r in checks.run_collapse(2, 3)
    ]
    second = [
        (r.check, r.params, r.verdict, r.evidence)
        for r in checks.run_collapse(2, 3)
    ]
    assert first == second

    # recorded open-question search: a non-maximal simplex may lack a least
    # vertex; the smallest witness lives at k=4
    witness = None
    for k in (3, 4):
        if witness:
            break
        for ctx in all_contexts(k):
            simplices = ctx.flag_complex().materialize()
            parts = ctx.partitions()
            for mask in simplices:
                if mask.bit_count() < 2:
                    continue
                if not any(
                    (mask | (1 << i)) in simplices
                    for i in range(len(parts))
                    if not (mask >> i) & 1
                ):
                    continue
                verts = [parts[i] for i in iter_bits(mask)]
                if not any(all(preceq(v, w) for w in verts) for v in verts):
                    witness = (k, sorted(v.word() for v in verts))
                    break
            if witness:
                break
    _announce(
        9,
        "compatibility/infimum/pointwise-minimum/predecessor properties exhaustive "
        "through k=4; operad laws on seeded samples; reruns identical",
        f"{property_pairs} property pairs, {predecessor_pairs} predecessor pairs, "
        f"least-vertex-free non-maximal simplex: {witness}",
    )
