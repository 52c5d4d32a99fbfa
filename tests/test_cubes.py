import hashlib
import math
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest

from boxops import cubes, graphs
from boxops.cubes import (
    AffineEmbedding,
    CubeConfig,
    LittleCube,
    blend,
    brute_force_realizes_below,
    compose_configs,
    factorization_checks,
    realization_certificate,
    stage_homotopy,
    realizes_below,
    realizes,
    infimum_check,
    less_i,
    less_table,
    permute_config,
    reedy_counterexample,
    sample_config,
    verify_cycle_certificate,
    witness,
)
from boxops.errors import DimensionError, FamilyError
from boxops.graphs import from_arcs, is_morphism
from boxops.textform import from_box_expr

from conftest import family_members
from oracles import generic_cycle_search, oracle_realizes, oracle_union_below

H = Fraction(1, 2)
T = Fraction(1, 3)


def worked_config():
    c1 = LittleCube.from_intervals((0, H), (0, T), (H, 1))
    c2 = LittleCube.from_intervals((0, 1), (T, 2 * T), (0, H))
    c3 = LittleCube.from_intervals((H, 1), (2 * T, 1), (H, 1))
    return CubeConfig(3, (c1, c2, c3))


def test_affine_embedding_validation():
    with pytest.raises(ValueError):
        AffineEmbedding(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        AffineEmbedding(Fraction(-1, 2), Fraction(1, 2))
    f = AffineEmbedding(Fraction(1, 4), Fraction(3, 4))
    assert f(Fraction(0)) == Fraction(1, 4)
    assert f(Fraction(1)) == Fraction(3, 4)


def test_less_i_boundary_and_self():
    c = LittleCube.from_intervals((0, H))
    d = LittleCube.from_intervals((H, 1))
    assert less_i(c, d, 1)  # touching closures allowed
    assert not less_i(d, c, 1)
    assert not less_i(c, c, 1)  # a < b forces overlap with itself


def test_less_i_worked_coordinate():
    p = worked_config()
    assert less_i(p.cubes[1], p.cubes[0], 3)  # 1/2 <= 1/2


def test_worked_config_separated_and_in_both():
    p = worked_config()
    assert p.separated()
    mu1 = from_box_expr("1[]2 2[]2 3", 3)
    mu2 = from_box_expr("2[]3(1[]1 3)", 3)
    assert realizes(p, mu1)
    assert realizes(p, mu2)


def test_in_G_fails_on_monochromatic_cycle():
    cyc = from_arcs(2, 3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    rng = random.Random(5)
    for _ in range(10):
        cfg = sample_config(rng, 2, 3)
        assert not realizes(cfg, cyc)


def test_witness_two_elements():
    mu = from_box_expr("1[]2 2", 2)
    cfg = witness(mu)
    # both coordinates split by rank; label-1 ranks fall back to index order
    assert cfg.cubes[0].coords[0].a == 0 and cfg.cubes[0].coords[0].b == H
    assert cfg.cubes[1].coords[0].a == H and cfg.cubes[1].coords[0].b == 1
    assert cfg.cubes[0].coords[1].b == H
    assert realizes(cfg, mu)


def test_affine_embedding_keeps_fraction_endpoints():
    a, b = Fraction(1, 3), Fraction(1, 2)
    e = AffineEmbedding(a, b)
    assert e.a is a and e.b is b
    e = AffineEmbedding(0, "1/2")
    assert type(e.a) is Fraction and (e.a, e.b) == (0, Fraction(1, 2))


def test_witness_single_cube_is_identity():
    cfg = witness(graphs.point(3))
    for f in cfg.cubes[0].coords:
        assert (f.a, f.b) == (0, 1)


def test_witness_or_cycle_exhaustive_g23():
    for mu in family_members("g", 2, 3):
        kind, payload = realization_certificate(mu)
        if graphs.in_family(mu, graphs.KE):
            assert kind == "witness"
            assert realizes(payload, mu)
            assert payload.separated()
        else:
            assert kind == "cycle"
            assert verify_cycle_certificate(mu, payload)


@pytest.mark.parametrize("n,k", [(2, 4), (3, 3)])
def test_cycle_certificate_exactly_when_generic_search_finds_one(n, k):
    cycles = 0
    for mu in family_members("g", n, k):
        kind, payload = realization_certificate(mu)
        cyclic = any(generic_cycle_search(k, mu.arcs(label)) for label in range(1, n + 1))
        assert (kind == "cycle" and verify_cycle_certificate(mu, payload)) == cyclic
        cycles += cyclic
    assert cycles > 0


def test_witness_refusal_names_cycle():
    cyc = from_arcs(2, 3, [(0, 1, 2), (1, 2, 2), (2, 0, 2)])
    with pytest.raises(FamilyError):
        witness(cyc)


def test_infimum_check_identity_and_worked_instance():
    mu1 = from_box_expr("1[]2 2[]2 3", 3)
    mu2 = from_box_expr("2[]3(1[]1 3)", 3)
    p = worked_config()
    assert infimum_check(mu1, mu1, p) == mu1
    mu0 = infimum_check(mu1, mu2, p)
    assert is_morphism(mu0, mu1) and is_morphism(mu0, mu2)
    assert realizes(p, mu0)


def test_infimum_check_seeded_pairs():
    rng = random.Random(333)
    objs = list(family_members("ke", 2, 3))
    done = 0
    while done < 60:
        cfg = sample_config(rng, 2, 3)
        holders = [mu for mu in objs if realizes(cfg, mu)]
        if len(holders) < 2:
            continue
        mu1, mu2 = rng.sample(holders, 2)
        infimum_check(mu1, mu2, cfg)  # raises on any failed verification
        done += 1


def test_in_G_implies_in_F():
    rng = random.Random(12)
    objs = list(family_members("ke", 2, 3))
    for _ in range(40):
        cfg = sample_config(rng, 2, 3)
        for mu in objs:
            if realizes(cfg, mu):
                assert realizes_below(cfg, mu, check_separated=False)


def test_realizes_below_worked_instance():
    p = worked_config()
    nu = from_box_expr("2[]3(1[]2 3)", 3)
    assert realizes_below(p, nu)


def test_in_F_matches_brute_force_union_seeded():
    rng = random.Random(99)
    objs = list(family_members("ke", 2, 3))
    for _ in range(50):
        cfg = sample_config(rng, 2, 3)
        for nu in objs:
            got = realizes_below(cfg, nu, check_separated=False)
            want = brute_force_realizes_below(cfg, nu, objs)
            assert got == want


def test_in_F_monotone_seeded():
    rng = random.Random(4242)
    objs = list(family_members("ke", 2, 3))
    for _ in range(40):
        cfg = sample_config(rng, 2, 3)
        nu1 = rng.choice(objs)
        ups = [o for o in objs if is_morphism(nu1, o)]
        nu2 = rng.choice(ups)
        if realizes_below(cfg, nu1, check_separated=False):
            assert realizes_below(cfg, nu2, check_separated=False)


def test_homotopy_endpoint_identities():
    rng = random.Random(7)
    objs = list(family_members("ke", 2, 3))
    nu = objs[17]
    anchor = witness(nu)
    cfg = sample_config(rng, 2, 3)
    assert stage_homotopy(2, cfg, 0, anchor) == CubeConfig(
        2, (cfg.cubes[0], cfg.cubes[1], cfg.cubes[2])
    )
    assert stage_homotopy(1, cfg, 1, anchor) == anchor
    # chaining: H_j(-, 1) == H_{j-1}(-, 0)
    assert stage_homotopy(2, cfg, 1, anchor) == stage_homotopy(1, cfg, 0, anchor)
    with pytest.raises(ValueError):
        stage_homotopy(1, cfg, Fraction(3, 2), anchor)
    bad_anchor = sample_config(rng, 2, 3)
    if not realizes(bad_anchor, nu):
        with pytest.raises(ValueError):
            stage_homotopy(1, cfg, H, bad_anchor, nu=nu)


def test_homotopy_preserves_membership_seeded():
    rng = random.Random(606)
    objs = list(family_members("ke", 2, 3))
    done = 0
    while done < 60:
        nu = rng.choice(objs)
        anchor = witness(nu)
        cfg = sample_config(rng, 2, 3)
        if not realizes_below(cfg, nu, check_separated=False):
            continue
        j = rng.randint(1, 2)
        t = Fraction(rng.randint(0, 6), 6)
        moved = stage_homotopy(j, cfg, t, anchor, nu=nu)
        assert realizes_below(moved, nu, check_separated=False)
        done += 1


def test_blend_convexity_seeded():
    # a blend of two configurations realizes every object both realize
    rng = random.Random(31)
    objs = list(family_members("ke", 2, 3))
    pairs = 0
    while pairs < 40:
        c1 = sample_config(rng, 2, 3)
        c2 = sample_config(rng, 2, 3)
        shared = [mu for mu in objs if realizes(c1, mu) and realizes(c2, mu)]
        if not shared:
            continue
        lam = Fraction(rng.randint(0, 8), 8)
        mid = blend(c1, c2, lam)
        assert all(realizes(mid, mu) for mu in shared)
        pairs += 1


def test_permute_and_compose_units():
    mu = from_box_expr("1[]2 2[]2 3", 2)
    cfg = witness(mu)
    assert permute_config(cfg, (0, 1, 2)) == cfg
    unit = witness(graphs.point(2))
    assert compose_configs(unit, [cfg]) == cfg


def test_factorization_checks_pass():
    report = factorization_checks(seed=20260808, gamma_samples=30)
    assert report["sigma_checked"] == 60 * 6
    assert report["gamma_checked"] == 30


def test_reedy_counterexample_all_steps():
    report = reedy_counterexample()
    assert report["step1_in_both"]
    assert len(report["step2_interval"]) == 2
    assert len(report["step3_below"]) == 1
    assert report["step4_fiber_size"] >= 2
    assert len(report["step4_components"]) >= 2
    assert report["not_injective"]


def test_config_text_round_trip():
    p = worked_config()
    assert CubeConfig.from_text(3, p.to_text()) == p


def test_down_family_infimum_sampled_property():
    # the labelwise minimum of two decreasing decomposables sharing a
    # configuration stays in the decreasing family (sampled, not certified)
    rng = random.Random(2718)
    downs = list(family_members("mdown", 2, 3))
    done = 0
    while done < 40:
        cfg = sample_config(rng, 2, 3)
        holders = [mu for mu in downs if realizes(cfg, mu)]
        if len(holders) < 2:
            continue
        mu1, mu2 = rng.sample(holders, 2)
        mu0 = infimum_check(mu1, mu2, cfg)
        assert graphs.in_family(mu0, graphs.MDOWN)
        done += 1


@pytest.mark.parametrize("tag,n,k,configs,nu_samples", [
    pytest.param("ke", 2, 3, 12, None, id="2-3-12-None"),
    pytest.param("ke", 3, 3, 6, None, id="3-3-6-None"),
    pytest.param("ke", 2, 4, 6, 40, id="2-4-6-40"),
    # n = 1 and n = 4 put a wrong x * n + l grid stride on other slots
    pytest.param("ke", 1, 3, 12, None, id="1-3-12-None"),
    pytest.param("ke", 1, 4, 12, None, id="1-4-12-None"),
    pytest.param("ke", 4, 3, 4, 40, id="4-3-4-40"),
    # half of m(2,3) in a seeded shuffled order: a family that is neither
    # all of ke nor key-sorted, indexed in the sequence's own order
    pytest.param("m-shuffled", 2, 3, 12, None, id="m-shuffled-2-3-12-None"),
])
def test_brute_force_union_matches_definition(tag, n, k, configs, nu_samples):
    rng = random.Random(1000 * n + k)
    nu_pool = list(family_members("ke", n, k))
    if tag == "m-shuffled":
        members = list(family_members("m", n, k))
        objs = rng.sample(members, len(members) // 2)
        assert objs != sorted(objs, key=lambda o: o.key)
    else:
        objs = nu_pool
    for _ in range(configs):
        cfg = sample_config(rng, n, k)
        nus = nu_pool if nu_samples is None else rng.sample(nu_pool, nu_samples)
        for nu in nus:
            assert brute_force_realizes_below(cfg, nu, objs) == oracle_union_below(
                cfg, nu, objs
            )


def test_brute_force_union_memo_and_empty_family():
    rng = random.Random(5)
    objs = list(family_members("ke", 2, 3))
    cfg = sample_config(rng, 2, 3)
    for nu in objs:
        want = brute_force_realizes_below(cfg, nu, objs)
        assert brute_force_realizes_below(cfg, nu, list(objs)) == want
        assert brute_force_realizes_below(cfg, nu, []) is False


def test_brute_force_union_errors_and_degenerate_arities():
    rng = random.Random(6)
    cfg23, cfg33 = sample_config(rng, 2, 3), sample_config(rng, 3, 3)
    ke23, ke24 = family_members("ke", 2, 3), family_members("ke", 2, 4)
    nu23 = ke23[5]
    # a configuration/object shape mismatch is checked first, even before
    # the family is looked at
    for family in (ke23, ke24, []):
        with pytest.raises(ValueError, match="shapes differ"):
            brute_force_realizes_below(cfg33, nu23, family)
    # an object of another shape than a nonempty family
    for family in (ke24, family_members("ke", 3, 3)):
        with pytest.raises(DimensionError):
            brute_force_realizes_below(cfg23, nu23, family)
    assert brute_force_realizes_below(cfg23, nu23, []) is False
    # no edges: every member of a nonempty family lies below nu
    for k, cfg in ((0, CubeConfig(2, ())), (1, witness(graphs.point(2)))):
        family = family_members("ke", 2, k)
        assert brute_force_realizes_below(cfg, family[0], family) is True
        assert brute_force_realizes_below(cfg, family[0], []) is False


def _names_read(code) -> set[str]:
    """Every global and attribute name a code object reads, nested code too."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names_read(const)
    return names


def test_brute_force_shares_no_logic_with_the_closed_form():
    # the union test's brute force must stay an independent check of
    # realizes_below: it may not read the closed form or its grid helpers
    forbidden = {"less_table", "realizes_below_table", "realizes_below",
                 "realizes", "_separated"}
    for fn in (brute_force_realizes_below, cubes._edge_slots):
        assert not _names_read(fn.__code__) & forbidden, fn.__name__


def grid_configs():
    """Configurations with mixed endpoint denominators, including k = 0,
    k = 1 and one configuration that is not separated."""
    rng = random.Random(4141)
    s23, s33, s24 = (sample_config(rng, n, k) for n, k in ((2, 3), (3, 3), (2, 4)))
    unit = witness(graphs.point(2))
    halves = witness(from_box_expr("1[]2 2", 2))
    thirds = CubeConfig.from_text(2, "0/1:1/3;0/1:1/1|1/3:1/1;0/1:1/1")
    nested = compose_configs(thirds, [compose_configs(halves, [unit, halves]), unit])
    nu24 = family_members("ke", 2, 4)[1234]
    return [
        s23, s33, s24, nested,
        blend(s23, witness(family_members("ke", 2, 3)[17]), Fraction(1, 3)),
        stage_homotopy(2, s24, Fraction(5, 12), witness(nu24)),
        CubeConfig.from_text(2, "0/1:1/3;1/4:1/2|1/3:1/1;0/1:1/4|1/4:1/2;1/4:3/4"),
        worked_config(),  # the configuration of the colimit-fiber counterexample
        CubeConfig(2, ()),
        CubeConfig.from_text(3, "1/3:3/4;0/1:1/1;1/4:1/3"),
    ]


def test_grid_holds_each_endpoint_over_the_common_denominator():
    configs = grid_configs()
    assert {cfg.den for cfg in configs} == {1, 6, 12, 24, 36, 288}
    for cfg in configs:
        dens = [f.denominator for c in cfg.cubes for e in c.coords for f in (e.a, e.b)]
        assert cfg.den == math.lcm(*dens)
        assert len(cfg.lo) == len(cfg.hi) == cfg.k * cfg.n
        for x, cube in enumerate(cfg.cubes):
            for i, e in enumerate(cube.coords):
                assert Fraction(cfg.lo[x * cfg.n + i], cfg.den) == e.a
                assert Fraction(cfg.hi[x * cfg.n + i], cfg.den) == e.b


def test_grid_comparisons_equal_less_i():
    configs = grid_configs()
    assert not all(cfg.separated() for cfg in configs)
    for cfg in configs:
        n, k, cubes = cfg.n, cfg.k, cfg.cubes
        table = less_table(cfg)
        for x in range(k):
            for y in range(k):
                for i in range(1, n + 1):
                    want = x != y and less_i(cubes[x], cubes[y], i)
                    assert bool(table[x][y] >> (i - 1) & 1) == want, (x, y, i)
        assert cfg.separated() == all(
            any(less_i(c, d, i) or less_i(d, c, i) for i in range(1, n + 1))
            for c, d in combinations(cubes, 2)
        )
        for mu in family_members("g", n, k):
            assert realizes(cfg, mu) == oracle_realizes(cfg, mu)


def test_union_tests_on_grid_configs_match_fraction_oracle():
    rng = random.Random(8)
    for cfg in grid_configs():
        if not cfg.separated():
            continue
        objs = family_members("ke", cfg.n, cfg.k)
        nus = objs if len(objs) <= 210 else rng.sample(objs, 12)
        for nu in nus:
            want = oracle_union_below(cfg, nu, objs)
            assert realizes_below(cfg, nu) == want
            assert brute_force_realizes_below(cfg, nu, objs) == want


def test_grid_is_invisible_to_equality_hash_repr_and_text():
    a, b = worked_config(), worked_config()
    for name, value in (("den", 1), ("lo", ()), ("hi", ())):
        object.__setattr__(b, name, value)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) and a.to_text() == b.to_text()
    c = pickle.loads(pickle.dumps(a))
    assert c == a and (c.den, c.lo, c.hi) == (a.den, a.lo, a.hi)


def test_sample_config_draws_are_unchanged():
    # sha256 of the text forms as sample_config drew them when it still
    # built every try's Fractions before testing separation
    texts = []
    for n, k in ((2, 3), (3, 3), (2, 4), (3, 4)):
        rng = random.Random(1000 * n + k)
        texts += [sample_config(rng, n, k).to_text() for _ in range(200)]
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "f209596b17cd82fcef937ffb39ad43ab5c60a33a63c07a40f543ae4130e49f24"
