"""Sweep drivers behind the CLI verbs and the acceptance suite.

Each driver returns ReportRecords; FAIL records always carry replayable
evidence.  Worker pools only parallelize over instances, and results are
re-sorted by instance key, so the job count never changes any output.
"""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from . import graphs
from .contractibility import CONTRACTIBLE, HOMOLOGY_ONLY
from .contractibility import check_homotopy_final, check_homotopy_initial
from .cubes import (
    brute_force_realizes_below,
    factorization_checks,
    infimum_check,
    realization_certificate,
    realizes,
    realizes_below,
    reedy_counterexample,
    sample_config,
    stage_homotopy,
    verify_cycle_certificate,
    witness,
)
from .errors import BitBudgetError, FalsificationError
from .graphs import (
    Family,
    dual,
    edge_step_ok,
    gamma,
    in_family,
    is_morphism,
    restrict,
    sigma_action,
)
from .grothendieck import (
    family_tuple,
    verify_grothendieck_prop,
    verify_two_label_reduction,
)
from .partitions import ArcContext, matching_check
from .reports import FAIL, INCONCLUSIVE, PASS, REFUSED, ReportRecord
from . import cache as cache_mod
from .textform import to_raw

TRACE_VERSION = "boxops-trace-v1"


def _timed(check: str, params: dict, fn) -> ReportRecord:
    t0 = time.perf_counter()
    try:
        verdict, evidence = fn()
    except FalsificationError as exc:
        verdict, evidence = FAIL, {"falsified": str(exc), **exc.state}
    wall = time.perf_counter() - t0
    return ReportRecord(check=check, params=params, verdict=verdict,
                        evidence=evidence, wall=wall)


def trace_to_json(ctx: ArcContext, result) -> str:
    """The trace as json.dumps(doc, sort_keys=True) of its dict form.

    Each step is rendered straight to text from its masks, with every
    vertex name quoted once per trace, so a trace of millions of steps never
    holds a dict per step.
    """
    trace = result.trace
    quoted = [json.dumps("".join(map(str, a))) for a in trace.vertices]
    # a closing quote sorts below every digit, so quoted words sort as the
    # words do, unless a letter has two digits
    in_order = quoted == sorted(quoted)

    head = json.dumps(
        {
            "format": TRACE_VERSION,
            "k": ctx.k,
            "context": ctx.context_key(),
            "partitions": result.partition_count,
            "simplex_count": result.simplex_count,
            "least": result.terminal.word(),
            "steps": [],
        },
        sort_keys=True,
    )
    # "steps" is the last key in sorted order: the steps go between its
    # brackets
    pieces = [head[: -len("]}")]]
    sep = ""
    for i, (face, simplex) in enumerate(trace.steps):
        # one pass over the step's bits gives both name lists and the first
        # vertex of simplex outside face
        face_names, simplex_names, extra = [], [], None
        rest = face | simplex
        while rest:
            b = rest & -rest
            name = quoted[b.bit_length() - 1]
            if face & b:
                face_names.append(name)
            if simplex & b:
                simplex_names.append(name)
                if extra is None and not face & b:
                    extra = name
            rest ^= b
        if not in_order:
            face_names.sort()
            simplex_names.sort()
        least = extra if simplex.bit_count() - face.bit_count() == 1 else "null"
        pieces.append(
            f'{sep}{{"least": {least}, "removed_face": [{", ".join(face_names)}], '
            f'"simplex": [{", ".join(simplex_names)}], "step": {i}}}'
        )
        sep = ", "
    pieces.append("]}\n")
    return "".join(pieces)


def _match_context(payload) -> ReportRecord:
    """The collapse record of one context, without its object."""
    k, arcs = payload
    return _timed("collapse", {}, lambda: (PASS, {
        "context": [list(p) for p in arcs],
        **matching_check(ArcContext.from_arcs(k, arcs)),
    }))


def run_collapse(n: int = 2, k: int = 3, jobs: int = 1) -> list[ReportRecord]:
    """Certify the partition-complex collapse for every object at (n, k) by
    partitions.matching_check.

    Objects sharing a constraint closure share one check; each object gets
    its own record, carrying the check's evidence and its time.
    """
    try:
        objs = family_tuple("ke", n, k)
    except BitBudgetError as exc:
        return [ReportRecord("collapse", {"n": n, "k": k}, REFUSED,
                             {"reason": str(exc)})]
    by_context: dict[tuple, list] = {}
    for obj in objs:
        ctx = ArcContext.from_graph_object(obj)
        by_context.setdefault(ctx.context_key(), []).append(obj)

    contexts = sorted(by_context)
    checked = _pmap(_match_context, [(k, arcs) for arcs in contexts], jobs)
    return [
        replace(rec, params={"n": n, "k": k, "object": to_raw(obj)})
        for arcs, rec in zip(contexts, checked)
        for obj in by_context[arcs]
    ]


def _pmap(fn, items, jobs, initializer=None, initargs=()):
    """[fn(item) for item in items], over `jobs` processes if jobs and the item
    count both exceed one; initializer(*initargs) runs first wherever fn runs."""
    if jobs <= 1 or len(items) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(item) for item in items]
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=initializer, initargs=initargs
    ) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs))))


_SWEEP_STATE: dict = {}


def _init_sweep(n, k, sub_tag, direction):
    # the cached tuple itself, so that its family index is built once
    _SWEEP_STATE["sub"] = family_tuple(sub_tag, n, k)
    _SWEEP_STATE["direction"] = direction


def _certify_one(omega_key_nk):
    omega_key, n, k = omega_key_nk
    obj = graphs.from_key(n, k, omega_key)
    if _SWEEP_STATE["direction"] == "over":
        check = check_homotopy_initial
    else:
        check = check_homotopy_final
    verdict = check([obj], _SWEEP_STATE["sub"])[omega_key]
    return omega_key, verdict.status, verdict.method, verdict.detail


def _sample(objs, sample, seed):
    """`sample` of objs drawn with `seed`, in key order; all of objs when
    sample is None or not below their number."""
    if sample is None or sample >= len(objs):
        return objs
    if seed is None:
        raise ValueError("sampled sweeps require a seed")
    return sorted(random.Random(seed).sample(objs, sample), key=lambda o: o.key)


def _poset_sweep(check, direction, n, k, sub_tag, sample, seed, jobs, ambient="ke"):
    base = {"n": n, "k": k, "sub": sub_tag, "ambient": ambient}
    try:
        objs = _sample(family_tuple(ambient, n, k), sample, seed)
    except BitBudgetError as exc:
        return [ReportRecord(check, base, REFUSED, {"reason": str(exc)})]
    payloads = [(o.key, n, k) for o in objs]
    results = _pmap(_certify_one, payloads, jobs,
                    initializer=_init_sweep, initargs=(n, k, sub_tag, direction))
    records = []
    for omega_key, status, method, detail in results:
        params = {**base, "object_key": omega_key}
        if status == CONTRACTIBLE:
            records.append(
                ReportRecord(check, params, PASS,
                             {"method": method, **detail})
            )
        elif status == HOMOLOGY_ONLY:
            records.append(ReportRecord(check, params, INCONCLUSIVE, dict(detail)))
        else:
            records.append(ReportRecord(check, params, FAIL,
                                        {"status": status, **detail}))
    return records


def run_initiality(n, k, sub="mdown", sample=None, seed=None, jobs=1, ambient="ke"):
    """Over-posets of the sub-family inside the ambient family."""
    return _poset_sweep("initiality", "over", n, k, sub, sample, seed, jobs, ambient)


def run_finality(n, k, sub="mup", sample=None, seed=None, jobs=1, ambient="ke"):
    """Under-posets of the sub-family inside the ambient family."""
    return _poset_sweep("finality", "under", n, k, sub, sample, seed, jobs, ambient)


def run_grothendieck(n, k, sample=None, seed=None) -> list[ReportRecord]:
    """The assembly isomorphism plus the two-label reduction.

    Refused below two labels, where the block fibers do not exist.
    """
    if n < 2:
        return [ReportRecord("grothendieck", {"n": n, "k": k}, REFUSED,
                             {"reason": "the reduction needs at least two labels"})]
    try:
        objs = family_tuple("ke", n, k)
    except BitBudgetError as exc:
        return [ReportRecord("grothendieck", {"n": n, "k": k}, REFUSED,
                             {"reason": str(exc)})]
    records = []
    for obj in _sample(objs, sample, seed):
        params = {"n": n, "k": k, "variant": "iso", "object_key": obj.key}
        records.append(
            _timed("grothendieck", params,
                   lambda om=obj: (PASS, verify_grothendieck_prop(n, om)))
        )
    seen = set()
    for obj in objs:
        key = ArcContext.from_graph_object(obj).context_key()
        if key in seen:
            continue
        seen.add(key)
        params = {"n": n, "k": k, "variant": "reduction",
                  "context": [list(p) for p in key]}
        records.append(
            _timed("grothendieck", params,
                   lambda om=obj: (PASS, verify_two_label_reduction(om)))
        )
    return records


def run_duality(n, k, seed=None) -> list[ReportRecord]:
    """Involution, membership exchange, and order reversal for the dual; the
    reversal checks all pairs up to 4,000,000 and 20,000 seeded ones beyond."""
    records = []

    def edge_table():
        for a in range(2 * n):
            for b in range(2 * n):
                da = (n - 1 - (a >> 1)) * 2 | (a & 1)
                db = (n - 1 - (b >> 1)) * 2 | (b & 1)
                if edge_step_ok(a, b) != edge_step_ok(db, da):
                    raise FalsificationError(
                        "edge relation is not reversed", {"a": a, "b": b}
                    )
        return PASS, {"states": (2 * n) ** 2}

    records.append(_timed("duality", {"n": n, "variant": "edge-table"}, edge_table))

    def membership():
        pairs = (("mup", "mdown"), ("mdown", "mup"), ("m", "m"),
                 ("k", "k"), ("ke", "ke"))
        try:
            objs = family_tuple("g", n, k)
        except BitBudgetError as exc:
            return REFUSED, {"reason": str(exc)}
        count = 0
        for obj in objs:
            d = dual(obj)
            if dual(d) != obj:
                raise FalsificationError("dual is not involutive", {"key": obj.key})
            for tag, dtag in pairs:
                if in_family(obj, Family(tag)) != in_family(d, Family(dtag)):
                    raise FalsificationError(
                        "membership exchange failed",
                        {"key": obj.key, "tag": tag},
                    )
            count += 1
        return PASS, {"objects": count}

    records.append(
        _timed("duality", {"n": n, "k": k, "variant": "membership"}, membership)
    )

    def reversal():
        try:
            objs = family_tuple("g", n, k)
        except BitBudgetError as exc:
            return REFUSED, {"reason": str(exc)}
        checked = 0
        if len(objs) ** 2 <= 4_000_000:
            for a in objs:
                for b in objs:
                    if is_morphism(a, b) != is_morphism(dual(b), dual(a)):
                        raise FalsificationError(
                            "order reversal failed", {"a": a.key, "b": b.key}
                        )
                    checked += 1
            return PASS, {"pairs": checked, "mode": "exhaustive"}
        if seed is None:
            return REFUSED, {"reason": "sampling the order reversal requires a seed"}
        rng = random.Random(seed)
        for _ in range(20000):
            a = objs[rng.randrange(len(objs))]
            b = objs[rng.randrange(len(objs))]
            if is_morphism(a, b) != is_morphism(dual(b), dual(a)):
                raise FalsificationError(
                    "order reversal failed", {"a": a.key, "b": b.key}
                )
            checked += 1
        return PASS, {"pairs": checked, "mode": "sampled"}

    records.append(
        _timed("duality", {"n": n, "k": k, "variant": "order-reversal"}, reversal)
    )
    return records


def run_axioms(seed, samples=100) -> list[ReportRecord]:
    """Operad laws for the structure map on seeded instances."""
    rng = random.Random(seed)

    def pick(n, k):
        pool = family_tuple("ke", n, k)
        return pool[rng.randrange(len(pool))]

    def unit_law():
        for _ in range(samples):
            n = rng.choice([2, 3])
            nu = pick(n, rng.randint(1, 4))
            if gamma(graphs.point(n), [nu]) != nu:
                raise FalsificationError("left unit failed", {"key": nu.key})
            mu = pick(n, rng.randint(1, 4))
            if gamma(mu, [graphs.point(n)] * mu.k) != mu:
                raise FalsificationError("right unit failed", {"key": mu.key})
        return PASS, {"samples": samples}

    def associativity():
        for _ in range(samples):
            n = rng.choice([2, 3])
            karity = rng.randint(1, 3)
            mu = pick(n, karity)
            inner_sizes = [rng.randint(1, 2) for _ in range(karity)]
            nus = [pick(n, s) for s in inner_sizes]
            leaf_sizes = [rng.randint(1, 2) for _ in range(sum(inner_sizes))]
            lams = [pick(n, s) for s in leaf_sizes]
            lhs = gamma(gamma(mu, nus), lams)
            chunks = []
            at = 0
            for nu in nus:
                chunks.append(lams[at:at + nu.k])
                at += nu.k
            rhs = gamma(mu, [gamma(nu, chunk) for nu, chunk in zip(nus, chunks)])
            if lhs != rhs:
                raise FalsificationError("associativity failed", {"mu": mu.key})
        return PASS, {"samples": samples}

    def equivariance():
        for _ in range(samples):
            n = rng.choice([2, 3])
            karity = rng.randint(1, 3)
            mu = pick(n, karity)
            sizes = [rng.randint(1, 2) for _ in range(karity)]
            nus = [pick(n, s) for s in sizes]
            sigma = list(range(karity))
            rng.shuffle(sigma)
            lhs = gamma(sigma_action(mu, sigma), [nus[sigma[i]] for i in range(karity)])
            starts = [0] * karity
            at = 0
            for i in range(karity):
                starts[i] = at
                at += nus[i].k
            tau = []
            for i in range(karity):
                blk = sigma[i]
                tau.extend(range(starts[blk], starts[blk] + nus[blk].k))
            rhs = restrict(gamma(mu, nus), tau)
            if lhs != rhs:
                raise FalsificationError(
                    "equivariance failed", {"mu": mu.key, "sigma": sigma}
                )
        return PASS, {"samples": samples}

    def closure():
        fams = ("ke", "k", "m")
        count = 0
        for _ in range(samples):
            n = rng.choice([2, 3])
            karity = rng.randint(1, 3)
            sizes = [rng.randint(1, 2) for _ in range(karity)]
            for tag in fams:
                pool = family_tuple(tag, n, karity)
                mu = pool[rng.randrange(len(pool))]
                nus = []
                for s in sizes:
                    p2 = family_tuple(tag, n, s)
                    nus.append(p2[rng.randrange(len(p2))])
                if not in_family(gamma(mu, nus), Family(tag)):
                    raise FalsificationError(
                        "composition left the family", {"tag": tag, "mu": mu.key}
                    )
                count += 1
        return PASS, {"samples": count}

    return [
        _timed("axioms", {"seed": seed, "law": "unit"}, unit_law),
        _timed("axioms", {"seed": seed, "law": "associativity"}, associativity),
        _timed("axioms", {"seed": seed, "law": "equivariance"}, equivariance),
        _timed("axioms", {"seed": seed, "law": "family-closure"}, closure),
    ]


def run_cubes(seed) -> list[ReportRecord]:
    """The realization-space sweeps behind the cube acceptance criterion:
    nonemptiness, the union test on 1000 configurations per scale (all nu,
    or 100 sampled at (2,4)), 200 homotopy samples per scale, 500 infima."""
    records = []

    def nonempty(n, k, sample=None):
        def body():
            wit = cyc = 0
            for mu in _sample(family_tuple("g", n, k), sample, seed + 1):
                kind, payload = realization_certificate(mu)
                if kind == "witness":
                    if not in_family(mu, Family("ke")):
                        raise FalsificationError(
                            "witness produced outside the family", {"key": mu.key}
                        )
                    wit += 1
                else:
                    if in_family(mu, Family("ke")):
                        raise FalsificationError(
                            "cycle certificate for a realizable object",
                            {"key": mu.key},
                        )
                    if not verify_cycle_certificate(mu, payload):
                        raise FalsificationError(
                            "cycle certificate does not verify", {"key": mu.key}
                        )
                    cyc += 1
            return PASS, {"witnesses": wit, "cycles": cyc}

        return _timed(
            "cubes",
            {"variant": "nonempty", "n": n, "k": k,
             **({"sample": sample} if sample else {})},
            body,
        )

    for n, k in ((2, 3), (2, 4)):
        records.append(nonempty(n, k))
    records.append(nonempty(3, 4, 3000))

    def union_equivalence(n, k, exhaustive_nu):
        def body():
            from .cubes import realizes_below_table, less_table

            rng = random.Random(seed + 10 * n + k)
            objs = list(family_tuple("ke", n, k))
            configs = 1000
            checked = 0
            for _ in range(configs):
                cfg = sample_config(rng, n, k)
                table = less_table(cfg)
                if exhaustive_nu:
                    nus = objs
                else:
                    nus = [objs[rng.randrange(len(objs))] for _ in range(100)]
                for nu in nus:
                    got = realizes_below_table(table, nu)
                    want = brute_force_realizes_below(cfg, nu, objs)
                    if got != want:
                        raise FalsificationError(
                            "closed form disagrees with the union",
                            {"nu": nu.key, "config": cfg.to_text()},
                        )
                    checked += 1
            return PASS, {"configs": configs, "pairs": checked}

        return _timed(
            "cubes",
            {"variant": "union", "n": n, "k": k,
             "nu_mode": "exhaustive" if exhaustive_nu else "sampled"},
            body,
        )

    for n, k in ((2, 3), (3, 3)):
        records.append(union_equivalence(n, k, True))
    records.append(union_equivalence(2, 4, False))

    def homotopy(n, k):
        def body():
            rng = random.Random(seed + 100 * n + k)
            objs = list(family_tuple("ke", n, k))
            done = 0
            while done < 200:
                nu = objs[rng.randrange(len(objs))]
                anchor = witness(nu)
                cfg = sample_config(rng, n, k)
                if not realizes_below(cfg, nu, check_separated=False):
                    continue
                if stage_homotopy(n, cfg, 0, anchor) != cfg:
                    raise FalsificationError("identity endpoint failed", {})
                if stage_homotopy(1, cfg, 1, anchor) != anchor:
                    raise FalsificationError("anchor endpoint failed", {})
                for j in range(2, n + 1):
                    if stage_homotopy(j, cfg, 1, anchor) != stage_homotopy(j - 1, cfg, 0, anchor):
                        raise FalsificationError("stage chaining failed", {"j": j})
                j = rng.randint(1, n)
                from fractions import Fraction

                t = Fraction(rng.randint(0, 12), 12)
                moved = stage_homotopy(j, cfg, t, anchor, nu=nu)
                if not realizes_below(moved, nu, check_separated=False):
                    raise FalsificationError(
                        "membership lost along the homotopy",
                        {"nu": nu.key, "j": j, "t": str(t)},
                    )
                done += 1
            return PASS, {"samples": done}

        return _timed("cubes", {"variant": "homotopy", "n": n, "k": k}, body)

    for n, k in ((2, 3), (3, 3), (2, 4)):
        records.append(homotopy(n, k))

    def infimum():
        rng = random.Random(seed + 777)
        done = 0
        while done < 500:
            n = rng.choice([2, 3])
            k = rng.randint(2, 3)
            cfg = sample_config(rng, n, k)
            objs = family_tuple("ke", n, k)
            holders = [mu for mu in objs if realizes(cfg, mu)]
            if len(holders) < 2:
                continue
            mu1 = holders[rng.randrange(len(holders))]
            mu2 = holders[rng.randrange(len(holders))]
            infimum_check(mu1, mu2, cfg)
            done += 1
        return PASS, {"samples": done}

    records.append(_timed("cubes", {"variant": "infimum"}, infimum))
    records.append(
        _timed(
            "cubes",
            {"variant": "factorization", "seed": seed},
            lambda: (PASS, factorization_checks(seed)),
        )
    )
    return records


def run_reedy() -> list[ReportRecord]:
    return [
        _timed("reedy", {}, lambda: (PASS, reedy_counterexample()))
    ]


def run_enumerate(specs, cache_dir, max_bits=graphs.DEFAULT_MAX_BITS):
    """Write sorted key caches; byte-identical on rerun."""
    records = []
    for tag, lo, n, k in specs:
        fam = Family(tag, lo)
        params = {"tag": tag, "lo": lo, "n": n, "k": k}

        def body(fam=fam, n=n, k=k):
            try:
                keys = [o.key for o in graphs.enumerate_family(fam, n, k, max_bits)]
            except BitBudgetError as exc:
                return REFUSED, {"reason": str(exc)}
            path = cache_mod.write_cache(cache_dir, fam, n, k, keys)
            return PASS, {"count": len(keys), "path": str(path)}

        records.append(_timed("enumerate", params, body))
    return records
