"""Tests of the benchmark itself.

Run with:  python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import harness
import tracer
from workloads import WORKLOADS, ContextFacts, UnionScans, _closure, one_arcs, quotas

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_rounds(name, seed, count=2):
    workload = WORKLOADS[name]()
    _, lib, state = harness.setup_once(workload)
    return list(islice(workload.rounds(lib, state, seed), count))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_gives_identical_inputs(name):
    a = [[r.describe for r in batch] for batch in first_rounds(name, 3)]
    b = [[r.describe for r in batch] for batch in first_rounds(name, 3)]
    c = [[r.describe for r in batch] for batch in first_rounds(name, 4)]
    assert a == b
    assert a != c


def stratum(name, req):
    if name == "collapse":
        return req.payload[1]
    if name == "sweeps":
        return req.kind, tuple(sorted(Counter(c >> 1 for c in req.payload.codes).items()))
    return req.kind


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_round_composition_does_not_depend_on_seed(name):
    def composition(seed):
        return [Counter(stratum(name, r) for r in batch)
                for batch in first_rounds(name, seed)]

    assert composition(5) == composition(6)


def test_no_context_repeats_in_collapse():
    arcs = [tuple(map(tuple, r.describe))
            for batch in first_rounds("collapse", 7, count=3) for r in batch]
    assert len(arcs) == len(set(arcs))


def test_quotas_are_largest_remainder():
    assert quotas({"a": 1, "b": 1, "c": 2}, 4) == {"a": 1, "b": 1, "c": 2}
    assert quotas({"a": 10, "b": 1}, 2) == {"a": 2}
    assert sum(quotas({i: i for i in range(1, 30)}, 17).values()) == 17


@pytest.mark.parametrize("k", [3, 4])
def test_independent_context_facts_match_the_library(k):
    lib = harness.load_library()
    facts = ContextFacts(k)
    for ctx in lib.partitions.all_contexts(k):
        closed = _closure(k, ctx.one_arcs)
        assert facts.count(closed) == len(ctx.partitions())
        assert facts.least_word(closed) == ctx.least().word()


def test_one_arcs_decodes_label_one_edges():
    lib = harness.load_library()
    for obj in lib.grothendieck.family_tuple("ke", 3, 3):
        assert sorted(one_arcs(obj)) == sorted(obj.arcs(label=1))


@pytest.mark.parametrize("n,k", [(3, 3), (2, 4)])
def test_union_scans_count_what_brute_force_scans(n, k, monkeypatch):
    import random
    lib = harness.load_library()
    family = sorted(lib.grothendieck.family_tuple("ke", n, k), key=lambda o: o.key)
    scans = UnionScans(family, n)
    calls = []
    is_morphism = lib.cubes.is_morphism
    monkeypatch.setattr(lib.cubes, "is_morphism",
                        lambda mu, nu: calls.append(1) or is_morphism(mu, nu))
    rng = random.Random(0)
    for _ in range(5):
        cfg = lib.cubes.sample_config(rng, n, k)
        nus = [family[rng.randrange(len(family))] for _ in range(20)]
        calls.clear()
        for nu in nus:
            lib.cubes.brute_force_realizes_below(cfg, nu, family)
        assert scans.scanned(cfg, nus) == len(calls)


def run_bench(*args):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_named_metric(name, trace):
    out = run_bench("--workload", name, "--seed", "1", "--seconds", "0.5",
                    "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["homology.reduced_homology.calls"] == 0
        busy = {"collapse": "partitions.steps", "sweeps": "posets.dismantle.calls",
                "cubes": "graphs.is_morphism.calls"}[name]
        assert values[busy] > 0
        assert values["trace.attributed_share"] > 0.9
    else:
        assert "fail_ratio" in out.stdout
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "matches the pin" in out.stdout


def test_spec_lists_every_traced_metric():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _, _ in tracer.METRICS]
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cubes",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
