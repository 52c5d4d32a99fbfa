"""Golden traces: the driver's collapse sequences at k <= 3 are frozen, and
the concatenated traces of every k = 4 context are pinned by one digest."""

import hashlib
import json
from pathlib import Path

from dataclasses import replace

from boxops.checks import trace_to_json
from boxops.complexes import replay_trace
from boxops.partitions import ArcContext, all_contexts, collapse_driver

from conftest import seeded_contexts

GOLDEN_DIR = Path(__file__).parent / "golden" / "traces"
K4_TRACES_SHA256 = "1e48169b0fcb0c7bd71d977974318c87552f0c8e1e761bb5fe5eba785cb1463a"


def _name(ctx):
    arcs = tuple(sorted(ctx.one_arcs))
    return "-".join(f"{a}{b}" for a, b in arcs) or "free"


def test_driver_output_matches_golden_bytes():
    seen = 0
    for k in (2, 3):
        for ctx in all_contexts(k):
            path = GOLDEN_DIR / f"collapse-k{k}-{_name(ctx)}.json"
            assert path.exists(), f"missing golden trace {path.name}"
            got = trace_to_json(ctx, collapse_driver(ctx))
            assert got == path.read_text(), f"trace drifted for {path.name}"
            seen += 1
    assert seen == 22


def test_golden_traces_replay_from_scratch():
    for path in sorted(GOLDEN_DIR.glob("collapse-k*.json")):
        doc = json.loads(path.read_text())
        assert doc["format"] == "boxops-trace-v1"
        ctx = ArcContext.from_arcs(
            doc["k"], [tuple(arc) for arc in doc["context"]]
        )
        res = collapse_driver(ctx)
        assert res.terminal.word() == doc["least"]
        assert res.simplex_count == doc["simplex_count"]
        replay_trace(ctx.flag_complex(), res.trace)


def test_k4_traces_match_pinned_digest():
    contexts = all_contexts(4)
    assert len(contexts) == 219
    digest = hashlib.sha256()
    for ctx in contexts:
        digest.update(trace_to_json(ctx, collapse_driver(ctx)).encode())
    assert digest.hexdigest() == K4_TRACES_SHA256


def _dict_form_json(ctx, result):
    """The trace document built as a dict and dumped, from the step keys."""
    trace = result.trace
    steps = []
    for i, (face, simplex) in enumerate(trace.steps):
        face, simplex = trace.keys(face), trace.keys(simplex)
        steps.append({
            "step": i,
            "simplex": sorted("".join(map(str, a)) for a in simplex),
            "least": "".join(map(str, next(a for a in simplex if a not in face)))
            if len(simplex) - len(face) == 1
            else None,
            "removed_face": sorted("".join(map(str, a)) for a in face),
        })
    doc = {
        "format": "boxops-trace-v1",
        "k": ctx.k,
        "context": sorted(ctx.closure()),
        "partitions": result.partition_count,
        "simplex_count": result.simplex_count,
        "least": result.terminal.word(),
        "steps": steps,
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def test_trace_json_equals_the_dumped_dict_form():
    contexts = [ctx for k in range(5) for ctx in all_contexts(k)]
    for ctx in contexts + seeded_contexts(5, 20, 15, max_partitions=63):
        res = collapse_driver(ctx)
        assert trace_to_json(ctx, res) == _dict_form_json(ctx, res)
    # a pair that is not codimension one has a null least vertex, and words
    # with a two-digit letter sort as strings, not in vertex order
    ctx = ArcContext.from_arcs(3, ())
    res = collapse_driver(ctx)
    odd = replace(res, trace=replace(
        res.trace,
        vertices=((1, 2), (1, 10), (2, 1)),
        steps=((0b001, 0b111), (0b010, 0b011)),
    ))
    text = trace_to_json(ctx, odd)
    assert '"least": null' in text and '["110", "12"]' in text
    assert text == _dict_form_json(ctx, odd)
