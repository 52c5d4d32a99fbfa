import json

import pytest

from boxops import checks, cli, partitions
from boxops.cache import FORMAT_VERSION, CacheVersionError, read_cache, write_cache
from boxops.graphs import KE, Family
from boxops.reports import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    REFUSED,
    ReportRecord,
    exit_code,
    read_records,
    summarize,
    write_records,
)

from oracles import filter_route


def strip_wall(records):
    return [(r.check, json.dumps(r.params, sort_keys=True), r.verdict,
             json.dumps(r.evidence, sort_keys=True)) for r in records]


# ---------------------------------------------------------------------------
# caches


def test_cache_round_trip_and_idempotence(tmp_path):
    keys = [3, 5, 9]
    p1 = write_cache(tmp_path, KE, 2, 2, keys)
    first = p1.read_bytes()
    p2 = write_cache(tmp_path, KE, 2, 2, keys)
    assert p1 == p2 and p2.read_bytes() == first
    meta, back = read_cache(p1)
    assert back == keys
    assert meta["tag"] == "ke" and meta["count"] == 3


def test_cache_version_guard(tmp_path):
    path = tmp_path / "bogus.keys"
    path.write_text("other-version\ntag=ke lo=1 n=2 k=2 count=0\n")
    with pytest.raises(CacheVersionError):
        read_cache(path)


@pytest.mark.parametrize(
    "meta",
    [None, "tag=ke lo=1 n=2 k=2", "tag=ke lo=1 n=2 k=2 count=x"],
    ids=["header-only", "no-count", "count-not-int"],
)
def test_malformed_cache_is_refused(tmp_path, meta):
    path = tmp_path / "ke-n2-k2.keys"
    path.write_text("\n".join([FORMAT_VERSION] + ([meta] if meta else [])) + "\n")
    with pytest.raises(CacheVersionError):
        read_cache(path)


def test_run_enumerate_counts_and_guard(tmp_path):
    records = checks.run_enumerate(
        [("g", 1, 2, 3), ("ke", 1, 2, 3)], tmp_path
    )
    assert [r.verdict for r in records] == [PASS, PASS]
    assert records[0].evidence["count"] == 64
    assert records[1].evidence["count"] == 60
    guarded = checks.run_enumerate([("g", 1, 3, 9)], tmp_path, max_bits=64)
    assert guarded[0].verdict == "REFUSED"


def test_enumerate_rerun_is_byte_identical(tmp_path):
    checks.run_enumerate([("mdown", 1, 2, 3)], tmp_path)
    path = tmp_path / "mdown-n2-k3.keys"
    before = path.read_bytes()
    checks.run_enumerate([("mdown", 1, 2, 3)], tmp_path)
    assert path.read_bytes() == before


def test_n1_cache_files_coincide(tmp_path):
    checks.run_enumerate(
        [(tag, 1, 1, 4) for tag in ("k", "ke", "m")], tmp_path
    )
    bodies = {
        tag: (tmp_path / f"{tag}-n1-k4.keys").read_text().splitlines()[2:]
        for tag in ("k", "ke", "m")
    }
    assert bodies["k"] == bodies["ke"] == bodies["m"]


@pytest.mark.parametrize("lo", [1, 2])
def test_table_family_caches_equal_filter_route(tmp_path, lo):
    out = tmp_path / "records.jsonl"
    code = cli.main(
        ["enumerate", "--tag", "m", "--tag", "mup", "--tag", "mdown",
         "--n", "2,3", "--k", "3,4", "--lo", str(lo),
         "--cache-dir", str(tmp_path / "cli"), "--out", str(out)]
    )
    assert code == 0
    for tag in ("m", "mup", "mdown"):
        for n in (2, 3):
            for k in (3, 4):
                want = write_cache(tmp_path / "oracle", Family(tag, lo), n, k,
                                   filter_route(tag, n, k, lo))
                got = tmp_path / "cli" / want.name
                assert got.read_bytes() == want.read_bytes(), want.name


# ---------------------------------------------------------------------------
# sweep drivers


def test_run_collapse_small():
    records = checks.run_collapse(n=2, k=3)
    assert len(records) == 60
    assert all(r.verdict == PASS for r in records)
    assert all(r.evidence["method"] == "matching" for r in records)
    free = next(r for r in records if r.evidence["context"] == [])
    assert free.evidence == {"method": "matching", "context": [], "partitions": 13,
                             "simplices": [13, 30, 24, 6], "least": "111"}
    # each record carries its context's check time
    assert all(r.wall > 0 for r in records)


def test_run_collapse_jobs_do_not_change_output():
    serial = checks.run_collapse(n=2, k=3)
    parallel = checks.run_collapse(n=2, k=3, jobs=2)
    assert strip_wall(serial) == strip_wall(parallel)


def test_run_collapse_records_a_failed_matching(monkeypatch):
    monkeypatch.setattr(partitions, "_least", lambda strict, up, down: 0)
    records = checks.run_collapse(n=2, k=2)
    assert [r.verdict for r in records] == [FAIL] * 4
    assert records[0].evidence == {"falsified": "L(simplex) has no least element",
                                   "simplex": ["11"], "L": ["11"]}


def test_run_initiality_small():
    records = checks.run_initiality(2, 3)
    assert len(records) == 60
    assert all(r.verdict == PASS for r in records)


def test_run_finality_small():
    records = checks.run_finality(2, 3)
    assert all(r.verdict == PASS for r in records)


def test_sampled_sweep_requires_seed():
    with pytest.raises(ValueError):
        checks.run_initiality(2, 3, sample=5)


def _no_work(*args, **kwargs):
    raise AssertionError("a sweep ran past a usage error")


@pytest.mark.parametrize("argv", [
    ["check", "initiality", "--sample", "5"],
    ["check", "finality", "--sample", "5"],
    ["check", "grothendieck", "--n", "3", "--k", "3", "--sample", "5"],
    ["check", "axioms"],
    ["check", "cubes"],
])
def test_missing_seed_is_a_usage_error(argv, monkeypatch, capsys):
    # refused before any sweep runs, with argparse's usage exit code
    for name in ("run_initiality", "run_finality", "run_grothendieck",
                 "run_axioms", "run_cubes"):
        monkeypatch.setattr(checks, name, _no_work)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "requires --seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["check", "initiality", "--sub", "foo"], "--sub"),
    (["check", "finality", "--ambient", "bar"], "--ambient"),
    (["enumerate", "--tag", "baz", "--n", "2", "--k", "3"], "--tag"),
    (["enumerate", "--lo", "0", "--n", "2", "--k", "3"], "--lo"),
    (["enumerate", "--n", "2,0", "--k", "3"], "--n"),
    (["enumerate", "--n", "2", "--k", "-1"], "--k"),
    (["check", "initiality", "--n", "0"], "--n"),
    (["check", "collapse", "--n", "0"], "--n"),
    (["check", "collapse", "--k", "-1"], "--k"),
    (["check", "initiality", "--sample", "0", "--seed", "1"], "--sample"),
])
def test_bad_option_value_is_a_usage_error(argv, option, monkeypatch, capsys):
    # refused before any sweep runs, with argparse's usage exit code and
    # not the FAIL code 1 or an all-PASS over no records
    for name in ("run_enumerate", "run_initiality", "run_finality",
                 "run_collapse"):
        monkeypatch.setattr(checks, name, _no_work)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


def test_unseeded_sampled_duality_is_refused(tmp_path):
    out = tmp_path / "dual.jsonl"
    code = cli.main(["check", "duality", "--n", "2", "--k", "4", "--out", str(out)])
    assert code == 2
    reversal = [r for r in read_records(out) if r.params["variant"] == "order-reversal"]
    assert [r.verdict for r in reversal] == [REFUSED]
    assert "requires a seed" in reversal[0].evidence["reason"]


def test_run_duality_small():
    records = checks.run_duality(2, 3)
    assert all(r.verdict == PASS for r in records)


def test_run_axioms():
    records = checks.run_axioms(seed=1, samples=25)
    assert [r.verdict for r in records] == [PASS] * 4


def test_run_reedy():
    (record,) = checks.run_reedy()
    assert record.verdict == PASS
    assert record.evidence["not_injective"]


def test_run_collapse_refuses_over_bit_budget():
    # 36 pairs at three bits each exceed the 96-bit default budget
    records = checks.run_collapse(n=3, k=9)
    assert [(r.verdict, r.evidence) for r in records] == [
        (REFUSED, {"reason": "enumeration needs 108 key bits, budget is 96"})
    ]


@pytest.mark.parametrize("kind", ["initiality", "finality", "grothendieck", "duality"])
def test_sweeps_refuse_over_bit_budget(kind, tmp_path):
    # 36 pairs at three bits each exceed the 96-bit default budget
    out = tmp_path / f"{kind}.jsonl"
    code = cli.main(["check", kind, "--n", "3", "--k", "9", "--out", str(out)])
    assert code == 2
    refused = {"reason": "enumeration needs 108 key bits, budget is 96"}
    records = read_records(out)
    if kind == "duality":
        assert [(r.params["variant"], r.verdict) for r in records] == [
            ("edge-table", PASS), ("membership", REFUSED), ("order-reversal", REFUSED)]
        records = records[1:]
    else:
        assert len(records) == 1
    assert all((r.verdict, r.evidence) == (REFUSED, refused) for r in records)


def test_run_grothendieck_k2():
    records = checks.run_grothendieck(3, 2)
    assert all(r.verdict == PASS for r in records)
    variants = {r.params["variant"] for r in records}
    assert variants == {"iso", "reduction"}


def test_run_grothendieck_refuses_one_label(tmp_path):
    reason = "the reduction needs at least two labels"
    assert [(r.verdict, r.evidence) for r in checks.run_grothendieck(1, 2)] == [
        (REFUSED, {"reason": reason})
    ]
    out = tmp_path / "groth.jsonl"
    code = cli.main(["check", "grothendieck", "--n", "1", "--k", "2",
                     "--out", str(out)])
    assert code == 2
    assert [r.evidence["reason"] for r in read_records(out)] == [reason]


@pytest.mark.parametrize("n, k, count", [(1, 2, 2), (1, 3, 6), (2, 0, 1),
                                          (2, 1, 1), (3, 0, 1), (3, 1, 1)])
def test_degenerate_shapes_through_each_sweep(n, k, count):
    # one label or at most one element: every member poset is one point
    for run in (checks.run_initiality, checks.run_finality):
        records = run(n, k)
        assert [(r.verdict, r.evidence) for r in records] == [
            (PASS, {"method": "cone", "size": 1})
        ] * count
    records = checks.run_grothendieck(n, k)
    if n == 1:
        assert [r.verdict for r in records] == [REFUSED]
        return
    assert [(r.params["variant"], r.verdict) for r in records] == [
        ("iso", PASS), ("reduction", PASS)
    ]
    assert records[0].evidence == {"object_key": 0, "partitions": 1, "total": 1,
                                   "over": 1, "fiber_sizes": [1],
                                   "isomorphic": True}
    assert records[1].evidence == {"object_key": 0, "partitions": 1, "over": 1,
                                   "isomorphic": True}


def test_empty_member_poset_is_a_fail_record():
    # keys 4 and 17 at (2, 3) are oriented 3-cycles of label 1: nothing
    # decomposable maps to them; the label-2 cycles 46 and 59 get a circle
    records = checks.run_initiality(2, 3, sub="mdown", ambient="g")
    failed = [r for r in records if r.verdict != PASS]
    circle = {"status": "FAILED", "size": 12,
              "homology": [(0, 0, ()), (1, 1, ())]}
    assert [(r.params["object_key"], r.verdict, r.evidence) for r in failed] == [
        (4, FAIL, {"status": "EMPTY"}), (17, FAIL, {"status": "EMPTY"}),
        (46, FAIL, circle), (59, FAIL, circle),
    ]


# ---------------------------------------------------------------------------
# records and summaries


def test_records_round_trip(tmp_path):
    records = [
        ReportRecord("demo", {"x": 1}, PASS, {"n": 2}, 0.5),
        ReportRecord("demo", {"x": 2}, FAIL, {"err": "boom"}, 0.1),
    ]
    path = tmp_path / "records.jsonl"
    write_records(path, records)
    back = read_records(path)
    assert strip_wall(back) == strip_wall(records)


def test_exit_code_contract():
    passing = [ReportRecord("c", {}, PASS)]
    assert exit_code(passing) == 0
    assert exit_code(passing + [ReportRecord("c", {}, INCONCLUSIVE)]) == 2
    assert exit_code(passing + [ReportRecord("c", {}, FAIL)]) == 1
    assert exit_code([ReportRecord("c", {}, "REFUSED")]) == 2


def test_summarize_empty_and_mixed():
    text, data = summarize([])
    assert text.startswith("0 checks")
    assert data["total"] == 0
    text, data = summarize(
        [
            ReportRecord("a", {"i": 1}, PASS),
            ReportRecord("a", {"i": 2}, INCONCLUSIVE),
        ]
    )
    assert "1 INCONCLUSIVE" in text
    assert "non-passing:" in text
    assert data["exit_code"] == 2


# ---------------------------------------------------------------------------
# CLI


def test_cli_enumerate_and_report(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    code = cli.main(
        [
            "enumerate",
            "--tag", "ke",
            "--n", "2",
            "--k", "2,3",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out),
        ]
    )
    assert code == 0
    records = read_records(out)
    assert [r.evidence["count"] for r in records] == [4, 60]
    code = cli.main(["report", str(out)])
    assert code == 0
    assert "2 checks" in capsys.readouterr().out


def test_cli_check_reedy_stdout(capsys):
    code = cli.main(["check", "reedy"])
    assert code == 0
    line = capsys.readouterr().out.strip()
    doc = json.loads(line)
    assert doc["verdict"] == "PASS"


def test_cli_check_collapse(tmp_path):
    out = tmp_path / "collapse.jsonl"
    code = cli.main(
        [
            "check", "collapse", "--n", "2", "--k", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert len(read_records(out)) == 4


def test_cli_report_counts_the_matching(tmp_path, capsys):
    out = tmp_path / "collapse.jsonl"
    code = cli.main(["check", "collapse", "--n", "2", "--k", "3", "--out", str(out)])
    assert code == 0
    # the slowest list ranks the records by their contexts' check times
    assert all(r.wall > 0 for r in read_records(out))
    code = cli.main(["report", str(out)])
    assert code == 0
    assert "  collapse: 60 PASS (matching 60)\n" in capsys.readouterr().out


@pytest.mark.parametrize("k, least", [(0, ""), (1, "1")])
def test_collapse_at_k0_and_k1(tmp_path, k, least):
    # the empty word is the one ordered partition of the empty set
    records = checks.run_collapse(n=2, k=k)
    assert [r.verdict for r in records] == [PASS]
    assert records[0].evidence["least"] == least
    assert records[0].evidence["simplices"] == [1]
    out = tmp_path / "collapse.jsonl"
    code = cli.main(["check", "collapse", "--n", "2", "--k", str(k), "--out", str(out)])
    assert code == 0
    assert [r.verdict for r in read_records(out)] == [PASS]


def test_cli_check_finality_flags(tmp_path):
    out = tmp_path / "fin.jsonl"
    code = cli.main(
        [
            "check", "finality", "--n", "2", "--k", "2",
            "--sub", "mup", "--out", str(out),
        ]
    )
    assert code == 0
    records = read_records(out)
    assert all(r.params["sub"] == "mup" for r in records)


def test_cli_report_writes_files(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    cli.main(["check", "reedy", "--out", str(out)])
    code = cli.main(["report", str(out), "--out", str(tmp_path / "summary")])
    assert code == 0
    assert (tmp_path / "summary.txt").exists()
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["total"] == 1


def test_cli_report_counts_certificate_methods(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    code = cli.main(["check", "initiality", "--n", "3", "--k", "3", "--sub", "m",
                     "--out", str(out)])
    assert code == 0
    code = cli.main(["report", str(out), "--out", str(tmp_path / "summary")])
    assert code == 0
    assert "  initiality: 210 PASS (cone 114, dismantle 84, weak 12)\n" in capsys.readouterr().out
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["methods"] == {"initiality": {"cone": 114, "dismantle": 84, "weak": 12}}
    # records without a certificate method list none
    text, data = summarize([ReportRecord("a", {}, PASS)])
    assert "  a: 1 PASS\n" in text
    assert data["methods"] == {}


def test_poset_sweep_jobs_do_not_change_output():
    serial = checks.run_initiality(2, 3)
    parallel = checks.run_initiality(2, 3, jobs=2)
    assert strip_wall(serial) == strip_wall(parallel)
