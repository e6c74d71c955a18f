"""Self-test of the benchmark: generators, correctness gate and tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys

import pytest

import documents
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def ops_of(workload, names, seed, tmp_path):
    _, ops = run.setup(run.WORKLOADS[workload], seed, tmp_path)
    return [op for op in ops if op.name in names]


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("l", [1, 2])
def test_canonical_generator_reproduces_shipped_data(l):
    shipped = (run.DATA / f"canonical_l{l}.json").read_text(encoding="utf-8")
    assert documents.dump(documents.canonical_symmetric(l)) == shipped


@pytest.mark.parametrize("seed", [None, 2026, 7])
def test_generated_fans_match_piecewise_polynomials(seed):
    cli = run.import_program()
    from extsheaf import build_H, ext_algebra, oracles
    from extsheaf.isotropy import build_catalog

    rng = random.Random(seed)
    docs = {name: make(6) for name, (make, _) in documents.LADDER.items()}
    if seed is not None:
        docs = {name: documents.disguise(doc, rng) if doc["mode"] == "toric" else doc
                for name, doc in docs.items()}
    toric = [name for name, doc in docs.items() if doc["mode"] == "toric"]
    assert len(toric) == 7
    for name in toric:
        datum, _, labels, fan = cli.document_datum(docs[name])
        catalog = build_catalog(datum.isotropy, datum.V, labels)
        trivial = next(k for k, lab in enumerate(catalog.labels)
                       if lab.orbit == () and not any(lab.char))
        ext = ext_algebra(build_H(datum, catalog, 6))
        assert ext.block_hilbert((trivial, trivial)) == oracles.pp_hilbert(fan, 6), name


def test_disguise_changes_input_but_keeps_every_block(tmp_path):
    cli = run.import_program()
    plain = documents.product_of_lines(2, [(1, 0)], cutoff=8)
    series = set()
    for seed in range(4):
        doc = documents.disguise(plain, random.Random(seed))
        path = tmp_path / f"d{seed}.json"
        path.write_text(documents.dump(doc), encoding="utf-8")
        buf = io.StringIO()
        assert cli.run(["--input", str(path), "--command", "hilbert"], out=buf) == 0
        series.add(run.hilbert_multiset(json.loads(buf.getvalue())))
    assert len(series) == 1


# ---------------------------------------------------------------------------
# correctness gate


def gate(workload, ops, seed, expected):
    cli = sys.modules["extsheaf.cli"]
    checker = run.Checker(run.WORKLOADS[workload], seed, expected)
    return run.run_pass(cli, run.WORKLOADS[workload], ops, seed, checker).failures


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, 5])
def test_recorded_digest_passes_and_corrupted_digest_fails(tmp_path, seed):
    ops = ops_of("ext-shipped", {"p1_trivial", "canonical_l1"}, seed, tmp_path)
    expected = run.load_expected("ext-shipped")
    assert gate("ext-shipped", ops, seed, expected) == []
    corrupted = json.loads(json.dumps(expected))
    corrupted["canonical_l1"]["sha256"] = "0" * 64
    failures = gate("ext-shipped", ops, seed, corrupted)
    assert len(failures) == 1 and failures[0].startswith("canonical_l1: stdout differs")


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, 5])
def test_wrong_oracle_value_fails(tmp_path, seed):
    ops = ops_of("hilbert-ladder", {"hirzebruch1", "p1x2_halfint"}, seed, tmp_path)
    run.attach_oracles(ops)
    expected = run.load_expected("hilbert-ladder")
    assert gate("hilbert-ladder", ops, seed, expected) == []
    trivial, series = ops[0].oracle
    ops[0].oracle = (trivial, series[:-1] + [series[-1] + 1])
    failures = gate("hilbert-ladder", ops, seed, expected)
    assert len(failures) == 1 and "differs from pp_hilbert" in failures[0]


def test_check_all_must_report_ok(tmp_path, monkeypatch):
    ops = ops_of("checkall-shipped", {"p1_trivial"}, 5, tmp_path)
    expected = run.load_expected("checkall-shipped")
    assert gate("checkall-shipped", ops, 5, expected) == []
    cli = sys.modules["extsheaf.cli"]
    real = cli.run_battery

    def failing_battery(*args, **kwargs):
        report = real(*args, **kwargs)
        report.ok = False
        return report

    monkeypatch.setattr(cli, "run_battery", failing_battery)
    failures = gate("checkall-shipped", ops, 5, expected)
    assert len(failures) == 1 and "exit code 3" in failures[0]


# ---------------------------------------------------------------------------
# tracing and the reported metrics


def test_traced_pass_reports_every_layer_metric(tmp_path):
    workload = run.WORKLOADS["checkall-shipped"]
    ops = ops_of("checkall-shipped", {"p1_trivial", "canonical_l1"}, 3, tmp_path)
    cli = sys.modules["extsheaf.cli"]
    original = (cli.run, cli.cech_cohomology, sys.modules["extsheaf.extalg"].ExtAlgebra.multiply)
    checker = run.Checker(workload, 3, run.load_expected("checkall-shipped"))
    tracer, traced = run.traced_pass(cli, workload, ops, 3, checker, tmp_path / "spans")
    assert traced.failures == []
    assert (cli.run, cli.cech_cohomology,
            sys.modules["extsheaf.extalg"].ExtAlgebra.multiply) == original

    metrics = run.layer_metrics(tracer, traced, untraced_wall=traced.wall)
    assert {(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]} == \
        {(k, unit) for k, (_, unit) in metrics.items()}
    assert sum(tracer.self_time) <= traced.wall
    assert metrics["posets.cech_calls"][0] > 0 and metrics["checks.assoc_triples"][0] > 0
    assert 0 < metrics["posets.cech_distinct_ratio"][0] <= 1

    header = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    n = header["spans"]
    assert n == metrics["trace.spans"][0] > 0
    size = sum(a["itemsize"] for a in header["arrays"]) * n
    assert (tmp_path / "spans.bin").stat().st_size == size
    ops_seen = set(tracer.span_op)
    assert ops_seen == {0, 1}
    roots = [i for i in range(n) if tracer.span_parent[i] == -1]
    assert [tracer.names[tracer.span_name[i]] for i in roots] == ["cli.run", "cli.run"]


def test_tracer_patches_every_namespace_that_binds_a_function():
    run.import_program()
    modules = {name: sys.modules[f"extsheaf.{name}"] for name in ("cli", "extalg", "posets")}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in modules.values():
            assert hasattr(mod.cech_cohomology, "__wrapped__")
        assert modules["cli"].cech_cohomology is modules["extalg"].cech_cohomology
        assert hasattr(sys.modules["extsheaf.posets"].sparse_rank, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(modules["cli"].cech_cohomology, "__wrapped__")


def test_end_to_end_metrics_match_benchmark_json():
    p = run.Pass()
    p.wall, p.times, p.attempted = 1.0, {"p1xp1": 0.5}, 1
    metrics = run.end_to_end_metrics(run.WORKLOADS["ext-shipped"], [p], [0.1])
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        [(k, unit) for k, (_, unit) in metrics.items()]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run(BENCHMARK["command"] + ["--workload", "ext-shipped", "--seed", "1",
                                                    "--seconds", "1", "--trace", "0"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode != 0
    assert result.stdout.strip() == ""
