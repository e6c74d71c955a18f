"""End-to-end benchmark of the extsheaf command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, in this process, and driven the way a user drives it: one
`extsheaf.cli.run(argv, out=buffer)` call per document (an operation).
A pass runs every document of the workload once; passes repeat until
--seconds is spent (at least one pass, and no pass is started that would
overrun).  Every operation is checked (see `Checker`).  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, and with --trace 1 the
per-layer metrics of one extra pass run under `spans.Tracer`, whose spans
are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import documents

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "extsheaf" / "data"
OUT = ROOT / "perfbench" / "out"
DIGESTS = ROOT / "perfbench" / "digests.json"
DEFAULT_SEED = 2026          # the CLI default; digests are recorded at this seed
SETUP_REPEATS = 9


class Workload:
    def __init__(self, command, heaviest, ladder):
        self.command = command
        self.heaviest = heaviest
        self.ladder = ladder


WORKLOADS = {
    "checkall-shipped": Workload("check-all", "p1xp1", ladder=False),
    "ext-shipped": Workload("ext", "p1xp1", ladder=False),
    "hilbert-ladder": Workload("hilbert", "p1x3", ladder=True),
}


class Op:
    """One CLI command on one document."""

    def __init__(self, name, path, doc):
        self.name = name
        self.path = path
        self.doc = doc
        self.oracle = None           # (trivial label index, pp_hilbert series) for ladder fans


# ---------------------------------------------------------------------------
# set-up: import, generate, load and validate


def import_program():
    """Import extsheaf afresh from ./src of this checkout."""
    if not (SRC / "extsheaf" / "__init__.py").is_file():
        raise SystemExit(f"no extsheaf source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "extsheaf" or k.startswith("extsheaf.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("extsheaf.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "extsheaf").resolve():
        raise SystemExit(f"extsheaf was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload, seed, workdir):
    """Import the program and load and validate the documents; returns (cli, ops)."""
    cli = import_program()
    if workload.ladder:
        paths = {}
        for name, doc in documents.ladder_documents(seed).items():
            paths[name] = workdir / f"{name}.json"
            paths[name].write_text(documents.dump(doc), encoding="utf-8")
    else:
        paths = {name: DATA / f"{name}.json" for name in documents.SHIPPED}
    ops = []
    for name, path in paths.items():
        doc = cli.load_document(str(path))
        cli.document_datum(doc)             # raises on an invalid datum
        ops.append(Op(name, path, doc))
    return cli, ops


def attach_oracles(ops):
    """Trivial-label diagonal block and its pp_hilbert series for each ladder fan.

    The oracle reads the undisguised fan of the same variety, which has the
    same Hilbert series and small coordinates.
    """
    from extsheaf import cli, oracles
    from extsheaf.isotropy import build_catalog

    for op in ops:
        if op.doc["mode"] != "toric":
            continue
        datum, _, labels, _ = cli.document_datum(op.doc)
        catalog = build_catalog(datum.isotropy, datum.V, labels)
        trivial = next(k for k, lab in enumerate(catalog.labels)
                       if lab.orbit == () and not any(lab.char))
        make, cutoff = documents.LADDER[op.name]
        _, _, _, plain_fan = cli.document_datum(make(cutoff))
        op.oracle = (trivial, oracles.pp_hilbert(plain_fan, cutoff))


# ---------------------------------------------------------------------------
# correctness gate


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def hilbert_multiset(payload):
    return sha256(json.dumps(sorted(json.dumps(b["hilbert"]) for b in payload["blocks"])))


def at_default_seed(payload):
    """The output as it reads at the default seed (canonical JSON, as the CLI emits)."""
    payload = dict(payload, meta=dict(payload["meta"], seed=DEFAULT_SEED))
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class Checker:
    """Decides whether one operation failed.

    An operation fails when the command raises or exits nonzero, when
    check-all does not report ok, when at the default seed its stdout
    differs from the recorded digest, when at another seed an output whose
    input does not depend on the seed differs from that digest (after
    setting meta.seed back), or when a ladder fan's trivial-label Hilbert
    series differs from pp_hilbert or its multiset of block Hilbert series
    from the recorded one.
    """

    def __init__(self, workload, seed, expected):
        self.workload = workload
        self.seed = seed
        self.expected = expected

    def failure(self, op, code, error, text):
        if error is not None:
            return f"raised {error}"
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(text)
        want = self.expected[op.name]
        if self.workload.command == "check-all" and payload.get("ok") is not True:
            return "check-all did not report ok"
        if self.seed == DEFAULT_SEED:
            if sha256(text) != want["sha256"]:
                return "stdout differs from the recorded digest"
        elif not (self.workload.command == "check-all" or op.oracle):
            if sha256(at_default_seed(payload)) != want["sha256"]:
                return "stdout differs from the recorded digest"
        if op.oracle:
            trivial, series = op.oracle
            got = next(b["hilbert"] for b in payload["blocks"]
                       if b["alpha"] == trivial and b["beta"] == trivial)
            if got != series:
                return f"trivial block Hilbert series {got} differs from pp_hilbert {series}"
            if hilbert_multiset(payload) != want["hilbert_multiset"]:
                return "block Hilbert series differ from the recorded multiset"
        return None


def load_expected(name):
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[name]


# ---------------------------------------------------------------------------
# measuring


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.times = {}
        self.output_bytes = 0
        self.assoc_triples = 0
        self.attempted = 0
        self.failures = []


def argv_of(workload, op, seed):
    return ["--input", str(op.path), "--command", workload.command, "--seed", str(seed)]


def run_pass(cli, workload, ops, seed, checker, after_op=None):
    p = Pass()
    clock = time.perf_counter
    for op in ops:
        argv = argv_of(workload, op, seed)
        buf = io.StringIO()
        error = None
        t0 = clock()
        try:
            code = cli.run(argv, out=buf)
        except Exception as exc:          # a raising command is a failed operation
            code, error = None, repr(exc)
        dt = clock() - t0
        if after_op:
            after_op()
        text = buf.getvalue()
        p.wall += dt
        p.times[op.name] = dt
        p.output_bytes += len(text.encode("utf-8"))
        p.attempted += 1
        why = checker.failure(op, code, error, text)
        if why:
            p.failures.append(f"{op.name}: {why}")
        elif workload.command == "check-all":
            entry = next(c for c in json.loads(text)["checks"] if c["name"] == "ext.associativity")
            p.assoc_triples += entry["details"]["triples_tested"]
    return p


def measure(cli, workload, ops, seed, checker, seconds):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, workload, ops, seed, checker))
        longest = max(p.wall for p in passes)
        if time.perf_counter() - start + longest > seconds:
            return passes


def end_to_end_metrics(workload, passes, setup_times):
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "heaviest_doc_s": (statistics.median(p.times[workload.heaviest] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def layer_metrics(tracer, traced, untraced_wall):
    st = tracer.self_times()
    calls = dict(zip(tracer.names, tracer.calls))
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    cech_calls = calls["posets.cech_cohomology"]
    mult_calls = calls["extalg.multiply"]
    return {
        "cli.command_s": (st["cli.run"], "s"),
        "cli.load_s": (st["cli.load_document"], "s"),
        "cli.emit_s": (st["cli.emit_json"] + st["cli.emit_tsv"], "s"),
        "cli.output_bytes": (traced.output_bytes, "bytes"),
        "isotropy.build_catalog_s": (st["isotropy.build_catalog"], "s"),
        "isotropy.labels": (c.labels, "count"),
        "faces.build_faces_s": (st["faces.build_faces"], "s"),
        "faces.points": (c.points, "count"),
        "faces.families_s": (st["faces.downward_closed_families"], "s"),
        "faces.families": (c.families, "count"),
        "algebra.twisted_tensor_s": (st["algebra.twisted_tensor"], "s"),
        "algebra.twisted_tensor_calls": (calls["algebra.twisted_tensor"], "count"),
        "hsheaf.build_H_s": (st["hsheaf.build_H"], "s"),
        "hsheaf.blocks_nonzero": (c.blocks_nonzero, "count"),
        "hsheaf.stalk_basis": (c.stalk_basis, "count"),
        "hsheaf.multiply_sections_s": (st["hsheaf.multiply_sections"], "s"),
        "hsheaf.multiply_sections_calls": (calls["hsheaf.multiply_sections"], "count"),
        "posets.global_sections_s": (st["posets.global_sections"], "s"),
        "posets.global_sections_calls": (calls["posets.global_sections"], "count"),
        "posets.cech_s": (st["posets.cech_cohomology"], "s"),
        "posets.cech_calls": (cech_calls, "count"),
        "posets.cech_distinct_ratio": (ratio(c.cech_distinct, cech_calls), "ratio"),
        "linalg.kernel_basis_s": (st["linalg.kernel_basis"], "s"),
        "linalg.kernel_basis_calls": (calls["linalg.kernel_basis"], "count"),
        "linalg.rank_s": (st["linalg.rank"], "s"),
        "linalg.solve_in_span_s": (st["linalg.solve_in_span"], "s"),
        "linalg.solve_in_span_calls": (calls["linalg.solve_in_span"], "count"),
        "linalg.coordinates_s": (st["linalg.coordinates"], "s"),
        "linalg.coordinates_calls": (calls["linalg.coordinates"], "count"),
        "extalg.ext_algebra_s": (st["extalg.ext_algebra"], "s"),
        "extalg.basis": (c.basis, "count"),
        "extalg.express_s": (st["extalg.express"], "s"),
        "extalg.multiply_s": (st["extalg.multiply"], "s"),
        "extalg.multiply_calls": (mult_calls, "count"),
        "extalg.multiply_hit_ratio": (ratio(mult_calls - c.multiply_distinct, mult_calls), "ratio"),
        "extalg.truncated_pairs": (c.truncated_pairs, "count"),
        "extalg.concentration_s": (st["extalg.concentration_check"], "s"),
        "extalg.vanishing_s": (st["extalg.vanishing_report"], "s"),
        "checks.poset_s": (st["checks.poset_axiom_checks"], "s"),
        "checks.sheaf_s": (st["checks.sheaf_structure_checks"], "s"),
        "checks.algebra_s": (st["checks.section_algebra_checks"], "s"),
        "checks.oracles_s": (st["checks.oracle_checks"], "s"),
        "checks.assoc_triples": (traced.assoc_triples, "count"),
        "oracles.brute_sections_s": (st["oracles.brute_sections"], "s"),
        "oracles.pp_hilbert_s": (st["oracles.pp_hilbert"], "s"),
        "oracles.quadrant_s": (st["oracles.quadrant_check"], "s"),
        "oracles.identity_fuzz_s": (st["oracles.identity_fuzz"], "s"),
        "trace.wall_s": (traced.wall, "s"),
        "trace.overhead_s": (traced.wall - untraced_wall, "s"),
        "trace.attributed_share": (ratio(sum(st.values()), traced.wall), "ratio"),
        "trace.spans": (len(tracer.span_start), "count"),
    }


def traced_pass(cli, workload, ops, seed, checker, out_prefix):
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        p = run_pass(cli, workload, ops, seed, checker, after_op=tracer.end_operation)
    finally:
        tracer.uninstall()
    tracer.write(str(out_prefix))
    return tracer, p


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"docs-{args.workload}"
    workdir.mkdir(exist_ok=True)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli, ops = setup(workload, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    if workload.ladder:
        attach_oracles(ops)
    checker = Checker(workload, args.seed, load_expected(args.workload))

    passes = measure(cli, workload, ops, args.seed, checker, args.seconds)
    untraced_wall = statistics.median(p.wall for p in passes)
    if args.trace:
        tracer, traced = traced_pass(cli, workload, ops, args.seed, checker,
                                     OUT / f"spans-{args.workload}")
        passes.append(traced)
        metrics = layer_metrics(tracer, traced, untraced_wall)
    else:
        metrics = end_to_end_metrics(workload, passes, setup_times)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for i, p in enumerate(passes):
        print(f"pass {i}: wall {p.wall:.3f} s, " + ", ".join(f"{k} {v:.3f}" for k, v in p.times.items()))
    for f in failures:
        print(f"FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
