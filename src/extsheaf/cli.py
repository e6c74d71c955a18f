"""Deterministic command-line front end.

One structured JSON input document describes a toric or symmetric datum
plus a label selection; commands print canonical JSON (or a flat TSV
projection) with byte-identical output across runs.  Exit codes: 0 ok,
1 schema/usage error, 2 invalid datum, 3 failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import f2
from .checks import run_battery
from .extalg import diagonal_unit, ext_algebra
from .faces import FacePoint, KData, SymmetricDatum, downward_closed_families, family_name, g_stable_open
from .fans import Fan, toric_datum
from .hsheaf import build_H, validate_support_facts
from .isotropy import DatumError, IsotropyFamily, build_catalog
from .posets import cech_cohomology

DEFAULT_CUTOFF = 20
DEFAULT_SEED = 2026


class SchemaError(ValueError):
    """Malformed input document or invocation (exit code 1)."""


# ---------------------------------------------------------------------------
# input documents


def _need(doc, key, types, where="document"):
    if key not in doc:
        raise SchemaError(f"{where}: missing key {key!r}")
    value = doc[key]
    # JSON true/false load as bool, a subclass of int
    if types is not None and (not isinstance(value, types) or (types is int and isinstance(value, bool))):
        raise SchemaError(f"{where}: key {key!r} has the wrong type")
    return value


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input is not UTF-8: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not valid JSON: {exc}")
    except RecursionError:
        raise SchemaError("input is nested too deeply to parse")
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    mode = _need(doc, "mode", str)
    if mode not in ("toric", "symmetric"):
        raise SchemaError("mode must be 'toric' or 'symmetric'")
    labels = doc.get("labels", "all")
    if labels != "all":
        if not isinstance(labels, list):
            raise SchemaError("labels must be 'all' or a list")
        for k, entry in enumerate(labels):
            if not isinstance(entry, dict) or "orbit" not in entry or "character" not in entry:
                raise SchemaError(f"labels[{k}] needs 'orbit' and 'character'")
            if not isinstance(entry["orbit"], str):
                _str_row(entry["orbit"], f"labels[{k}].orbit")
            bits = entry["character"]
            if not isinstance(bits, (str, list)) or any(
                    b not in ("0", "1") if isinstance(b, str) else type(b) is not int or b not in (0, 1)
                    for b in bits):
                raise SchemaError(f"labels[{k}].character must be a string or list of 0/1 bits")
    _cutoff(doc.get("cutoff", DEFAULT_CUTOFF))
    if mode == "toric":
        t = _need(doc, "toric", dict)
        _need(t, "lattice_rank", int, where="toric")
        for key in ("overlattice_generators", "rays", "max_cones"):
            _int_rows(_need(t, key, list, where="toric"), f"toric.{key}")
    else:
        s = _need(doc, "symmetric", dict)
        for key, types in [("V", list), ("S", list), ("l", int), ("Jmap", dict),
                           ("m", int), ("D_subspaces", dict)]:
            _need(s, key, types, where="symmetric")
        _str_row(s["V"], "symmetric.V")
        for k, orbit in enumerate(s["S"]):
            _str_row(orbit, f"symmetric.S[{k}]")
        for k, row in s["Jmap"].items():
            _int_row(row, f"symmetric.Jmap[{k!r}]")
        for k, rows in s["D_subspaces"].items():
            _int_rows(rows, f"symmetric.D_subspaces[{k!r}]")
        if s.get("Kdatum") is not None:
            _check_kdatum(_need(s, "Kdatum", dict, where="symmetric"))
    return doc


def _cutoff(value):
    """value, if it is a nonnegative even integer (a JSON bool is not)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0 or value % 2:
        raise SchemaError("cutoff must be a nonnegative even integer")
    return value


def _int_rows(rows, where):
    """Every entry of a list of rows is a JSON integer."""
    if not isinstance(rows, list):
        raise SchemaError(f"{where} must be a list of integer lists")
    for r, row in enumerate(rows):
        _int_row(row, f"{where}[{r}]")


def _int_row(row, where):
    if not isinstance(row, list):
        raise SchemaError(f"{where} must be a list of integers")
    for c, x in enumerate(row):
        if not isinstance(x, int) or isinstance(x, bool):
            raise SchemaError(f"{where}[{c}] must be an integer")


def _str_row(row, where):
    if not isinstance(row, list) or not all(isinstance(x, str) for x in row):
        raise SchemaError(f"{where} must be a list of strings")


def _bit_row(row, where):
    _int_row(row, where)
    for c, b in enumerate(row):
        if b not in (0, 1):
            raise SchemaError(f"{where}[{c}] must be 0 or 1")


def _bit_rows(rows, where):
    for r, row in enumerate(rows):
        _bit_row(row, f"{where}[{r}]")


def _polynomial(poly, where):
    """[[coefficient, exponents], ...]: integer exponents, an integer or rational-string coefficient."""
    if not isinstance(poly, list):
        raise SchemaError(f"{where} must be a list of [coefficient, exponents] pairs")
    for t, term in enumerate(poly):
        if not isinstance(term, list) or len(term) != 2:
            raise SchemaError(f"{where}[{t}] must be a [coefficient, exponents] pair")
        coeff, exps = term
        if isinstance(coeff, str):
            try:
                Fraction(coeff)
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"{where}[{t}][0] must be an integer or a rational string")
        elif not isinstance(coeff, int) or isinstance(coeff, bool):
            raise SchemaError(f"{where}[{t}][0] must be an integer or a rational string")
        _int_row(exps, f"{where}[{t}][1]")


def _check_kdatum(kdatum):
    """Per-J entries and restrictions carry every key the K-datum reads, with JSON types."""
    for jk, entry in kdatum.items():
        where = f"symmetric.Kdatum[{jk!r}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where} must be an object")
        if jk == "restrictions":
            for pair, r in entry.items():
                at = f"{where}[{pair!r}]"
                if not isinstance(r, dict):
                    raise SchemaError(f"{at} must be an object")
                _bit_rows(_need(r, "tau_map", list, where=at), f"{at}.tau_map")
                if "gens" in r:
                    for g, poly in enumerate(_need(r, "gens", list, where=at)):
                        _polynomial(poly, f"{at}.gens[{g}]")
            continue
        _need(entry, "tau_rank", int, where=where)
        _bit_rows(_need(entry, "to_open", list, where=where), f"{where}.to_open")
        for g, gen in enumerate(_need(entry, "generators", list, where=where)):
            at = f"{where}.generators[{g}]"
            if not isinstance(gen, dict):
                raise SchemaError(f"{at} must be an object")
            _need(gen, "degree", int, where=at)
            _bit_row(_need(gen, "signs", list, where=at), f"{at}.signs")


def _orbit_from_key(key):
    return () if key in ("-", "") else tuple(sorted(key.split("+")))


def document_datum(doc):
    """Build (datum, D-basis rows, label selection, fan-or-None) from a document."""
    if doc["mode"] == "toric":
        t = doc["toric"]
        fan = Fan(rank=t["lattice_rank"],
                  overlattice_gens=tuple(tuple(g) for g in t["overlattice_generators"]),
                  rays=tuple(tuple(r) for r in t["rays"]),
                  max_cones=tuple(tuple(c) for c in t["max_cones"]))
        datum, dbasis = toric_datum(fan)
    else:
        s = doc["symmetric"]
        fan = None
        m = s["m"]
        subs = {_orbit_from_key(k): tuple(tuple(row) for row in v)
                for k, v in s["D_subspaces"].items()}
        fam = IsotropyFamily(m=m, subspaces=subs, mode="symmetric")
        kdatum = s.get("Kdatum")
        kdata = KData(m=m, l=s["l"], entries=kdatum)
        jmap = {_orbit_from_key(k): tuple(v) for k, v in s["Jmap"].items()}
        datum = SymmetricDatum(V=tuple(s["V"]), S=[tuple(x) for x in s["S"]], l=s["l"],
                               Jmap=jmap, isotropy=fam, kdata=kdata)
        dbasis = f2.identity(m)
    labels = doc.get("labels", "all")
    if labels != "all":
        labels = [(_orbit_from_key("+".join(e["orbit"]) if isinstance(e["orbit"], list) else e["orbit"]),
                   f2.bits(e["character"]))
                  for e in labels]
    return datum, dbasis, labels, fan


# ---------------------------------------------------------------------------
# serialization


def _frac(x):
    """An exact coefficient (int or Fraction) as its canonical string."""
    return str(x)


class Rows:
    """A table already written as text in the output format, which emit_json
    and emit_tsv put where it sits in the payload: in JSON the elements of
    the array, comma-separated; in TSV its whole lines, each ending in a
    newline.  The text is built once, as the rows are made, so that no row
    is kept as a list (see cmd_ext)."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _json_parts(obj, parts):
    """Append the canonical JSON of obj to parts: one json.dumps, which
    rejects a Rows, and only for a dict or list that holds one a walk that
    writes it piece by piece."""
    if type(obj) is Rows:
        parts += ("[", obj.text, "]")
        return
    try:
        parts.append(_dumps(obj))
    except TypeError:
        if isinstance(obj, dict):
            sep = "{"
            for k in sorted(obj):
                parts.append(sep + _dumps(k) + ":")
                _json_parts(obj[k], parts)
                sep = ","
            parts.append("}")
        elif isinstance(obj, list):
            sep = "["
            for x in obj:
                parts.append(sep)
                _json_parts(x, parts)
                sep = ","
            parts.append("]")
        else:
            raise


def emit_json(payload):
    parts = []
    _json_parts(payload, parts)
    parts.append("\n")
    return "".join(parts)


def emit_tsv(payload):
    parts = []

    def walk(prefix, obj):
        if type(obj) is Rows:
            parts.append(obj.text)
        elif isinstance(obj, dict):
            for k in sorted(obj):
                walk(prefix + [str(k)], obj[k])
        elif isinstance(obj, list):
            if obj and all(isinstance(x, (str, int, float)) for x in obj):
                parts.append("\t".join(prefix + [",".join(str(x) for x in obj)]) + "\n")
            else:
                for i, x in enumerate(obj):
                    walk(prefix + [str(i)], x)
        else:
            parts.append("\t".join(prefix + [str(obj)]) + "\n")

    walk([], payload)
    return "".join(parts)


# ---------------------------------------------------------------------------
# commands


def _datum_catalog(doc):
    """(datum, D-basis rows, label catalog, fan-or-None) of a document."""
    datum, dbasis, labels, fan = document_datum(doc)
    return datum, dbasis, build_catalog(datum.isotropy, datum.V, labels), fan


def cmd_validate(built, cutoff, seed, block, fmt):
    datum, dbasis, catalog, fan = built
    H = build_H(datum, catalog, cutoff)
    checks = [{"name": "schema", "status": "pass"},
              {"name": "datum-invariants", "status": "pass"}]
    for (i, j), blk in sorted(H.blocks.items()):
        problems = validate_support_facts(H.space, datum, blk.support)
        if problems:
            raise DatumError(f"support facts fail on block {i}:{j}: {problems[0]}")
    checks.append({"name": "support-facts", "status": "pass"})
    return 0, {"checks": checks}


def cmd_faces(built, cutoff, seed, block, fmt):
    datum, dbasis, catalog, fan = built
    return 0, {"faces": [{"orbit": list(f.orbit), "J": list(f.j)} for f in datum.faces()]}


def cmd_labels(built, cutoff, seed, block, fmt):
    datum, dbasis, catalog, fan = built
    labels = [{"index": k, "orbit": list(lab.orbit), "character": "".join(str(b) for b in lab.char),
               "delta_prime": list(catalog.dprime(k))} for k, lab in enumerate(catalog.labels)]
    return 0, {"d_basis": [list(row) for row in dbasis], "labels": labels}


def parse_faces_output(payload):
    return [FacePoint(orbit=tuple(sorted(f["orbit"])), j=tuple(sorted(f["J"])))
            for f in payload["faces"]]


def parse_labels_output(payload):
    return [(tuple(sorted(e["orbit"])), f2.bits(e["character"]))
            for e in payload["labels"]]


def _parse_block(text, catalog):
    try:
        a, b = text.split(":")
        a, b = int(a), int(b)
    except ValueError:
        raise SchemaError("--block must look like A:B with catalog indices")
    if not (0 <= a < len(catalog) and 0 <= b < len(catalog)):
        raise SchemaError("--block indices out of range")
    return a, b


def cmd_hilbert(built, cutoff, seed, block, fmt):
    """Block Hilbert series from section ranks, no ext basis; every diagonal
    unit is checked, as ext does, whatever block is shown."""
    datum, dbasis, catalog, fan = built
    H = build_H(datum, catalog, cutoff)
    blocks = sorted(H.blocks) if block is None else [block]
    series = {}
    for b in sorted(set(blocks) | {(a, a) for a in range(len(catalog))}):
        sec = H.sections(H.blocks[b])
        if b[0] == b[1]:
            diagonal_unit(H.blocks[b].sheaf, sec)
        series[b] = sec.hilbert(cutoff)
    return 0, {"blocks": [{"alpha": i, "beta": j, "hilbert": series[(i, j)]} for i, j in blocks]}


def _basis_entry(ext, idx):
    b = ext.basis[idx]
    face, lab = min(b.vector)
    pm, km = lab
    return {
        "name": b.name,
        "degree": b.degree,
        "pivot_face": face,
        "pivot_monomial": "*".join(f"X_{v}^{e}" for v, e in pm) or "1",
        "pivot_kpart": list(km),
    }


def cmd_ext(built, cutoff, seed, block, fmt):
    """Basis and multiplication table; each table row [x, y, z, c] (basis
    names and a coefficient) is written as text in fmt as row yields it, and
    the rows of a block are joined into one Rows."""
    datum, dbasis, catalog, fan = built
    ext = ext_algebra(build_H(datum, catalog, cutoff))
    blocks = sorted(ext.H.blocks) if block is None else [block]
    shown = set(blocks)
    names = [b.name for b in ext.basis]
    as_json = fmt == "json"
    out_blocks = []
    for b, (i, j) in enumerate(blocks):
        right = [(j, c) for c in range(len(catalog)) if (j, c) == (i, j) or (j, c) in shown]
        head = f"blocks\t{b}\ttable\t"       # the TSV path of the table: blocks[b].table
        rows = []
        for x in ext.by_block[(i, j)]:
            nx = names[x]
            for blk in right:
                for y, product in ext.row(x, blk):
                    ny = names[y]
                    for z, cv in product.items():
                        rows.append(f'["{nx}","{ny}","{names[z]}","{cv!s}"]' if as_json
                                    else f"{head}{len(rows)}\t{nx},{ny},{names[z]},{cv!s}\n")
        out_blocks.append({
            "alpha": i, "beta": j,
            "hilbert": ext.block_hilbert((i, j)),
            "basis": [_basis_entry(ext, idx) for idx in ext.by_block[(i, j)]],
            "table": Rows(("," if as_json else "").join(rows)),
        })
    return 0, {"unit": {ext.basis[k].name: _frac(v) for k, v in sorted(ext.unit_coeffs().items())},
               "truncated_pairs": ext.truncated_pairs,
               "blocks": out_blocks}


def cmd_cohomology(built, cutoff, seed, block, fmt):
    datum, dbasis, catalog, fan = built
    H = build_H(datum, catalog, cutoff)
    opens = []
    for fam in downward_closed_families(datum):
        U = g_stable_open(datum, H.space, fam)
        blocks = []
        for (i, j), blk in sorted(H.blocks.items()):
            if blk.zero:
                continue
            hs = cech_cohomology(H.space, U, blk.sheaf, cutoff)
            tables = {str(p): h.hilbert(cutoff) for p, h in enumerate(hs) if p == 0 or h.dims}
            blocks.append({"alpha": i, "beta": j, "cech": tables})
        opens.append({"name": family_name(fam), "blocks": blocks})
    return 0, {"opens": opens}


def cmd_check_all(built, cutoff, seed, block, fmt):
    datum, dbasis, catalog, fan = built
    H = build_H(datum, catalog, cutoff)
    report = run_battery(H, ext_algebra(H), seed, fan)
    checks = [{"name": e.name, "status": "pass" if e.ok else "fail", "details": e.details}
              for e in report.entries]
    return (0 if report.ok else 3), {"ok": report.ok, "checks": checks}


# command name -> (handler, whether it takes --block).  run calls
# handler(_datum_catalog(doc), cutoff, seed, block or None, format), which
# returns (exit code, payload), and adds the payload's "meta" itself.
COMMANDS = {
    "validate": (cmd_validate, False),
    "faces": (cmd_faces, False),
    "labels": (cmd_labels, False),
    "ext": (cmd_ext, True),
    "hilbert": (cmd_hilbert, True),
    "cohomology": (cmd_cohomology, False),
    "check-all": (cmd_check_all, False),
}


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


def make_parser():
    p = _Parser(prog="extsheaf", description="extension-algebra engine over finite face posets")
    p.add_argument("--input", required=True, help="path to the input JSON document")
    p.add_argument("--command", required=True, choices=list(COMMANDS))
    p.add_argument("--cutoff", type=int, default=None,
                   help=f"internal degree cutoff (default: document cutoff or {DEFAULT_CUTOFF})")
    p.add_argument("--block", default=None, help="restrict to one block, e.g. 0:0")
    p.add_argument("--format", default="json", choices=["json", "tsv"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return p


def run(argv, out=None):
    out = out if out is not None else sys.stdout
    try:
        args = make_parser().parse_args(argv)
        handler, takes_block = COMMANDS[args.command]
        if args.block is not None and not takes_block:
            raise SchemaError(f"--block applies only to ext and hilbert, not to {args.command}")
        doc = load_document(args.input)
        cutoff = _cutoff(doc.get("cutoff", DEFAULT_CUTOFF) if args.cutoff is None else args.cutoff)
        built = _datum_catalog(doc)
        block = None if args.block is None else _parse_block(args.block, built[2])
        code, payload = handler(built, cutoff, args.seed, block, args.format)
        payload["meta"] = {"input": os.path.basename(args.input), "command": args.command,
                           "cutoff": cutoff, "seed": args.seed, "format_version": 1}
        out.write(emit_json(payload) if args.format == "json" else emit_tsv(payload))
        return code
    except SchemaError as exc:
        out.write(emit_json({"error": {"kind": "schema", "message": str(exc)}}))
        return 1
    except DatumError as exc:
        out.write(emit_json({"error": {"kind": "datum-invalid", "message": str(exc)}}))
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
