"""Spans around the public functions of each extsheaf module.

`Tracer.install` replaces each traced function with a wrapper in every
extsheaf module namespace that binds it (and on its class, for methods),
so calls made through an imported alias are traced too.  A span records
name, start, end, parent span and operation id; spans are kept in
compact arrays and written out by `Tracer.write`.  Self time, a span's
duration minus the time its child spans cover, is summed per name while
the program runs.  Only the traced run of the benchmark installs this.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# span name -> (module, attribute); "Class.method" patches the class attribute.
TRACED = {
    "cli.run": ("cli", "run"),
    "cli.load_document": ("cli", "load_document"),
    "cli.emit_json": ("cli", "emit_json"),
    "cli.emit_tsv": ("cli", "emit_tsv"),
    "isotropy.build_catalog": ("isotropy", "build_catalog"),
    "faces.build_faces": ("faces", "build_faces"),
    "faces.downward_closed_families": ("faces", "downward_closed_families"),
    "algebra.twisted_tensor": ("algebra", "twisted_tensor"),
    "hsheaf.build_H": ("hsheaf", "build_H"),
    "hsheaf.multiply_sections": ("hsheaf", "HSheaf.multiply_sections"),
    "posets.global_sections": ("posets", "global_sections"),
    "posets.cech_cohomology": ("posets", "cech_cohomology"),
    "linalg.kernel_basis": ("linalg", "kernel_basis"),
    "linalg.rank": ("linalg", "rank"),
    "linalg.solve_in_span": ("linalg", "solve_in_span"),
    "linalg.coordinates": ("linalg", "Eliminator.coordinates"),
    "extalg.ext_algebra": ("extalg", "ext_algebra"),
    "extalg.express": ("extalg", "ExtAlgebra.express"),
    "extalg.multiply": ("extalg", "ExtAlgebra.multiply"),
    "extalg.concentration_check": ("extalg", "concentration_check"),
    "extalg.vanishing_report": ("extalg", "vanishing_report"),
    "checks.poset_axiom_checks": ("checks", "poset_axiom_checks"),
    "checks.sheaf_structure_checks": ("checks", "sheaf_structure_checks"),
    "checks.section_algebra_checks": ("checks", "section_algebra_checks"),
    "checks.oracle_checks": ("checks", "oracle_checks"),
    "oracles.brute_sections": ("oracles", "brute_sections"),
    "oracles.pp_hilbert": ("oracles", "pp_hilbert"),
    "oracles.quadrant_check": ("oracles", "quadrant_check"),
    "oracles.identity_fuzz": ("oracles", "identity_fuzz"),
}


def _positional(args, kwargs, names):
    """The leading parameters of a call, whether passed by position or keyword."""
    return tuple(args[i] if i < len(args) else kwargs[n] for i, n in enumerate(names))


class Counters:
    """Counts taken at the traced boundaries, summed over operations."""

    def __init__(self):
        self.labels = 0
        self.points = 0
        self.families = 0
        self.blocks_nonzero = 0
        self.stalk_basis = 0
        self.basis = 0
        self.truncated_pairs = 0
        self.cech_distinct = 0
        self.multiply_distinct = 0
        self._cech_seen = set()
        self._cech_keep = []
        self._products = {}
        self._exts = []
        self.hooks = {
            "isotropy.build_catalog": self._catalog,
            "faces.build_faces": self._faces,
            "faces.downward_closed_families": self._families,
            "hsheaf.build_H": self._build_H,
            "extalg.ext_algebra": self._ext_algebra,
            "posets.cech_cohomology": self._cech,
            "extalg.multiply": self._multiply,
        }

    def _catalog(self, args, kwargs, result):
        self.labels += len(result)

    def _faces(self, args, kwargs, result):
        self.points += len(result.points)

    def _families(self, args, kwargs, result):
        self.families += len(result)

    def _build_H(self, args, kwargs, result):
        for blk in result.blocks.values():
            self.blocks_nonzero += not blk.zero
            self.stalk_basis += sum(st.total_dim() for st in blk.sheaf.stalks.values())

    def _ext_algebra(self, args, kwargs, result):
        self.basis += len(result.basis)
        self._exts.append(result)

    def _cech(self, args, kwargs, result):
        _, U, sheaf = _positional(args, kwargs, ("space", "U", "sheaf"))
        key = (id(sheaf), tuple(sorted(U)))
        if key not in self._cech_seen:
            self._cech_seen.add(key)
            self._cech_keep.append(sheaf)    # keeps id(sheaf) unique within the operation
            self.cech_distinct += 1

    def _multiply(self, args, kwargs, result):
        ext, x, y = args if len(args) == 3 else _positional(args, kwargs, ("self", "x", "y"))
        rows = self._products.setdefault(id(ext), {})     # x -> bitmap over y
        row = rows.get(x)
        if row is None:
            row = rows[x] = bytearray((len(ext.basis) + 7) // 8)
        bit = 1 << (y & 7)
        if not row[y >> 3] & bit:
            row[y >> 3] |= bit
            self.multiply_distinct += 1

    def end_operation(self):
        self.truncated_pairs += sum(ext.truncated_pairs for ext in self._exts)
        self._exts.clear()
        self._cech_seen.clear()
        self._cech_keep.clear()
        self._products.clear()


class Tracer:
    """Spans, self times and counters of one traced run."""

    def __init__(self):
        self.names = list(TRACED)
        self.self_time = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counters = Counters()
        self.op = 0
        # one entry per span
        self.span_name = array("B")
        self.span_op = array("I")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []         # [span index, time covered by children] per open span
        self._restore = []

    def _wrap(self, nid, fn):
        clock = time.perf_counter
        stack = self._stack
        span_name, span_op, span_parent = self.span_name, self.span_op, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        self_time, calls = self.self_time, self.calls
        hook = self.counters.hooks.get(self.names[nid])

        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_op.append(self.op)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                span_end[idx] = t1
                stack.pop()
                dur = t1 - t0
                self_time[nid] += dur - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
            if hook:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function in every loaded extsheaf module."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "extsheaf" or k.startswith("extsheaf."))]
        for nid, (mod, attr) in enumerate(TRACED.values()):
            home = sys.modules[f"extsheaf.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(nid, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(nid, orig)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._restore.append((m, k, orig))
                        setattr(m, k, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def end_operation(self):
        self.counters.end_operation()
        self.op += 1

    def self_times(self):
        return dict(zip(self.names, self.self_time))

    def write(self, path_prefix):
        """Write the spans: <prefix>.json (names, layout) and <prefix>.bin (arrays)."""
        arrays = [("name", self.span_name), ("op", self.span_op), ("parent", self.span_parent),
                  ("start", self.span_start), ("end", self.span_end)]
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": [{"field": f, "typecode": a.typecode, "itemsize": a.itemsize}
                             for f, a in arrays],
                  "byteorder": sys.byteorder}
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
        with open(path_prefix + ".bin", "wb") as fh:
            for _, a in arrays:
                a.tofile(fh)
