"""Record the expected outputs of every workload at the default seed.

    python3 perfbench/record.py

Writes perfbench/digests.json: per workload and document, the sha256 of
the CLI's stdout at seed 2026 and, for the ladder, the digest of the
multiset of block Hilbert series (which a change of lattice basis keeps).
Run it only when the program's output is meant to change.
"""

from __future__ import annotations

import io
import json

import run


def main():
    out = {}
    for name, workload in run.WORKLOADS.items():
        workdir = run.OUT / f"docs-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        cli, ops = run.setup(workload, run.DEFAULT_SEED, workdir)
        out[name] = {}
        for op in ops:
            buf = io.StringIO()
            if cli.run(run.argv_of(workload, op, run.DEFAULT_SEED), out=buf) != 0:
                raise SystemExit(f"{name}/{op.name}: nonzero exit")
            text = buf.getvalue()
            entry = {"sha256": run.sha256(text)}
            if workload.ladder:
                entry["hilbert_multiset"] = run.hilbert_multiset(json.loads(text))
            out[name][op.name] = entry
            print(name, op.name, entry["sha256"][:12], flush=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
