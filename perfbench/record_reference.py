#!/usr/bin/env python3
"""Record the rates.csv reference of every pool entry of the drop workloads.

    python3 perfbench/record_reference.py [workload ...]

Writes ``perfbench/reference/<workload>.json``.  The benchmark's
correctness gate compares every later commit against these files, so record
them only from a commit whose rates are trusted.
"""

import json
import os
import shutil
import sys
import tempfile

import run


def record(wl, out_path, workdir):
    """Run every pool entry of drop workload ``wl`` and write its reference."""
    import tmmse.cli as cli
    from workloads import parse_rates_csv, sha256

    entries = []
    for entry in range(wl.pool):
        result = cli.run(wl.scenario(entry), out_dir=workdir)
        if result.failures:
            raise SystemExit(f"{wl.name} pool entry {entry} failed: {result.failures}")
        with open(os.path.join(workdir, "rates.csv"), "rb") as f:
            data = f.read()
        rates = {f"{s},{m}": [users[k] for k in sorted(users)]
                 for (s, m), users in parse_rates_csv(data).items()}
        entries.append({"base_seed": entry, "sha256": sha256(data), "rates": rates})
        print(f"{wl.name}: entry {entry + 1}/{wl.pool}", file=sys.stderr)
    with open(out_path, "w") as f:
        json.dump({"workload": wl.name, "config": wl.config, "entries": entries}, f, indent=1)
        f.write("\n")


def main(argv):
    run.bootstrap()
    from workloads import WORKLOADS

    names = argv or [n for n, w in WORKLOADS.items() if w.kind == "drop"]
    os.makedirs(run.OUT, exist_ok=True)
    for name in names:
        wl = WORKLOADS[name]
        workdir = tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.OUT)
        try:
            record(wl, wl.reference_path, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
