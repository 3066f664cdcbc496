"""Record the reference outputs that the benchmark checks every unit against.

    python3 bench/make_reference.py

Runs every pool entry of every workload once and writes each estimator's
relative error (and, for recovery, the success flag) to bench/reference.json.
Run it only to re-record the reference on purpose: the checks compare later
commits against these values.
"""

from __future__ import annotations

import json
import os
import sys

from run import OUT, prepare_process


def main() -> int:
    prepare_process()
    import workloads

    reference = {}
    for workload in workloads.WORKLOADS.values():
        entries = {}
        for index in range(workload.pool):
            cfg = workload.config(index, os.path.join(OUT, "reference", workload.name, f"s{index}"))
            entries[str(index)] = {
                rec.estimator: {"rel_error": rec.relative_error}
                | ({} if rec.success is None else {"success": rec.success})
                for rec in workload.run(cfg)
            }
        reference[workload.name] = entries
        print(f"{workload.name}: {workload.pool} units recorded", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
