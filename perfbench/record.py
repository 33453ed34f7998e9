"""Recompute recorded.json, the reference outputs every untraced run checks.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record.py

Runs each workload at the default seed, at both scales. Campaigns run serially
(parallelism 1), so the check of a pooled campaign against them also checks
that pooling does not change results. Only rerun this when a change to the
simulator is meant to alter its outputs, and say so in CHANGES.md.
"""

import json

import bench
import workloads

if __name__ == "__main__":
    recorded = {
        scale: {name: bench.reference(workloads.build(name, scale), parallelism=1) for name in workloads.NAMES}
        for scale in workloads.SCALES
    }
    bench.RECORDED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {bench.RECORDED}")
