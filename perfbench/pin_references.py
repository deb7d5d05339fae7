"""Rewrite ``reference_digests.json``: the python backend's result
digest of every workload at ``workloads.PINNED_SEED``.

Run from the repository root, only after a deliberate change of
simulated behaviour::

    python3 perfbench/pin_references.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time

import run
import workloads


def main() -> int:
    (run.WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(dir=run.WORK_DIR / "tmp")
    try:
        runner = run.Runner(tmp_dir, deadline=time.monotonic() + 3600)
        digests = {}
        for name in workloads.WORKLOAD_NAMES:
            out = runner.child(name, workloads.PINNED_SEED, "reference")
            if "error" in out:
                print(f"{name}: {out['error']}", file=sys.stderr)
                return 1
            digests[name] = out["digest"]
            print(f"{name}: pinned")
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    path = run.BENCH_DIR / "reference_digests.json"
    path.write_text(json.dumps(
        {"seed": workloads.PINNED_SEED, "backend": "python", "digests": digests},
        indent=2, sort_keys=True,
    ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
