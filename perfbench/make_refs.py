"""Write refs.json: the outputs the benchmark's checks compare against.

    python3 perfbench/make_refs.py

Runs each workload's inputs once through the program at the current
commit (every panel of each infer pool, one whole sweep) and records the
per-panel delta matrices and the sweep's per-method mean AUCs. Run it
only when the program's results are meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    work = ROOT / ".perfbench-work" / "refs"
    shutil.rmtree(work, ignore_errors=True)
    refs = {}
    for name in ("sweep-j1", "infer-kernel", "infer-linear"):
        workload = workloads.make(name)
        workload.prepare(work / name, seed=0)
        while not workload.covered():
            workload.round()
        refs[workload.refs_key] = workload.reference()
        print(f"{name}: done", file=sys.stderr)
    shutil.rmtree(work)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
