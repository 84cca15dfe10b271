"""Record the eval_wide reference outputs that the benchmark checks against.

Run from the repository root on a commit whose outputs are trusted:

    python3 benchmarks/record_reference.py

It rebuilds the fixed 784-variable reference case, evaluates it through
``randspn eval`` and the library, and rewrites
``benchmarks/reference_eval_wide.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import WORK, environment, parse_args  # noqa: E402


def main():
    scratch = WORK / f"reference-{os.getpid()}"
    try:
        outputs = workloads.reference_outputs(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    env = environment(parse_args(["--workload", "eval_wide", "--seed",
                                  str(workloads.REFERENCE_SEED), "--seconds", "1"]))
    document = {
        "about": "randspn eval and library outputs on the fixed reference case "
                 f"(seed {workloads.REFERENCE_SEED}, {workloads.REFERENCE_SAMPLES} "
                 f"samples, 784 variables, D=3 R=10 S=10 I=10 C=10); "
                 f"compared with rtol {workloads.RTOL}",
        "recorded_at_commit": env["commit"],
        "numpy": env["numpy"],
        "outputs": outputs,
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
