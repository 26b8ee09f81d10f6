"""Recompute perfbench/reference.json, the outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Run it only when a change to the program changes its plans on purpose, and
say so where the change is recorded.  plan-ne39 comes from the CLI, the
synthetic plans from a serial greedy_plan for each seed in SYNTH_SEEDS.
"""

import json
import os
import re
import sys
import tempfile
from pathlib import Path

from run import HERE, OUT, SINGLE_THREADED_BLAS, SRC

SYNTH_SEEDS = range(32)

os.environ.update(SINGLE_THREADED_BLAS)  # before numpy loads, as in run.py
sys.path.insert(0, str(SRC))

import gridlink  # noqa: E402
import gridlink.cli  # noqa: E402
from synth import synthetic_model  # noqa: E402
from workloads import GAIN, PlanSynth35  # noqa: E402


def plan_ne39() -> dict:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
        out = Path(tmp) / "plan.json"
        argv = ["plan", "--case", str(gridlink.case_path("newengland39")), "--out", str(out),
                "--budget", "15", "--gain", str(GAIN), "--format", "structured"]
        if gridlink.cli.main(argv) != 0:
            raise SystemExit("plan-ne39 failed")
        doc = json.loads(out.read_text(encoding="utf-8"))
    return {"links": [[row["gen_i"], row["gen_k"]] for row in doc["iterations"]], "final_alpha": doc["final_alpha"]}


def plan_synth35(seed: int) -> dict:
    result = gridlink.greedy_plan(synthetic_model(seed), budget=PlanSynth35.budget, gain_h=GAIN,
                                  allow_nonpositive=True, workers=1)
    return {"links": [[i + 1, k + 1] for i, k in result.links], "final_alpha": result.final_alpha}


def main() -> None:
    reference = {
        "plan-ne39": plan_ne39(),
        "plan-synth35": {"plans": {str(seed): plan_synth35(seed) for seed in SYNTH_SEEDS}},
        "simulate-ne39": {"rows": 20001},
    }
    text = json.dumps(reference, indent=1)
    text = re.sub(r"\[\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2]", text)  # one link pair per line
    (HERE / "reference.json").write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
