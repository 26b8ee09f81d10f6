"""Set-up probe: import gridlink and build one workload's SystemModel, then exit.

Started as a fresh interpreter by run.py with PYTHONPATH pointing at the
source tree.  Prints the CLOCK_MONOTONIC reading at which the model is ready
and the model's generator count; the parent subtracts its own reading taken
just before the spawn.

    python3 perfbench/setup_child.py plan-ne39|plan-synth35|simulate-ne39 SEED
"""

import sys
import time

import gridlink

workload, seed = sys.argv[1], int(sys.argv[2])
if workload == "plan-synth35":
    from synth import synthetic_model

    model = synthetic_model(seed)
else:
    model = gridlink.build_system(gridlink.load_case("newengland39"))
print(time.monotonic(), model.n)
