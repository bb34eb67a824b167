"""Set-up of one workload in a fresh process, for the setup_s metric.

    python3 perfbench/setup_probe.py WORKLOAD

Imports the CLI and builds the spaces the workload's ops run on, including
the theta graph's shortest-path cache, then exits.  run.py times the whole
process, so interpreter start-up counts toward set-up.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ranspace.cli  # noqa: E402,F401

import inputs  # noqa: E402

if sys.argv[1] == "contract-theta":
    inputs.theta_graph().vertex_distance_matrix()
else:
    inputs.C1.canon(0.0)
