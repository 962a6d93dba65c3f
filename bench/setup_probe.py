"""Set-up probe: import qreduce, load a config and build its scenario.

Run as ``python3 bench/setup_probe.py <config or preset>`` with ``src`` on
PYTHONPATH. The parent times the whole process, so interpreter start and
the numpy and scipy imports count the way a user pays them. The probe
prints the Born table of psi0 (eigenvalue row and probability of every
joint basis vector with non-zero weight) for the correctness checks.
"""

import json
import sys

from qreduce.config import load_config
from qreduce.scenarios import build_scenario

built = build_scenario(load_config(sys.argv[1]))
weights = built.quantities.born_weights(built.psi0)
table = built.quantities.eigenvalue_table
print(json.dumps([[table[k].tolist(), float(w)] for k, w in enumerate(weights) if w > 0]))
