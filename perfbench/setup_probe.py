"""Times one set-up of a workload in a fresh interpreter and prints the
seconds: importing the library, generating the workload's cells and
parsing every cell's text.  Started by run.py, from the checkout root:

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import efsolver  # noqa: E402

import cells  # noqa: E402

for cell in cells.build(sys.argv[1], int(sys.argv[2])):
    efsolver.parse_problem(cell.text)
print(time.perf_counter() - t0)
