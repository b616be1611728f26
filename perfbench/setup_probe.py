"""Set-up probe: import arcaps, build or load the model, print "ready".

    python3 perfbench/setup_probe.py ROOT SEED [CHECKPOINT]

``run.py`` times this process from its start to the "ready" line; that is
the set-up a user of the package waits for before the first batch.
"""

import sys
from pathlib import Path

root, seed = Path(sys.argv[1]), int(sys.argv[2])
sys.path.insert(0, str(root / "src"))

import arcaps  # noqa: E402
from arcaps import train  # noqa: E402

if len(sys.argv) > 3:
    train.load_model(sys.argv[3])
else:
    arcaps.ArCapsNet(arcaps.ModelConfig(), seed=seed)
print("ready", flush=True)
