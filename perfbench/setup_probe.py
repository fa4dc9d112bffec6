"""Time rechargetime's set-up in a fresh interpreter: import plus parse_config.

Usage: python3 setup_probe.py SRC_DIR CONFIG_FILE
Prints one JSON object: ``cpu_s``, the CPU seconds this process's main thread
spends from before the import to after the config is parsed and validated,
and ``probe_samples``, times of the speed probe (speed.py) run before, during
and after, by which the caller rescales ``cpu_s``. The probe's own time is
taken out of ``cpu_s``. Interpreter start-up is not included.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from speed import SpeedProbe  # noqa: E402

src_dir, config_path = sys.argv[1], sys.argv[2]
with open(config_path) as fh:
    text = fh.read()
probe = SpeedProbe()
probe.bracket()
start = time.thread_time()
with probe:
    sys.path.insert(0, src_dir)
    from rechargetime.cli import parse_config

    parse_config(text)
cpu_s = time.thread_time() - start - probe.in_pass_s
probe.bracket()
print(json.dumps({"cpu_s": cpu_s, "probe_samples": probe.samples}))
