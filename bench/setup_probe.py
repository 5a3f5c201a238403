"""Set-up probe: in a fresh process, time importing eulerchar and its CLI and building the CLI parser.

Prints the seconds, unscaled and scaled to the reference host speed (see
calibration.py), as one JSON object. Imports nothing else first, so the time
covers every module the program loads.
"""

import time

start = time.perf_counter()
import eulerchar  # noqa: E402,F401
import eulerchar.cli  # noqa: E402

eulerchar.cli.build_parser()
elapsed = time.perf_counter() - start

import json  # noqa: E402
import statistics  # noqa: E402

from calibration import REFERENCE_S, calibrate  # noqa: E402

scale = REFERENCE_S / statistics.median(calibrate() for _ in range(3))
print(json.dumps({"setup_s": elapsed * scale, "unscaled_setup_s": elapsed}))
