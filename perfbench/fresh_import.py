"""Import notegraph.cli in a fresh process while the probe sampler runs.

Usage: python3 fresh_import.py  (with src/ on PYTHONPATH)

Prints {"probe_s": time spent in probes, "probe_speed": mean probe speed}
so the parent can take probe time off the process's wall time and
rescale the rest; see clock.py.
"""

import json

from clock import Sampler

sampler = Sampler()
_, _, probe_speed = sampler.timed(__import__, "notegraph.cli")
print(json.dumps({"probe_s": sum(end - begin for begin, end in sampler.probes),
                  "probe_speed": probe_speed}))
