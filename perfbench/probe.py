"""Fresh-interpreter probe for set-up time and peak memory.

    python3 perfbench/probe.py setup CAPTURE
    python3 perfbench/probe.py rss CAPTURE

Both modes import poet, build a Tracker and open the capture (which validates
its header), then print "ready". In rss mode the probe then runs exactly one
analyze + dumps repetition and prints its ru_maxrss in KiB. It imports nothing
else, so its memory and start-up are poet's own.
"""

import io
import os
import resource
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from poet import Tracker, TrackerConfig, open_capture  # noqa: E402

mode, path = sys.argv[1], sys.argv[2]
tracker = Tracker(TrackerConfig(alert_sink=io.StringIO()))
stream = open_capture(path)
print("ready", flush=True)
if mode == "rss":
    tracker.process(stream).dumps()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
