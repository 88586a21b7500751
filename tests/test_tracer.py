"""The per-layer tracer of perfbench still finds every layer it patches.

The tracer reads a layer that the package no longer has as zero without
failing, so a rename in src would silently zero that layer's metrics.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_INSTALL = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
from tracing import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.unpatched))
"""


def test_tracer_patches_every_layer():
    code = _INSTALL.format(
        src=os.path.join(ROOT, "src"), perfbench=os.path.join(ROOT, "perfbench")
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
