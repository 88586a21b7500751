"""The per-layer tracer of perfbench still finds every layer it patches.

The tracer reads a layer that the package no longer has as zero without
failing, so a rename in src would silently zero that layer's metrics.
Only the layers of the retired h-jet arithmetic are expected to be gone:
``HJet`` holds values with no product, and the t-binomial is read one h
order at a time by ``TPoly.h_coeff``.
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
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        "HJet.__mul__",
        "macdunkl.tbinom.t_binomial_jet",
        "macdunkl.tbinom.scaled_t_binomial_jet",
    ]
