"""The per-layer tracer of perfbench still finds every layer it patches,
and the benchmark's scripts still import.

The tracer reads a layer that the package no longer has as zero without
failing, so a rename in src would silently zero that layer's metrics.
Only the layers of the retired h-jet arithmetic and of the retired B_{k,l}
apply are expected to be gone: ``HJet`` holds values with no product, the
t-binomial is read one h order at a time by ``TPoly.h_coeff``, and
B_{k,l} is applied, like every operator, through the columns of its
``LinearOperator``, so ``operators.b_op_apply`` no longer exists.  The scripts import package names
of their own (the independent checks call ``operator_matrix``,
``type_sum_closed_apply`` and others), and the per-identity rows are
registry names.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_INSTALL = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
from tracing import IDENTITIES, Tracer
tracer = Tracer()
tracer.install()
import independent, round, run, workloads
from macdunkl.verify.identities import REGISTRY
print(json.dumps([tracer.unpatched, [name for name in IDENTITIES if name not in REGISTRY]]))
"""


def test_tracer_patches_every_layer():
    code = _INSTALL.format(
        src=os.path.join(ROOT, "src"), perfbench=os.path.join(ROOT, "perfbench")
    )
    # -B: the check reads perfbench/ and writes nothing there
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    unpatched, unknown_identities = json.loads(proc.stdout.splitlines()[-1])
    assert unpatched == [
        "HJet.__mul__",
        "macdunkl.operators.b_op_apply",
        "macdunkl.tbinom.t_binomial_jet",
        "macdunkl.tbinom.scaled_t_binomial_jet",
    ]
    assert unknown_identities == []
