"""Import footprint: no dead dependency rides along into every process.

Every search process imports the package's public subpackages, so a
heavy module imported there but never used bloats all of them (a graph
library once cost 13.8 MB resident and 327 modules for a graph nothing
read).  Beyond the standard library, those imports may load only numpy
and the package itself — scipy, for one, is for the tests alone.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_public_packages_import_only_stdlib_and_numpy():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro.nas, repro.cluster, repro.service, repro.checkpoint, "
        "repro.transfer, repro.apps\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names)"
        " - {'numpy', 'repro'}))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
