"""Import-footprint guard: the package stays single-process.

Space builds and partitioned runs happen in-process, so importing ``repro``
must not load the multi-process machinery of the standard library.
"""

import os
import subprocess
import sys

import repro


class TestPoolLifecycle:
    def test_import_does_not_load_the_pool_machinery(self):
        package = os.path.dirname(os.path.abspath(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
        code = (
            "import sys, repro\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
            " if m in sys.modules))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"
