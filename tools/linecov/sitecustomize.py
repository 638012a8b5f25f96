"""Record the ``src/repro`` lines each Python process runs.

Put this directory first on ``PYTHONPATH`` and set ``LINECOV_OUT`` to a
directory; every process (subprocesses and threads included) then
writes ``<pid>.json``, a ``{file: [line, ...]}`` map, at exit.  Without
``LINECOV_OUT`` nothing is traced.
"""

import atexit
import json
import os
import sys
import threading

_OUT = os.environ.get("LINECOV_OUT")

if _OUT:
    _MARK = os.sep + os.path.join("src", "repro") + os.sep
    _hits: dict = {}

    # bound as defaults: interpreter shutdown clears module globals
    # while a thread may still be traced
    def _tracer(frame, event, arg, _mark=_MARK, _hits=_hits):
        if _mark not in frame.f_code.co_filename:
            return None
        lines = _hits.setdefault(frame.f_code.co_filename, set())

        def _local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return _local

        lines.add(frame.f_lineno)
        return _local

    def _dump():
        sys.settrace(None)
        threading.settrace(None)
        os.makedirs(_OUT, exist_ok=True)
        path = os.path.join(_OUT, f"{os.getpid()}.json")
        with open(path, "w") as f:
            json.dump({k: sorted(v) for k, v in _hits.items()}, f)

    sys.settrace(_tracer)
    threading.settrace(_tracer)
    atexit.register(_dump)
