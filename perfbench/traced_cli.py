"""``python -m repro`` under the benchmark's span wrappers.

Usage: ``python perfbench/traced_cli.py <spans.json> <repro args...>``.
The traced cli-cold run starts this in place of ``python -m repro`` so
the child's layers are timed by the same wrappers the in-process runs
use.  It writes the recorder's export, plus the time ``import repro.cli``
took and how many ``repro`` modules that import loaded, to
``<spans.json>``, and exits with the CLI's exit code.
"""

import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:1] = [os.path.join(_ROOT, "src"), _ROOT]


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - start
    modules = sum(1 for name in sys.modules if name == "repro" or name.startswith("repro."))

    from perfbench.spans import SpanRecorder, install

    recorder = SpanRecorder()
    install(recorder)
    recorder.begin_op("child", count=True)
    try:
        code = repro.cli.main(argv)
    finally:
        recorder.end_op()
        sys.stdout.flush()
        export = recorder.export()
        export["import_s"] = import_s
        export["repro_modules"] = modules
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(export, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
