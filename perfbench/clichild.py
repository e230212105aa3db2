"""Run one ``outerfan`` CLI call in this interpreter with tracing on.

    python3 perfbench/clichild.py SPANS_OUT CLI_ARG...

Times the import of ``outerfan.cli``, installs the tracer, calls
``outerfan.cli.main`` with the remaining arguments, writes the tracer's
snapshot to ``SPANS_OUT`` as JSON and exits with the CLI's exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import outerfan.cli

    import_s = time.perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        return outerfan.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.op = -1
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(import_s), fh)


if __name__ == "__main__":
    sys.exit(main())
