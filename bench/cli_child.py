"""Run one demonlab CLI invocation with spans recorded.

    python3 bench/cli_child.py SPANS_OUT ARG...

Behaves like ``python -m demonlab ARG...`` and writes the spans and counters
it recorded to SPANS_OUT as JSON. The traced cold-cli pass uses it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import Recorder, instrument


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    import demonlab.cli

    rec = Recorder()
    instrument(rec)
    try:
        code = demonlab.cli.main(argv)
    except SystemExit as exc:  # argparse exits for --version and malformed flags
        code = exc.code
    finally:
        Path(spans_out).write_text(json.dumps({"spans": rec.spans, "counts": rec.counts}))
    return code


if __name__ == "__main__":
    sys.exit(main())
