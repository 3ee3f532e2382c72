"""Run the `score` CLI with the benchmark's probes installed.

    python3 traced_cli.py OUT RUN_ID -- CLI-ARGS...

Times the import of `score.cli`, runs `score.cli.main(CLI-ARGS)` inside a
`cli.main` span, writes the spans, counters and gateway counters to OUT as
JSON, and exits with the CLI's exit code. `src/` must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    out, run_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: traced_cli.py OUT RUN_ID -- CLI-ARGS...")
    start = time.perf_counter()
    import score.cli

    import_s = time.perf_counter() - start

    import probes
    from tracer import Tracer, spans_to_dicts

    tracer = Tracer(run_id)
    with probes.installed(tracer), tracer.span("cli.main"):
        code = score.cli.main(cli_args)
    payload = {
        "exit_code": code,
        "import_s": import_s,
        "spans": spans_to_dicts(tracer.spans),
        "counts": dict(tracer.counts),
        "gateway_stats": probes.gateway_stats(tracer),
    }
    Path(out).write_text(json.dumps(payload), "utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
