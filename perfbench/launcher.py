"""Traced launcher: ``python launcher.py TRACE_OUT <spencerlab CLI argv...>``.

Runs one CLI job in this process the way ``python -m spencerlab.cli`` does,
with the layer wrappers of ``layers.py`` installed, and writes the job's
spans, counters, fired wrappers and missing wrap targets to TRACE_OUT as
JSON.  The report on stdout and the exit code are the CLI's own.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.Tracer()
    tracer.enter("job", START)
    missing = layers.install(tracer)
    import spencerlab.cli

    try:
        code = spencerlab.cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.exit()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.dump(), missing=missing), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
