"""Run one ``discotrans dict`` command in a fresh interpreter and time it.

Usage: python3 dict_child.py SRC_DIR META_JSON SPANS_NPZ|- -- DICT_ARGS...

A fresh interpreter starts with the grammar module's reduction memo
empty, as a command-line user gets it.  The import is not timed; the
time runs from ``cli.main`` entry to its return with stdout flushed.
The child writes its exit code, time, peak RSS and (when SPANS_NPZ is
not ``-``) its per-layer totals to META_JSON.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src_dir, meta_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(f"usage: {__doc__.splitlines()[2]}")
    sys.path.insert(0, src_dir)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from discotrans import cli

    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = cli.main(cli_args)
    sys.stdout.flush()
    seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    meta = {"exit": code, "seconds": seconds, "rss_mb": rss_mb}
    if tracer is not None:
        tracer.uninstall()
        meta["layers"] = tracer.snapshot()
        tracer.write_spans(spans_path)
    with open(meta_path, "w") as handle:
        json.dump(meta, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
