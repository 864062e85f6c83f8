"""Warm-interpreter runner: ``quasikit.cli.dispatch`` for whole passes.

Started by run.py as ``python3 worker.py SRC_DIR``.  It imports quasikit
once, then answers one JSON request per stdin line with one JSON reply on
the original stdout (the commands' own stdout goes to /dev/null):

  {"op": "pass", "cwd": DIR, "argvs": [...], "trace": false, "dump": null}
      -> {"codes": [...], "seconds": [...], "pass_s": S, "trace": {...}|null}
  {"op": "quit"}

With ``"trace": true`` the pass runs with the tracer installed and the reply
carries the aggregated spans; ``"dump"`` names a file for the raw spans.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    reply = os.fdopen(os.dup(1), "w", encoding="utf-8")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    sys.stdout = open(os.devnull, "w", encoding="utf-8")

    import quasikit.cli as cli
    from tracing import Tracer

    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "quit":
            break
        os.chdir(request["cwd"])
        tracer = Tracer() if request.get("trace") else None
        gc.collect()
        if tracer:
            tracer.install()
        codes, seconds = [], []
        clock = time.perf_counter
        try:
            begin = clock()
            for i, argv in enumerate(request["argvs"]):
                if tracer:
                    tracer.command = i
                start = clock()
                codes.append(cli.dispatch(argv))
                seconds.append(clock() - start)
            pass_s = clock() - begin
        finally:
            if tracer:
                tracer.uninstall()
        summary = None
        if tracer:
            summary = tracer.aggregate()
            if request.get("dump"):
                tracer.dump(request["dump"])
        reply.write(json.dumps({"codes": codes, "seconds": seconds, "pass_s": pass_s,
                                "trace": summary}) + "\n")
        reply.flush()


if __name__ == "__main__":
    main()
