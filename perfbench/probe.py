"""Set-up probe: run in a fresh interpreter by run.py.

    python3 perfbench/probe.py SRC_DIR REQUEST_JSON

Times ``import chronograph`` plus one cold request and prints one JSON
line: {"elapsed": seconds, "code": exit code, "stdout": captured output}.
"""

import json
import sys
import time


def main(argv):
    src, request = argv[0], json.loads(argv[1])
    start = time.perf_counter()
    sys.path.insert(0, src)
    import chronograph  # noqa: F401
    from verbs import run_request

    code, out = run_request(tuple(request))
    elapsed = time.perf_counter() - start
    print(json.dumps({"elapsed": elapsed, "code": code, "stdout": out}))


if __name__ == "__main__":
    main(sys.argv[1:])
