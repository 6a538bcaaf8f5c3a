"""Run one request through chronograph's public entry points, in-process.

The entry points are looked up on each call, so a Tracer that patched them
sees the call.
"""

import contextlib
import io

import chronograph
from chronograph import cli

COMPARE_CFG = {"cn_steps": 10_000, "tol": 1e-6}


def run_request(request):
    """Return (exit code, captured stdout) of one request."""
    verb, target, out_dir = request
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if verb == "scenario":
            preset, overrides = target
            code = chronograph.run_scenario(preset, dict(overrides),
                                            out_dir=out_dir)
        elif verb == "solve":
            code = chronograph.run_solve(target, out_dir)
        elif verb == "compare":
            code = chronograph.run_compare(target,
                                           dict(COMPARE_CFG, out=out_dir))
        elif verb == "classify":
            code = cli.main(["classify", target])
        else:
            raise ValueError(f"unknown verb {verb!r}")
    return code, buf.getvalue()
