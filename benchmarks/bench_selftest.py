"""Runner self-test bench: deterministic ok / fail / crash / hang modes.

Exists so the resilient runner's failure paths are testable end-to-end:
spawned workers re-import this module by name, so the failure behaviors
must live in a real registered bench rather than a monkeypatched stub.
Only the ``ok`` mode appears in the default sweep; tests reach the others
by overriding the sweep points in the parent process.
"""

import os
import time


def run_once(mode: str = "ok") -> dict:
    if mode == "ok":
        return {"mesh_steps": 1.0}
    if mode == "fail":
        raise RuntimeError("selftest: deliberate failure")
    if mode == "crash":
        # die without unwinding: simulates a segfault / OOM kill, which
        # the parent sees as EOF on the result pipe
        os._exit(139)
    if mode == "hang":
        time.sleep(3600)
    raise ValueError(f"unknown selftest mode: {mode}")
