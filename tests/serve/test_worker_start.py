"""Worker start from the preloaded forkserver: environment and lifecycle.

A forkserver child inherits the server's environment from when the
server started, not the supervisor's current one, and the server
outlives every pool.  These tests pin the two guarantees the pool adds
on top: each worker runs under the supervisor's ``REPRO_*`` variables
as they are when the worker starts, and no server or worker process
outlives the interpreter that started them, closed pool or not.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro
from repro.serve import BatchFailed, WorkerPool
from repro.serve.pool import _adopt_env

#: a non-finite point: served as-is normally, rejected by paranoid mode's
#: query-state check at the search's entry boundary
PARANOID_ONLY_REJECTS = np.array([[np.inf, 0.5], [0.3, 0.4]])


def _one_worker_pool(path):
    return WorkerPool(path, workers=1, max_retries=0)


class TestEnvironmentForwarding:
    def test_later_pool_runs_under_the_changed_variable(self, pointloc_env, monkeypatch):
        """REPRO_PARANOID set after the forkserver started reaches the
        next pool's worker: its paranoid check now rejects the row."""
        monkeypatch.delenv("REPRO_PARANOID", raising=False)
        with _one_worker_pool(pointloc_env["path"]) as pool:
            results, _steps = pool.submit_batch(PARANOID_ONLY_REJECTS).result(timeout=60)
        assert len(results) == 2

        monkeypatch.setenv("REPRO_PARANOID", "1")
        with _one_worker_pool(pointloc_env["path"]) as pool:
            with pytest.raises(BatchFailed) as info:
                pool.submit_batch(PARANOID_ONLY_REJECTS).result(timeout=60)
        assert any("InvariantViolation" in reason for reason in info.value.reasons)

    def test_adopt_env_sets_and_unsets(self, monkeypatch):
        monkeypatch.setattr(
            os, "environ", {"REPRO_TRACE": "1", "REPRO_UNRELATED": "1", "PATH": "/bin"}
        )
        _adopt_env({"REPRO_PARANOID": "1", "REPRO_TRACE": "0"})
        assert os.environ == {"REPRO_PARANOID": "1", "REPRO_TRACE": "0", "PATH": "/bin"}


_CHILD = textwrap.dedent(
    """
    import json, sys, time
    from multiprocessing import forkserver

    import numpy as np

    from repro.serve import WorkerPool

    if __name__ == "__main__":
        pool = WorkerPool(sys.argv[1], workers=2)
        pool.submit_batch(np.array([[0.3, 0.4]])).result(timeout=60)
        pids = [forkserver._forkserver._forkserver_pid]
        pids += [w.process.pid for w in pool._workers.values()]
        if sys.argv[2] == "close":
            pool.close()
        print(json.dumps({"pids": pids, "exit_at": time.monotonic()}), flush=True)
    """
)


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestForkserverLifecycle:
    @pytest.mark.parametrize("ending", ["close", "leave-open"])
    def test_nothing_outlives_the_interpreter(self, pointloc_env, tmp_path, ending):
        script = tmp_path / "child.py"
        script.write_text(_CHILD)
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(script), str(pointloc_env["path"]), ending],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        returned_at = time.monotonic()
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert all(report["pids"]), report
        assert not [pid for pid in report["pids"] if _running(pid)]
        # the exit hook closes an open pool and reaps the server promptly
        assert returned_at - report["exit_at"] < 5.0
