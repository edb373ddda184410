"""Worker start from the preloaded forkserver: environment, lifecycle, cost.

A forkserver child inherits the server's environment from when the
server started, not the supervisor's current one, and the server
outlives every pool.  These tests pin the guarantees the pool adds on
top: each worker runs under the supervisor's ``REPRO_*`` variables as
they are when the worker starts, and no server or worker process
outlives the interpreter that started them, closed pool or not.  They
also pin what a warm start costs: no worker re-runs the caller's script,
and the preload holds every module a restore and its first batch import.
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


def _python(*args, timeout: float = 120, cwd=None) -> subprocess.CompletedProcess:
    """Run a child interpreter that imports ``repro`` from this checkout."""
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True, text=True, timeout=timeout, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(src)),
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
        proc = _python(script, pointloc_env["path"], ending, timeout=60)
        returned_at = time.monotonic()
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert all(report["pids"]), report
        assert not [pid for pid in report["pids"] if _running(pid)]
        # the exit hook closes an open pool and reaps the server promptly
        assert returned_at - report["exit_at"] < 5.0


#: top level appends this interpreter's pid to a marker file, so every
#: process that re-runs the script leaves one line
_MARKED_CHILD = textwrap.dedent(
    """
    import os, signal, sys, time

    with open(sys.argv[2], "a") as marker:
        marker.write(f"{os.getpid()}\\n")

    import numpy as np

    from repro.serve import WorkerPool

    if __name__ == "__main__":
        with WorkerPool(sys.argv[1], workers=2) as pool:
            pool.submit_batch(np.array([[0.3, 0.4]])).result(timeout=60)
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 60
            while not (
                pool.stats["restarts"] == 1
                and set(pool.worker_states().values()) == {"idle"}
            ):
                assert time.monotonic() < deadline, pool.worker_states()
                time.sleep(0.01)
            pool.submit_batch(np.array([[0.3, 0.4]])).result(timeout=60)
        print(os.getpid())
    """
)


class TestCallerScriptRunsOnce:
    @pytest.mark.parametrize("run_as", ["script", "module"])
    def test_workers_and_restarts_do_not_rerun_the_script(
        self, pointloc_env, tmp_path, run_as
    ):
        """Two workers and one restart leave one marker line, the script's
        own: no worker start re-executes the caller's ``__main__``, run
        as a file (``init_main_from_path``) or with ``-m``
        (``init_main_from_name``)."""
        script = tmp_path / "marked.py"
        script.write_text(_MARKED_CHILD)
        marker = tmp_path / "marker.txt"
        main = [script] if run_as == "script" else ["-m", "marked"]
        proc = _python(*main, pointloc_env["path"], marker, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert marker.read_text().splitlines() == [proc.stdout.strip()]


#: in a fresh interpreter: import the preload and nothing else, then
#: restore the snapshot and serve one batch, and list every ``repro``
#: or scipy module that the restore and the batch imported
_RESTORE_IMPORTS = textwrap.dedent(
    """
    import importlib, json, sys

    from repro.serve.pool import FORKSERVER_PRELOAD

    for name in FORKSERVER_PRELOAD:
        importlib.import_module(name)
    import numpy as np

    from repro.serve.service import restore_service
    from repro.serve.snapshot import read_snapshot

    preloaded = set(sys.modules)
    service = restore_service(read_snapshot(sys.argv[1]))
    restored = set(sys.modules)
    service.run_batch(np.load(sys.argv[2]))
    served = set(sys.modules)

    def ours(names):
        return sorted(n for n in names if n.split(".")[0] in ("repro", "scipy"))

    print(json.dumps({
        "restore": ours(restored - preloaded), "batch": ours(served - restored)
    }))
    """
)


class TestPreload:
    @pytest.mark.parametrize("kind", ["pointloc", "linepoly", "interval"])
    def test_restore_and_first_batch_import_nothing_more(self, all_envs, tmp_path, kind):
        env = all_envs[kind]
        queries = tmp_path / "queries.npy"
        np.save(queries, env["queries"])
        proc = _python("-c", _RESTORE_IMPORTS, env["path"], queries)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"restore": [], "batch": []}
