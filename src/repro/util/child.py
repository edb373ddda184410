"""The start path every child interpreter shares.

The bench runner's spawn-context per-point workers and the serving
pool's forkserver (which imports the workers' modules before it forks
them) build ``sys.path`` from the environment, so a parent that found
``repro`` some other way (pytest conftest, editable install) must pass
its paths down through ``PYTHONPATH``.
"""

from __future__ import annotations

import os
import pathlib

__all__ = ["ensure_child_path"]


def ensure_child_path(*extra_dirs) -> None:
    """Put ``repro``'s source root, then ``extra_dirs``, first on ``PYTHONPATH``."""
    import repro

    parts = [str(pathlib.Path(repro.__file__).resolve().parents[1])]
    parts += [str(d) for d in extra_dirs]
    for part in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if part and part not in parts:
            parts.append(part)
    os.environ["PYTHONPATH"] = os.pathsep.join(parts)
