"""E10 — substitution audit: cycle-accurate VM vs the counted engine.

For each primitive, the VM's measured step count per mesh side, next to
the engine's charged cost.  Success: route/scan/broadcast linear in side;
shearsort within its side*log(side) envelope (the documented gap to the
optimal-sort model the engine charges, ``MeshEngine(2).clock.cost``
times the side).  ``mesh_steps`` is the primitives' sum; each
primitive's VM steps are the point's outputs.  The verdict is
``tests/bench/test_paper_verdicts.py`` over the committed
``BENCH_e10_vm.json``.
"""

import numpy as np

from repro.mesh.concurrent_read import vm_concurrent_read
from repro.mesh.machine import MeshVM
from repro.mesh.routing import route_permutation
from repro.mesh.scan import broadcast_from_origin, snake_prefix_sum
from repro.mesh.sorting import shearsort


def vm_costs(side: int) -> dict:
    rng = np.random.default_rng(side)
    n = side * side
    out = {}
    vm = MeshVM(side)
    vm.load_rowmajor("k", rng.permutation(n))
    shearsort(vm, "k")
    out["sort"] = vm.steps
    vm = MeshVM(side)
    route_permutation(vm, rng.permutation(n), np.arange(n))
    out["route"] = vm.steps
    vm = MeshVM(side)
    vm.load_rowmajor("v", rng.integers(0, 9, n))
    snake_prefix_sum(vm, "v", "p")
    out["scan"] = vm.steps
    vm = MeshVM(side)
    vm.alloc("s", 1.0)
    broadcast_from_origin(vm, "s", "d")
    out["broadcast"] = vm.steps
    # concurrent read (runs on a 2n-processor VM internally)
    addr = rng.integers(0, n, n)
    mem = rng.uniform(size=n)
    vals, steps = vm_concurrent_read(addr, mem)
    assert np.allclose(vals, mem[addr])
    out["rar"] = steps
    return {"mesh_steps": sum(out.values()), **out}
