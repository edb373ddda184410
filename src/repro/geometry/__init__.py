"""Geometric substrates for the paper's Section 5 applications.

* :mod:`repro.geometry.primitives` — orientation/plane predicates.
* :mod:`repro.geometry.triangulate` — ear-clipping triangulation of simple
  polygons (used to retriangulate holes in the Kirkpatrick hierarchy).
* :mod:`repro.geometry.independent` — bounded-degree independent sets.
* :mod:`repro.geometry.kirkpatrick` — the subdivision hierarchy [Kir83]
  for planar point location; a hierarchical DAG.
* :mod:`repro.geometry.hull3d` — 3-d convex hull (Qhull via scipy, with
  the mesh construction cost charged by a model).
* :mod:`repro.geometry.dk3d` — the Dobkin–Kirkpatrick hierarchical
  representation of a convex polyhedron; a hierarchical DAG for extremal
  (tangent-plane / support) queries.
"""

from repro.geometry.hull3d import convex_hull_3d
from repro.geometry.kirkpatrick import KirkpatrickHierarchy, build_kirkpatrick
from repro.geometry.dk3d import DKHierarchy, build_dk_hierarchy

__all__ = [
    "convex_hull_3d",
    "KirkpatrickHierarchy",
    "build_kirkpatrick",
    "DKHierarchy",
    "build_dk_hierarchy",
]
