"""Render and diff ``BENCH_<name>.json`` blobs (review artifacts).

The parallel runner (:mod:`repro.bench.runner`) writes machine-readable
bench documents; this CLI turns them back into things a reviewer can
read:

* ``python -m repro.bench.report BENCH_e1_hierdag.json`` — per-point
  wall/steps table plus, when the run was collected with
  ``--trace``, the per-label mesh-step breakdown (the runner prints
  the same rendering after each sweep);
* ``python -m repro.bench.report --diff OLD.json NEW.json`` — per-point
  wall-clock and mesh-step deltas, per-label profile deltas when both
  documents carry profiles, and the same regression verdict as the
  runner's ``--compare``: the exit status is non-zero exactly when
  ``runner.compare(NEW, OLD)`` reports a changed mesh-step count or a
  wall regression above the tolerance (default
  ``REGRESSION_TOLERANCE``);
* ``python -m repro.bench.report --diff TRACE_OLD.json TRACE_NEW.json``
  — when both files are ``TRACE_*`` span-tree sidecars (they carry a
  ``spanTrees`` key), the diff is *structural*: per-span-path net step
  deltas (which phase regressed), added/removed spans, and the same
  exit-code convention as the runner's ``--compare`` (1 on a per-span
  step regression above the tolerance).

Missing or malformed input files exit with status 2 (distinct from the
regression exit 1), so CI can tell "worse" from "broken".
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.bench.runner import REGRESSION_TOLERANCE, _params_key, compare
from repro.mesh.profile import CostProfile
from repro.mesh.trace import Span

__all__ = [
    "ReportError",
    "render_doc",
    "render_diff",
    "render_trace_doc",
    "render_trace_diff",
    "span_paths",
    "main",
]


class ReportError(Exception):
    """A report input is missing or malformed (CLI exit status 2)."""


def _load(path: pathlib.Path) -> dict:
    try:
        text = pathlib.Path(path).read_text()
    except OSError as exc:
        raise ReportError(f"{path}: cannot read ({exc})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ReportError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _is_trace_doc(doc: dict) -> bool:
    """TRACE_* sidecars carry span trees; BENCH_* documents carry points."""
    return "spanTrees" in doc or ("traceEvents" in doc and "points" not in doc)


def span_paths(doc: dict) -> dict[tuple[str, ...], float]:
    """Flatten a TRACE sidecar: span path -> self steps.

    Aggregates across the document's tracers; values sum to the traced
    run's ``clock.time``.  Raises :class:`ReportError` when the document
    has no usable ``spanTrees``.
    """
    trees = doc.get("spanTrees")
    if not isinstance(trees, list) or not trees:
        raise ReportError(
            "trace document has no spanTrees (written by an older runner? "
            "re-record with --trace)"
        )
    out: dict[tuple[str, ...], float] = {}

    def walk(span: Span, prefix: tuple[str, ...]) -> None:
        path = prefix + (span.name,)
        out[path] = out.get(path, 0.0) + span.steps
        for child in span.children:
            walk(child, path)

    for tree in trees:
        try:
            root = Span.from_dict(tree["root"])
        except (KeyError, TypeError, AttributeError) as exc:
            raise ReportError(f"malformed span tree in trace document: {exc}") from exc
        walk(root, ())
    return out


def _params_txt(point: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in point["params"].items())


def _fmt_delta(old: float, new: float) -> str:
    if old == 0:
        return "n/a" if new == 0 else "+inf"
    return f"{(new / old - 1):+.1%}"


def render_doc(doc: dict) -> str:
    """Per-phase breakdown of one bench run."""
    total = doc.get("wall_s_total")
    took = "" if total is None else f" in {total:.1f}s"
    lines = [
        f"bench {doc['bench']}  (created {doc.get('created', '?')}, "
        f"{len(doc['points'])} points{took}, repeats={doc.get('repeats', '?')})"
    ]
    prov = doc.get("provenance")
    if prov:
        versions = prov.get("versions", {})
        lines.append(
            "  environment: " + ", ".join(f"{k} {v}" for k, v in versions.items())
        )
        if prov.get("cpu"):
            lines.append(f"  cpu: {prov['cpu']} ({prov.get('platform', '?')})")
    errored = [p for p in doc["points"] if "error" in p]
    for point in doc["points"]:
        if "error" in point:
            lines.append(
                f"  [{_params_txt(point)}] ERROR({point['error_kind']}) after "
                f"{point.get('attempts', '?')} attempt(s): {point['error']}"
            )
            continue
        steps = point.get("mesh_steps")
        steps_txt = "-" if steps is None else f"{steps:.0f}"
        lines.append(
            f"  [{_params_txt(point)}] wall={point['wall_s_min'] * 1e3:.2f}ms "
            f"steps={steps_txt} rss={point.get('peak_rss_kb', 0) / 1024:.0f}MB"
        )
        for warning in point.get("warnings", ()):
            lines.append(f"    WARNING {warning}")
        if "profile" in point:
            prof = CostProfile.from_dict(point["profile"])
            lines.extend("    " + ln for ln in prof.render().splitlines())
    if errored:
        kinds: dict[str, int] = {}
        for p in errored:
            kinds[p["error_kind"]] = kinds.get(p["error_kind"], 0) + 1
        kind_txt = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        lines.append(
            f"ERRORS: {len(errored)} of {len(doc['points'])} points failed "
            f"({kind_txt}) — see lines above"
        )
    if "profile" in doc:
        lines.append("merged per-label profile:")
        prof = CostProfile.from_dict(doc["profile"])
        lines.extend("  " + ln for ln in prof.render().splitlines())
    return "\n".join(lines)


def render_trace_doc(doc: dict) -> str:
    """Indented per-span-path step table of one TRACE sidecar."""
    paths = span_paths(doc)
    total = sum(paths.values())
    lines = [f"trace: {len(paths)} spans, {total:.0f} net steps"]
    for path in sorted(paths):
        depth = len(path) - 1
        lines.append(f"{'  ' * depth}{path[-1]:<{max(1, 32 - 2 * depth)}} "
                     f"steps={paths[path]:>12.0f}")
    return "\n".join(lines)


def render_trace_diff(old: dict, new: dict, tolerance: float) -> tuple[str, list[str]]:
    """Structural span-tree delta of two TRACE sidecars + regressions.

    Per common span path, the self-step delta; paths only in one
    document are reported as added/removed.  A common path whose steps
    grew by more than ``tolerance`` is a regression (exit 1 in the CLI,
    matching ``runner --compare``'s convention).
    """
    old_paths = span_paths(old)
    new_paths = span_paths(new)
    lines = ["trace diff (per-span self steps):"]
    failures: list[str] = []
    for path in sorted(set(old_paths) | set(new_paths)):
        name = ";".join(path)
        depth = len(path) - 1
        pad = "  " * depth
        if path not in old_paths:
            lines.append(f"{pad}{path[-1]}: added ({new_paths[path]:.0f} steps)")
            continue
        if path not in new_paths:
            lines.append(f"{pad}{path[-1]}: removed (was {old_paths[path]:.0f} steps)")
            continue
        ov, nv = old_paths[path], new_paths[path]
        if ov == nv:
            continue
        lines.append(f"{pad}{path[-1]}: {ov:.0f} -> {nv:.0f} ({_fmt_delta(ov, nv)})")
        if ov > 0 and nv > ov * (1 + tolerance):
            failures.append(
                f"span {name}: {nv:.0f} steps vs baseline {ov:.0f} "
                f"(+{(nv / ov - 1):.0%} > {tolerance:.0%})"
            )
    ot, nt = sum(old_paths.values()), sum(new_paths.values())
    lines.append(f"total: {ot:.0f} -> {nt:.0f} ({_fmt_delta(ot, nt)})")
    if failures:
        lines.append("REGRESSIONS:")
        lines.extend(f"  {f}" for f in failures)
    else:
        lines.append(f"no per-span step regression > {tolerance:.0%}")
    return "\n".join(lines), failures


def render_diff(old: dict, new: dict, tolerance: float) -> tuple[str, list[str]]:
    """Human-readable delta of two bench documents + regression failures.

    The failure list is exactly what ``runner --compare`` would produce
    for ``new`` against baseline ``old`` — the caller turns non-emptiness
    into the exit status.
    """
    lines = [
        f"diff {old['bench']} -> {new['bench']}  "
        f"(old {old.get('created', '?')}, new {new.get('created', '?')})"
    ]
    op, np_ = old.get("provenance"), new.get("provenance")
    if op and np_ and op != np_:
        changed = sorted(
            k for k in set(op) | set(np_) if op.get(k) != np_.get(k)
        )
        lines.append(
            "  WARNING provenance differs ("
            + ", ".join(f"{k}: {op.get(k)} -> {np_.get(k)}" for k in changed)
            + ") — wall-clock deltas may reflect the environment, not the code"
        )
    old_by_params = {_params_key(p["params"]): p for p in old["points"]}
    for point in new["points"]:
        base = old_by_params.get(_params_key(point["params"]))
        if "error" in point:
            lines.append(
                f"  [{_params_txt(point)}] ERROR({point['error_kind']}): "
                f"{point['error']}"
            )
            continue
        if base is None:
            lines.append(f"  [{_params_txt(point)}] new point (no baseline)")
            continue
        if "error" in base:
            lines.append(
                f"  [{_params_txt(point)}] baseline point errored "
                f"({base['error_kind']} — {base['error']}); no comparison"
            )
            continue
        ow, nw = base["wall_s_min"], point["wall_s_min"]
        os_, ns = base.get("mesh_steps"), point.get("mesh_steps")
        steps_txt = "steps=-"
        if os_ is not None and ns is not None:
            steps_txt = f"steps {os_:.0f} -> {ns:.0f} ({_fmt_delta(os_, ns)})"
        lines.append(
            f"  [{_params_txt(point)}] wall {ow * 1e3:.2f}ms -> "
            f"{nw * 1e3:.2f}ms ({_fmt_delta(ow, nw)})  {steps_txt}"
        )
    new_keys = {_params_key(q["params"]) for q in new["points"]}
    for key, point in old_by_params.items():
        if key not in new_keys:
            lines.append(f"  [{_params_txt(point)}] dropped (only in baseline)")
    if "profile" in old and "profile" in new:
        oldp = CostProfile.from_dict(old["profile"])
        newp = CostProfile.from_dict(new["profile"])
        labels = sorted(
            set(oldp.by_label) | set(newp.by_label),
            key=lambda lb: -max(oldp.by_label.get(lb, 0.0), newp.by_label.get(lb, 0.0)),
        )
        lines.append("per-label step deltas:")
        for label in labels:
            ov = oldp.by_label.get(label, 0.0)
            nv = newp.by_label.get(label, 0.0)
            if ov == nv:
                continue
            lines.append(
                f"  {label:<24} {ov:>12.0f} -> {nv:>12.0f} ({_fmt_delta(ov, nv)})"
            )
    failures = compare(new, old, tolerance)
    if failures:
        lines.append("REGRESSIONS:")
        lines.extend(f"  {f}" for f in failures)
    else:
        lines.append(
            f"no mesh-step change and no wall regression > {tolerance:.0%}"
        )
    return "\n".join(lines), failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.report", description=__doc__.split("\n", 1)[0]
    )
    parser.add_argument(
        "files", nargs="+", type=pathlib.Path,
        help="one BENCH_<name>.json to render, or two with --diff",
    )
    parser.add_argument(
        "--diff", action="store_true",
        help="diff two bench documents (or two TRACE_* span-tree sidecars): "
        "--diff OLD.json NEW.json; exit 1 on a regression beyond the "
        "tolerance, 2 on a missing/malformed input",
    )
    parser.add_argument("--tolerance", type=float, default=REGRESSION_TOLERANCE)
    args = parser.parse_args(argv)

    try:
        if args.diff:
            if len(args.files) != 2:
                parser.error("--diff takes exactly two files: OLD.json NEW.json")
            old, new = _load(args.files[0]), _load(args.files[1])
            if _is_trace_doc(old) != _is_trace_doc(new):
                raise ReportError(
                    "cannot diff a bench document against a trace sidecar "
                    f"({args.files[0]} vs {args.files[1]})"
                )
            if _is_trace_doc(old):
                text, failures = render_trace_diff(old, new, args.tolerance)
            else:
                try:
                    text, failures = render_diff(old, new, args.tolerance)
                except (KeyError, TypeError) as exc:
                    raise ReportError(
                        f"malformed bench document: missing {exc}"
                    ) from exc
            print(text, flush=True)
            return 1 if failures else 0
        for path in args.files:
            doc = _load(path)
            if _is_trace_doc(doc):
                print(render_trace_doc(doc), flush=True)
            else:
                try:
                    print(render_doc(doc), flush=True)
                except (KeyError, TypeError) as exc:
                    raise ReportError(
                        f"{path}: malformed bench document: missing {exc}"
                    ) from exc
        return 0
    except ReportError as exc:
        print(f"repro.bench.report: error: {exc}", file=sys.stderr, flush=True)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
