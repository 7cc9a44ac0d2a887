#!/usr/bin/env python
"""Generate ``docs/studies.md`` from the live :data:`STUDIES` registry.

The catalogue page is *derived*, never hand-edited.  It is committed so
that a plain checkout links to real content, and ``tests/test_docs.py``
fails when the committed page differs from what this script renders — a
study added via ``STUDIES.add(...)`` must be followed by a regeneration,
which brings in its flags, sweep size, and the paper artefact it
reproduces.

Usage::

    python docs/gen_catalogue.py            # writes docs/studies.md
    python docs/gen_catalogue.py --stdout   # print instead of writing
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.registry import StudyRequest  # noqa: E402
from repro.experiments.studies import STUDIES  # noqa: E402

HEADER = """\
# Study catalogue

*This page is generated from the live study registry by
`docs/gen_catalogue.py` — do not edit it by hand.*

Every entry below is one `Study` in `repro.experiments.studies.STUDIES`:
runnable as `python -m repro.cli <name>`, from the library via
`run_study("<name>", StudyRequest(...))`, and — when it expands into
independent sweep points — in parallel/resumably via `--jobs`,
`--resume`, and `--store-dir` (see the
[large-sweeps tutorial](tutorials/large-sweeps.md)).

Shared flags (`--dataset`, `--scale`, `--clients`, `--rounds`, `--rho`,
`--seed`, the systems layer, the execution plan, and orchestration) are
available on every study; the *extra flags* column lists each study's own
knobs.  The *sweep points* column is the number of independent training
runs the study's default request expands into.
"""


def _artefact(description: str) -> str:
    """The paper table/figure a study reproduces, from its description."""
    prefix = description.split("—")[0].strip()
    return prefix if prefix else "—"


def _sweep_points(study) -> str:
    if not study.orchestrable:
        return "closed form"
    request = StudyRequest()
    config = study.build_config(request)
    if config is not None:
        config = request.apply_overrides(config)
    return str(len(study.specs(config, request)))


def _flags(study) -> str:
    if not study.flags:
        return "—"
    return "<br>".join(
        f"`{flag.name}` — {flag.kwargs.get('help', '')}".rstrip(" —")
        for flag in study.flags
    )


def _support(study) -> str:
    """Supported modes, executors, and adversaries, from the registry."""
    if not study.modes and not study.executors:
        return "— (no training)"
    adversaries = (
        ", ".join(f"`{a}`" for a in study.adversaries)
        if study.adversaries
        else "none"
    )
    return (
        f"modes: {', '.join(f'`{m}`' for m in study.modes)}"
        f"<br>executors: {', '.join(f'`{e}`' for e in study.executors)}"
        f"<br>adversaries: {adversaries}"
    )


def generate() -> str:
    lines = [HEADER]
    lines.append(
        "| Study | Reproduces | Description | Sweep points | Supports | Extra flags |"
    )
    lines.append("|---|---|---|---|---|---|")
    for study in STUDIES:
        summary = study.description.split("—", 1)[-1].strip()
        lines.append(
            f"| `{study.name}` "
            f"| {_artefact(study.description)} "
            f"| {summary} "
            f"| {_sweep_points(study)} "
            f"| {_support(study)} "
            f"| {_flags(study)} |"
        )
    lines.append("")
    lines.append(
        f"{len(STUDIES)} studies registered; "
        f"{sum(1 for s in STUDIES if s.orchestrable)} orchestrable "
        "(parallel + resumable), the rest closed-form.\n"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stdout", action="store_true",
                        help="print the page instead of writing docs/studies.md")
    parser.add_argument("--output", default=str(REPO_ROOT / "docs" / "studies.md"),
                        help="output path (default: docs/studies.md)")
    args = parser.parse_args(argv)
    page = generate()
    if args.stdout:
        print(page)
        return 0
    target = Path(args.output)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(page, encoding="utf-8")
    print(f"wrote {target} ({len(STUDIES)} studies)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
