#!/usr/bin/env python3
"""Generate docs/api.md from the package's docstrings.

Walks every public symbol reachable from the subpackage ``__all__``
lists and emits a one-page API reference: module summary, then each
class/function with its signature and first docstring paragraph.

    python tools/gen_api_docs.py          # writes docs/api.md
    python tools/gen_api_docs.py --check  # exit 1 if docs/api.md is stale
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path

SUBPACKAGES = [
    "repro.sparse",
    "repro.analysis",
    "repro.machine",
    "repro.machine.mesh",
    "repro.engine",
    "repro.engine.protocol",
    "repro.exec_model",
    "repro.tasks",
    "repro.solvers",
    "repro.runtime",
    "repro.workloads",
    "repro.bench",
    "repro.verify",
    "repro.resilience",
    "repro.serve",
    "repro.errors",
]


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    para = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
    return para


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


def render_symbol(name: str, obj) -> list[str]:
    lines: list[str] = []
    if inspect.isclass(obj):
        lines.append(f"#### class `{name}`")
        lines.append("")
        lines.append(first_paragraph(obj) or "*(no docstring)*")
        methods = [
            (m, fn)
            for m, fn in inspect.getmembers(obj, inspect.isfunction)
            if not m.startswith("_") and fn.__qualname__.startswith(obj.__name__)
        ]
        if methods:
            lines.append("")
            for m, fn in sorted(methods):
                lines.append(
                    f"- `{m}{signature_of(fn)}` — {first_paragraph(fn)}"
                )
    elif callable(obj):
        lines.append(f"#### `{name}{signature_of(obj)}`")
        lines.append("")
        lines.append(first_paragraph(obj) or "*(no docstring)*")
    else:
        lines.append(f"#### `{name}` *(constant)*")
        lines.append("")
        lines.append(f"`{obj!r}`"[:200])
    lines.append("")
    return lines


def generate() -> str:
    out: list[str] = [
        "# API reference",
        "",
        "*Generated by `tools/gen_api_docs.py` — do not edit by hand.*",
        "",
    ]
    for pkg_name in SUBPACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(f"## `{pkg_name}`")
        out.append("")
        out.append(first_paragraph(pkg))
        out.append("")
        names = getattr(pkg, "__all__", None)
        if names is None:
            names = [n for n in dir(pkg) if not n.startswith("_")]
        for name in names:
            obj = getattr(pkg, name)
            out.extend(render_symbol(name, obj))
    return "\n".join(out) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    target = Path(__file__).parent.parent / "docs" / "api.md"
    text = generate()
    if args.check:
        if not target.exists() or target.read_text() != text:
            print("docs/api.md is stale; run tools/gen_api_docs.py")
            return 1
        print("docs/api.md up to date")
        return 0
    target.parent.mkdir(exist_ok=True)
    target.write_text(text)
    print(f"wrote {target} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
