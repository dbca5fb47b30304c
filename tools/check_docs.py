#!/usr/bin/env python3
"""Documentation checker: link resolution, Python snippet syntax and imports.

Checks, for ``README.md`` and every Markdown file under ``docs/``:

* every relative Markdown link ``[text](target)`` resolves to an existing
  file or directory in the repository (external ``http(s)``/``mailto``
  links and pure ``#anchor`` links are skipped);
* every fenced ``python`` code block compiles (``compile(..., "exec")``) —
  documentation code must at least be syntactically valid;
* every ``from repro... import a, b`` statement in those blocks (including
  multi-line parenthesised imports) names a module and attributes that
  exist, so a snippet cannot keep advertising a removed API.

Used by CI (``.github/workflows/ci.yml``) and by ``tests/test_docs.py``.
Exit code 0 when clean, 1 with a per-finding report otherwise.
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

# [text](target) — excluding images' leading "!" is unnecessary: image links
# must resolve too.  Nested parentheses do not occur in these docs.
_LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_PATTERN = re.compile(r"^```(\w*)\s*$")


def doc_files(root: Path = REPO_ROOT) -> List[Path]:
    """README.md plus every Markdown file under docs/."""
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def _display(path: Path) -> str:
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def check_links(path: Path) -> List[str]:
    """Unresolvable relative link targets in ``path`` (one message each)."""
    problems = []
    for target in _LINK_PATTERN.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(f"{_display(path)}: broken link -> {target}")
    return problems


def python_snippets(path: Path) -> List[str]:
    """The contents of every fenced ``python`` block in ``path``."""
    snippets: List[str] = []
    block: List[str] = []
    language = None
    for line in path.read_text(encoding="utf-8").splitlines():
        fence = _FENCE_PATTERN.match(line)
        if fence:
            if language is None:
                language = fence.group(1).lower()
                block = []
            else:
                if language == "python":
                    snippets.append("\n".join(block))
                language = None
        elif language is not None:
            block.append(line)
    return snippets


def check_snippets(path: Path) -> List[str]:
    """Syntax errors in the fenced Python blocks of ``path``."""
    problems = []
    for index, snippet in enumerate(python_snippets(path)):
        try:
            compile(snippet, f"{path.name}#snippet{index}", "exec")
        except SyntaxError as error:
            problems.append(
                f"{_display(path)}: python snippet {index} does not parse: {error}"
            )
    return problems


def _missing_imports(node: ast.ImportFrom) -> List[str]:
    """What a ``from repro... import`` statement names that does not exist."""
    try:
        module = importlib.import_module(node.module)
    except ImportError as error:
        return [f"module {node.module!r} ({error})"]
    missing = []
    for alias in node.names:
        if alias.name == "*" or hasattr(module, alias.name):
            continue
        try:
            importlib.import_module(f"{node.module}.{alias.name}")
        except ImportError:
            missing.append(f"{alias.name!r} from {node.module!r}")
    return missing


def check_imports(path: Path) -> List[str]:
    """``from repro... import`` names in the Python blocks of ``path`` that fail."""
    problems = []
    for index, snippet in enumerate(python_snippets(path)):
        try:
            tree = ast.parse(snippet)
        except SyntaxError:
            continue  # reported by check_snippets
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level or not node.module:
                continue
            if node.module.split(".")[0] != "repro":
                continue
            for missing in _missing_imports(node):
                problems.append(
                    f"{_display(path)}: python snippet {index} cannot import {missing}"
                )
    return problems


def run_checks(root: Path = REPO_ROOT) -> List[str]:
    """All documentation problems found under ``root``."""
    problems: List[str] = []
    for path in doc_files(root):
        problems.extend(check_links(path))
        problems.extend(check_snippets(path))
        problems.extend(check_imports(path))
    return problems


def main() -> int:
    files = doc_files()
    problems = run_checks()
    if problems:
        print(f"Documentation check FAILED ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    total_snippets = sum(len(python_snippets(path)) for path in files)
    print(
        f"Documentation check passed: {len(files)} files, "
        f"{total_snippets} python snippets, all links and repro imports resolve."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
