"""The documentation must stay navigable: links resolve, snippets parse and import.

Runs the same checks as ``tools/check_docs.py`` (which CI invokes
standalone), so a broken docs link fails the tier-1 suite locally too.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_checker()


def test_required_docs_exist():
    for name in ("architecture.md", "cli.md", "cost_model.md"):
        assert (REPO_ROOT / "docs" / name).exists(), f"docs/{name} is missing"
    assert (REPO_ROOT / "README.md").exists()


def test_all_relative_links_resolve():
    problems = []
    for path in check_docs.doc_files(REPO_ROOT):
        problems.extend(check_docs.check_links(path))
    assert not problems, "\n".join(problems)


def test_all_python_snippets_parse():
    problems = []
    for path in check_docs.doc_files(REPO_ROOT):
        problems.extend(check_docs.check_snippets(path))
    assert not problems, "\n".join(problems)


def test_docs_mention_every_cli_subcommand():
    cli_doc = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
    for subcommand in ("run", "resume", "sweep", "report"):
        assert f"## `{subcommand}`" in cli_doc or f"`python -m repro {subcommand}`" in cli_doc, (
            f"docs/cli.md does not document the {subcommand!r} subcommand"
        )


def test_checker_cli_passes():
    assert check_docs.main() == 0


def test_checker_detects_broken_link(tmp_path):
    (tmp_path / "README.md").write_text("[missing](does/not/exist.md)\n", encoding="utf-8")
    (tmp_path / "docs").mkdir()
    problems = check_docs.run_checks(tmp_path)
    assert len(problems) == 1 and "broken link" in problems[0]


def test_checker_detects_bad_snippet(tmp_path):
    (tmp_path / "README.md").write_text(
        "```python\ndef broken(:\n```\n", encoding="utf-8"
    )
    (tmp_path / "docs").mkdir()
    problems = check_docs.run_checks(tmp_path)
    assert len(problems) == 1 and "does not parse" in problems[0]


def test_all_repro_imports_in_snippets_resolve():
    problems = []
    for path in check_docs.doc_files(REPO_ROOT):
        problems.extend(check_docs.check_imports(path))
    assert not problems, "\n".join(problems)


def test_checker_detects_stale_import(tmp_path):
    (tmp_path / "README.md").write_text(
        "```python\n"
        "from repro.autograd import (\n"
        "    plan_cache_info,\n"
        "    set_plans_enabled,\n"
        ")\n"
        "from repro.autograd import functional, use_dtype\n"
        "from repro.no_such_module import anything\n"
        "```\n",
        encoding="utf-8",
    )
    (tmp_path / "docs").mkdir()
    problems = check_docs.run_checks(tmp_path)
    assert len(problems) == 2, problems
    assert "'set_plans_enabled' from 'repro.autograd'" in problems[0]
    assert "repro.no_such_module" in problems[1]
