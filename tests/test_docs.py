"""Documentation-quality gates.

Three contracts a downstream user relies on: every public item carries
a docstring, the README's quickstart snippet runs against the current
API, and the prose documentation under ``docs/`` stays truthful — its
code blocks parse, the CLI invocations it shows name real subcommands
and flags, and its scenario catalog matches the code's.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).parent.parent
DOC_PAGES = ("docs/ARCHITECTURE.md", "docs/OPERATIONS.md")


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                yield name, obj


def _all_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [
            m.__name__ for m in _all_modules() if not (m.__doc__ or "").strip()
        ]
        assert undocumented == []

    def test_every_public_class_and_function_documented(self):
        undocumented = []
        for module in _all_modules():
            for name, obj in _public_members(module):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
        assert undocumented == []

    def test_public_methods_documented(self):
        """Every public method has a docstring, own or inherited.

        ``inspect.getdoc`` walks the MRO, so overrides of documented
        abstract methods (e.g. the QS metrics' ``evaluate``) count as
        documented by their contract.
        """
        undocumented = []
        for module in _all_modules():
            for _, cls in _public_members(module):
                if not inspect.isclass(cls):
                    continue
                for mname, member in vars(cls).items():
                    if mname.startswith("_") or not inspect.isfunction(member):
                        continue
                    if not (inspect.getdoc(getattr(cls, mname)) or "").strip():
                        undocumented.append(f"{cls.__module__}.{cls.__name__}.{mname}")
        assert sorted(set(undocumented)) == []


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        """Extract and execute the first python block in README.md."""
        readme = (REPO_ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        assert blocks, "README must contain a python quickstart block"
        snippet = blocks[0]
        # Shrink the run so the doc test stays fast: fewer, shorter windows.
        snippet = snippet.replace("1800.0, 6", "420.0, 2")
        namespace: dict = {}
        exec(compile(snippet, "README.md", "exec"), namespace)  # noqa: S102
        assert "controller" in namespace

    def test_readme_mentions_all_examples(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for script in sorted((REPO_ROOT / "examples").glob("*.py")):
            assert script.name in readme, f"README missing {script.name}"


def _subcommands():
    from repro.cli import build_parser

    import argparse

    parser = build_parser()
    subs = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return subs.choices


class TestDocsPages:
    def test_docs_exist_and_are_linked_from_readme(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for page in DOC_PAGES:
            assert (REPO_ROOT / page).exists(), f"missing {page}"
            assert page in readme, f"README does not link {page}"

    def test_docs_cross_link_each_other(self):
        arch = (REPO_ROOT / "docs/ARCHITECTURE.md").read_text()
        ops = (REPO_ROOT / "docs/OPERATIONS.md").read_text()
        assert "OPERATIONS.md" in arch
        assert "ARCHITECTURE.md" in ops

    def test_python_blocks_compile(self):
        """Every python block in README and docs/ must at least parse."""
        for page in ("README.md", *DOC_PAGES):
            text = (REPO_ROOT / page).read_text()
            for i, block in enumerate(re.findall(r"```python\n(.*?)```", text, re.S)):
                compile(block, f"{page}[python block {i}]", "exec")

    def test_cli_invocations_name_real_subcommands(self):
        """`tempo-repro <sub>` / `python -m repro <sub>` must exist."""
        known = set(_subcommands())
        pattern = re.compile(r"(?:tempo-repro|python -m repro)\s+([a-z][a-z-]*)")
        for page in ("README.md", *DOC_PAGES):
            text = (REPO_ROOT / page).read_text()
            for sub in pattern.findall(text):
                assert sub in known, f"{page} references unknown subcommand {sub!r}"

    def test_operations_flags_match_cli_parsers(self):
        """Every flag OPERATIONS.md documents exists on serve/replay/resume."""
        ops = (REPO_ROOT / "docs/OPERATIONS.md").read_text()
        subs = _subcommands()
        flags = {
            s
            for name in (
                "serve",
                "replay",
                "resume",
                "compact",
                "status",
                "chaos",
                "worker",
                "dump-journal",
            )
            for action in subs[name]._actions
            for s in action.option_strings
        }
        for flag in re.findall(r"`(--[a-z][a-z-]*)`", ops):
            assert flag in flags, f"OPERATIONS.md documents unknown flag {flag}"

    def test_serve_and_replay_share_the_documented_flag_table(self):
        """The OPERATIONS flag table says 'shared by serve and replay';
        keep the two parsers' common scenario flags actually shared."""
        subs = _subcommands()
        serve = {
            s for a in subs["serve"]._actions for s in a.option_strings
        }
        replay = {
            s for a in subs["replay"]._actions for s in a.option_strings
        }
        for flag in ("--shards", "--tcp-workers", "--state-dir", "--scenario"):
            assert flag in serve and flag in replay

    def test_operations_covers_scenario_catalog(self):
        from repro.service.replay import SCENARIOS

        ops = (REPO_ROOT / "docs/OPERATIONS.md").read_text()
        for name in SCENARIOS:
            assert f"`{name}`" in ops, f"OPERATIONS.md missing scenario {name}"

    def test_state_dir_layout_names_real_record_kinds(self):
        """The documented journal record kinds are the ones written."""
        ops = (REPO_ROOT / "docs/OPERATIONS.md").read_text()
        for kind in ("event", "decision", "config", "rollback"):
            assert f"`{kind}`" in ops
