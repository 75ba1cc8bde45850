"""Documentation hygiene: docstrings everywhere, and docs/ stays wired.

Two layers of checks:

* every public module/class/function in PACKAGES carries a docstring;
* the per-subsystem pages under ``docs/`` form a closed graph — every
  relative link resolves, and every package under ``src/repro/`` has a
  home page in ``docs/index.md``.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro", "repro.dram", "repro.core", "repro.controllers",
    "repro.cpu", "repro.workloads", "repro.cache", "repro.mapping",
    "repro.prefetch", "repro.sim", "repro.analysis",
    "repro.exec", "repro.telemetry", "repro.schemes", "repro.certify",
    "repro.store",
]

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
SRC_ROOT = REPO_ROOT / "src" / "repro"

_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def iter_modules():
    for name in PACKAGES:
        module = importlib.import_module(name)
        yield module
        if hasattr(module, "__path__"):
            for info in pkgutil.iter_modules(module.__path__):
                yield importlib.import_module(f"{name}.{info.name}")


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
    for name in names:
        member = getattr(module, name)
        if inspect.isclass(member) or inspect.isfunction(member):
            if getattr(member, "__module__", "").startswith("repro"):
                yield name, member


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [
            m.__name__ for m in iter_modules() if not m.__doc__
        ]
        assert undocumented == []

    def test_every_public_class_and_function_documented(self):
        undocumented = []
        for module in iter_modules():
            for name, member in public_members(module):
                if not inspect.getdoc(member):
                    undocumented.append(f"{module.__name__}.{name}")
        assert sorted(set(undocumented)) == []

    def test_public_methods_documented(self):
        """Public methods of the flagship classes need docstrings too."""
        from repro.controllers.base import MemoryController
        from repro.core.fs_controller import FixedServiceController
        from repro.core.pipeline_solver import PipelineSolver
        from repro.cpu.core_model import Core

        undocumented = []
        for cls in (MemoryController, FixedServiceController,
                    PipelineSolver, Core):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(member) and not \
                        inspect.getdoc(member):
                    undocumented.append(f"{cls.__name__}.{name}")
        assert undocumented == []

    def test_top_level_exports_resolve_and_documented(self):
        for name in repro.__all__:
            member = getattr(repro, name)
            if inspect.isclass(member) or inspect.isfunction(member):
                assert inspect.getdoc(member), name


class TestDocsPages:
    """The split docs/ tree stays internally consistent."""

    def docs_pages(self):
        pages = sorted(DOCS_DIR.glob("*.md"))
        assert pages, "docs/ has no markdown pages"
        return pages

    def test_relative_links_resolve(self):
        """Every relative link in every docs page points at a real file."""
        broken = []
        for page in self.docs_pages():
            for target in _MD_LINK.findall(page.read_text()):
                if "://" in target or target.startswith("#"):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                if not (page.parent / path).exists():
                    broken.append(f"{page.name} -> {target}")
        assert broken == []

    def test_index_links_every_page(self):
        """docs/index.md references every sibling page (no orphans)."""
        index = (DOCS_DIR / "index.md").read_text()
        missing = [
            page.name for page in self.docs_pages()
            if page.name != "index.md" and f"({page.name})" not in index
        ]
        assert missing == []

    def test_every_package_has_a_doc_home(self):
        """Every src/repro/<pkg> package appears in the docs/index.md map."""
        index = (DOCS_DIR / "index.md").read_text()
        missing = []
        for init in sorted(SRC_ROOT.glob("*/__init__.py")):
            pkg = f"repro.{init.parent.name}"
            if f"`{pkg}`" not in index:
                missing.append(pkg)
        assert missing == []
