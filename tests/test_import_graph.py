"""Exact import-graph contracts: what ``import repro`` and ``serve`` load.

Each check runs in a fresh interpreter, because this pytest process has
already imported ``repro.testing`` through the statistical plugin. The
checks compare module sets, never seconds, so they give the same verdict on
any machine.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Subpackages whose import drags in SciPy or the whole library.
SERVE_FORBIDDEN = (
    "scipy",
    "repro.testing",
    "repro.experiments",
    "repro.core",
    "repro.learning",
)


def _fresh(code: str):
    """Run ``code`` in a new interpreter; the JSON object it prints last."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _modules_after(code: str) -> list[str]:
    """Every module loaded in a new interpreter after running ``code``."""
    return _fresh(
        textwrap.dedent(code)
        + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    )


def _under(modules: list[str], prefixes) -> list[str]:
    """The modules equal to or inside any of the dotted ``prefixes``."""
    return [
        module
        for module in modules
        if any(module == p or module.startswith(p + ".") for p in prefixes)
    ]


class TestImportGraph:
    def test_import_repro_loads_only_exceptions(self):
        modules = _modules_after("import repro")
        assert _under(modules, ["repro"]) == ["repro", "repro.exceptions"]

    def test_import_serving_skips_scipy_and_unrelated_subpackages(self):
        modules = _modules_after("import repro.serving.loadtest")
        assert "repro.serving.loadtest" in modules
        assert _under(modules, SERVE_FORBIDDEN) == []

    def test_cli_help_loads_no_scipy(self):
        modules = _modules_after(
            """
            import runpy, sys
            sys.argv = ["repro", "--help"]
            try:
                runpy.run_module("repro", run_name="__main__", alter_sys=True)
            except SystemExit as exit:
                assert exit.code == 0, exit.code
            """
        )
        assert "repro.cli" in modules
        assert _under(modules, ["scipy"]) == []
        # The parser's help names the experiment range without importing
        # repro.experiments, whose package loads the bench engine.
        assert _under(modules, ["repro.experiments"]) == []

    def test_star_import_and_dir_cover_all(self):
        seen = _fresh(
            """
            import json, repro
            listed = set(dir(repro))
            namespace = {}
            exec("from repro import *", namespace)
            print(json.dumps({
                "missing_from_dir": sorted(set(repro.__all__) - listed),
                "missing_from_star": sorted(
                    set(repro.__all__) - set(namespace)),
                "uncached": sorted(set(repro.__all__) - set(vars(repro))),
            }))
            """
        )
        assert seen == {
            "missing_from_dir": [],
            "missing_from_star": [],
            "uncached": [],
        }


class TestLazyExports:
    def test_each_export_is_the_subpackage_object(self):
        for name, module in repro._LAZY_EXPORTS.items():
            package = importlib.import_module(module)
            assert getattr(repro, name) is getattr(package, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            repro.nonexistent  # noqa: B018
