"""Packaging smoke tests: the public surface a release promises."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


class TestPublicSurface:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.10.0"

    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize("module", [
        "repro.addresses", "repro.analysis", "repro.bead", "repro.bqt",
        "repro.core", "repro.fcc", "repro.geo", "repro.isp",
        "repro.lint",
        "repro.longitudinal", "repro.obs", "repro.persist", "repro.stats",
        "repro.synth", "repro.tabular", "repro.usac",
    ])
    def test_subpackage_all_exports_resolve(self, module):
        imported = importlib.import_module(module)
        assert imported.__doc__, f"{module} lacks a module docstring"
        for name in getattr(imported, "__all__", []):
            assert getattr(imported, name, None) is not None, \
                f"{module}.{name}"

    def test_cli_entry_point(self):
        from repro.cli import main

        assert callable(main)

    def test_main_module_exists(self):
        assert importlib.util.find_spec("repro.__main__") is not None


class TestImportFootprint:
    def test_import_leaves_scipy_unloaded(self):
        """scipy is the heaviest dependency and only the correlation
        statistics use it; ``import repro`` must not load it."""
        import repro

        source_root = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(source_root), env.get("PYTHONPATH")]))
        probe = ("import sys, repro; "
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")
        loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert loaded.stdout.strip() == "[]", loaded.stdout
