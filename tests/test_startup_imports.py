"""What a fresh interpreter imports: each command loads only what it runs.

Every paper experiment and every benchmark repetition is a fresh ``repro``
process, so module loading is paid on every run.  These tests pin the
import rule in fresh interpreters (``sys.modules`` read in a subprocess):

* ``import repro`` and every sub-package ``__init__`` export lazily
  (PEP 562), so ``import repro`` runs no submodule and no numpy;
* ``repro --help`` parses without numpy, and neither a service client nor
  a ``repro service query`` that a running daemon answers imports any
  engine code, nor ``http.client``, :mod:`email` or :mod:`ssl`;
* drawing a workload loads the waking matrix's parameters, not the matrix
  machinery;
* a module imports, at module level, what its own code calls, so no import
  lands inside a timed window: only the protocol class modules that a
  :mod:`repro.sweeps.protocols` builder imports on its first build may load
  while a campaign or a sweep config runs.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: Every sub-package that re-exports names lazily.
PACKAGES = (
    "repro.adversary",
    "repro.analysis",
    "repro.baselines",
    "repro.channel",
    "repro.combinatorics",
    "repro.core",
    "repro.engine",
    "repro.experiments",
    "repro.obs",
    "repro.reporting",
    "repro.service",
    "repro.sweeps",
    "repro.workloads",
)


def run_fresh(script: str) -> list:
    """Run ``script`` in a new interpreter with ``src`` on the path.

    Returns the JSON value the script prints on its last stdout line.
    """
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def loaded_after(code: str) -> list:
    """Every module name in ``sys.modules`` after ``code`` ran in a new interpreter."""
    return run_fresh(
        code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    )


def repro_modules(modules: list) -> list:
    return [name for name in modules if name == "repro" or name.startswith("repro.")]


class TestFreshImports:
    def test_import_repro_runs_no_submodule_and_no_numpy(self):
        modules = loaded_after("import repro")
        assert repro_modules(modules) == ["repro"]
        assert "numpy" not in modules

    def test_help_loads_no_numpy(self):
        modules = loaded_after(
            "import runpy, sys\n"
            "sys.argv = ['repro', '--help']\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
        )
        assert "repro.cli" in modules
        assert "numpy" not in modules
        assert not any(name.startswith("repro.commands.") for name in modules)

    def test_sweep_runner_loads_no_service_adversary_registry_or_bench(self):
        modules = loaded_after("import repro.sweeps.runner")
        forbidden = (
            "repro.service",
            "repro.adversary",
            "repro.experiments.registry",
            "repro.obs.bench",
            "http.client",
            "ssl",
        )
        for name in forbidden:
            assert name not in modules, name

    def test_service_client_loads_no_numpy(self):
        modules = loaded_after("import repro.service.client")
        assert "numpy" not in modules
        assert "repro.sweeps.store" not in modules

    @pytest.mark.parametrize("module", ["repro.service.client", "repro.commands.query"])
    def test_query_client_loads_no_http_client_email_or_ssl(self, module):
        modules = loaded_after(f"import {module}")
        assert module in modules
        for name in ("http.client", "email", "ssl"):
            assert name not in modules, name

    def test_workload_generators_load_no_waking_matrix(self):
        modules = loaded_after("import repro.workloads.generators")
        assert "repro.core.matrix_params" in modules
        assert "repro.core.waking_matrix" not in modules

    def test_service_start_handler_loads_no_registry_and_no_adversary(self):
        modules = loaded_after("import repro.commands.serve")
        assert "repro.service.daemon" in modules
        assert "repro.experiments.registry" not in modules
        assert not any(name.startswith("repro.adversary") for name in modules)

    def test_service_status_and_query_handlers_load_no_numpy(self):
        modules = loaded_after("import repro.commands.service, repro.commands.query")
        assert "numpy" not in modules

    def test_a_query_the_daemon_answers_loads_no_numpy(self, tmp_path):
        from repro.service.daemon import ResultsService, ServiceServer
        from repro.sweeps.store import SweepStore

        server = ServiceServer(ResultsService(SweepStore(tmp_path), workers=0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            modules = loaded_after(
                "from repro.cli import main\n"
                f"argv = ['service', 'query', '--url', {server.endpoint!r}]\n"
                "argv += ['--protocol', 'rpd', '--n', '16', '--k', '2']\n"
                "assert main(argv) == 0\n"
            )
        finally:
            server.shutdown()
            server.server_close()
        assert "repro.service.client" in modules
        assert "numpy" not in modules
        assert "http.client" not in modules


class TestLazyExports:
    @pytest.mark.parametrize("package", ("repro", *PACKAGES))
    def test_every_exported_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in module.__all__:
            getattr(module, name)
            assert name in listed, f"{package}.{name} missing from dir()"

    @pytest.mark.parametrize("package", ("repro", *PACKAGES))
    def test_unknown_name_raises_attribute_error_naming_the_module(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=package.replace(".", r"\.")):
            module.no_such_name

    def test_export_is_the_defining_module_object(self):
        from repro.channel.wakeup import WakeupPattern

        assert repro.WakeupPattern is WakeupPattern
        assert repro.channel.WakeupPattern is WakeupPattern


def builder_imports() -> list:
    """The import statements of the protocol builders in ``sweeps/protocols.py``."""
    tree = ast.parse((SRC / "repro" / "sweeps" / "protocols.py").read_text())
    statements = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_build_"):
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom):
                    statements.add(ast.unparse(inner))
    return sorted(statements)


def imported_inside(setup: str, run: str) -> tuple:
    """What ``run`` imports, and what the builders' modules import, after ``setup``.

    Both sets come from fresh interpreters that ran the same ``setup``:
    the modules ``run`` adds to ``sys.modules``, and the modules that
    every builder's own imports add.
    """
    prelude = "import json, sys\n" + setup + "before = set(sys.modules)\n"
    report = "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    builders = "".join(statement + "\n" for statement in builder_imports())
    return (
        set(run_fresh(prelude + run + report)),
        set(run_fresh(prelude + builders + report)),
    )


class TestNoImportInsideTheWindow:
    def test_builders_import_their_protocol_classes(self):
        statements = builder_imports()
        assert "from repro.core.scenario_b import WakeupWithK" in statements
        assert "from repro.baselines import TDMA" in statements

    def test_quick_campaign_imports_only_builder_modules(self):
        setup = (
            "from repro.experiments.campaign import PaperCampaign\n"
            "from repro.experiments.config import QUICK\n"
            "campaign = PaperCampaign(scale=QUICK, experiments=['E9'])\n"
        )
        run = "assert campaign.run().all_certificates_hold\n"
        ran, allowed = imported_inside(setup, run)
        assert ran, "the campaign imported nothing: the check would be empty"
        assert ran <= allowed, sorted(ran - allowed)

    def test_sweep_config_imports_only_builder_modules(self):
        setup = (
            "from repro.sweeps.runner import resolve_config\n"
            "from repro.sweeps.spec import SweepConfig\n"
        )
        run = "".join(
            f"resolve_config(SweepConfig(protocol={protocol!r}, n=64, k=4, "
            f"workload={workload!r}, batch=8, seed=1))\n"
            for protocol, workload in (
                ("scenario-b", "uniform"),
                ("scenario-c", "window-boundary"),
                ("beb", "family-boundary"),
                ("rpd", "churn"),
            )
        )
        ran, allowed = imported_inside(setup, run)
        assert ran, "the sweep imported nothing: the check would be empty"
        assert ran <= allowed, sorted(ran - allowed)
