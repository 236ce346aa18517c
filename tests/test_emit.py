"""The seam between analysis and emission: `emit` writes every output
file from the results `harness` computes, and neither imports the
other's half."""

import ast
from pathlib import Path

from sentlen import cli, emit, harness


def _imported_modules(module):
    """Every module that `module`'s source imports, anywhere in it: a
    sentlen module by its name within the package, any other in full."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module)
    return {name.removeprefix("sentlen.") for name in found}


def test_emit_imports_no_analysis_module():
    assert not _imported_modules(emit) & {
        "harness", "correlation", "distribution", "dfa"}


def test_harness_imports_no_output_module():
    assert not _imported_modules(harness) & {"csv", "io", "json"}


def test_one_emit_reports_for_every_caller():
    # bench/tracer.py wraps ("harness", "emit_reports") in every module
    # that binds it, so the CLI's calls are traced too
    assert harness.emit_reports is emit.emit_reports is cli.emit_reports


def test_harness_binds_the_resource_loader():
    # bench/child.py warms harness._resources by name before its clock
    # starts; without it the list loading would fall into wall_s
    assert callable(harness._resources)
