"""The benchmark resolves every name it reads off the package.

``bench/tracing.py`` patches functions by name across the ``eitdisk`` modules,
and ``bench/workloads.py`` calls the package through ``ed`` (``import eitdisk
as ed``) and ``eio`` (``ed.io``); a renamed or removed binding would otherwise
surface only in the slow ``bench/selftest.py``.  The tracer is loaded from its
file, the workloads are only parsed, and no workload runs.
"""

import ast
import importlib.util
import pathlib

import eitdisk
import eitdisk.cli
import eitdisk.conformal
import eitdisk.inverse
import eitdisk.io
import eitdisk.muntz
import eitdisk.partial

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_eitdisk_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patcher_resolves_every_target_and_import_site():
    tracing = _tracing()
    patcher = tracing.Patcher(tracing.Tracer())
    wrapped = {id(fn) for fn, _ in patcher.functions.values()}
    assert len(patcher.functions) + len(patcher.methods) == len(tracing.TARGETS)  # one original each
    for fn in (eitdisk.muntz.inverse_matrix, eitdisk.inverse.solve_moment_problem,
               eitdisk.conformal.psi_inverse, eitdisk.inverse.reconstruct):
        assert id(fn) in wrapped
    for site in (eitdisk, eitdisk.inverse, eitdisk.cli):
        assert site.inverse_matrix is eitdisk.muntz.inverse_matrix
    assert eitdisk.partial.solve_moment_problem is eitdisk.inverse.solve_moment_problem
    assert eitdisk.partial.psi_inverse is eitdisk.conformal.psi_inverse
    for site in (eitdisk.partial, eitdisk.cli):
        assert site._psi_array is eitdisk.conformal._psi_array
    assert eitdisk.cli.reconstruct is eitdisk.reconstruct
    for name in ("extract_conductivity_moments", "extract_schroedinger_moments", "condition_sums"):
        assert getattr(eitdisk, name) is getattr(eitdisk.inverse, name)


def test_workloads_resolve_every_package_attribute_they_read():
    roots = {"ed": eitdisk, "eio": eitdisk.io}
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots and names:
            chains.add((node.id, *reversed(names)))
    assert ("ed", "cli", "main") in chains and ("eio", "grid_to_csv") in chains
    for root, *names in sorted(chains):
        obj = roots[root]
        for name in names:
            assert hasattr(obj, name), f"bench/workloads.py reads {'.'.join([root, *names])}"
            obj = getattr(obj, name)
