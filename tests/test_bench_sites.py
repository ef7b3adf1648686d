"""The benchmark's tracer resolves every name it wraps, at every import site it patches.

``bench/tracing.py`` patches functions by name across the ``eitdisk`` modules;
a renamed or removed binding would otherwise surface only in the slow
``bench/selftest.py``.  The module is loaded from its file and no workload runs.
"""

import importlib.util
import pathlib

import eitdisk
import eitdisk.cli
import eitdisk.conformal
import eitdisk.inverse
import eitdisk.io
import eitdisk.muntz
import eitdisk.partial

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
