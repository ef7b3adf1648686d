"""The cached quadrature rules: numpy's Gauss-Legendre rule bit for bit, and read-only arrays."""

import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import eitdisk
from eitdisk import DomainError
from eitdisk.cli import MAX_GRID
from eitdisk.quadrature import gauss_legendre_01, trapezoid_closed, trapezoid_periodic

# Every order up to 256, then every 64th to the CLI's cap: a sweep of all
# 1024 orders takes about 80 s, most of it in the two eigenvalue solves.
_ORDERS = [*range(1, 257), *range(320, MAX_GRID + 1, 64)]


def test_gauss_legendre_01_is_numpys_leggauss_bit_for_bit():
    assert _ORDERS[-1] == MAX_GRID
    rule = gauss_legendre_01.__wrapped__  # uncached: the sweep does not fill the process's cache
    for n in _ORDERS:
        x, w = np.polynomial.legendre.leggauss(n)
        r, wr = rule(n)
        assert r.tobytes() == ((x + 1.0) / 2.0).tobytes(), n
        assert wr.tobytes() == (w / 2.0).tobytes(), n


def test_gauss_legendre_01_rejects_non_positive_and_non_integer_orders():
    for n in (0, -3, 2.0, True, "8"):
        with pytest.raises(DomainError, match="Gauss-Legendre order"):
            gauss_legendre_01.__wrapped__(n)


@pytest.mark.parametrize("rule, rest", [
    (gauss_legendre_01, ()), (trapezoid_periodic, ()), (trapezoid_closed, (0.0, math.pi)),
])
def test_cached_rules_check_every_order_even_one_equal_to_a_cached_order(rule, rest):
    rule(np.int64(8), *rest)  # cached under a key equal to 8.0's in an untyped cache
    rule(1, *rest)
    for n in (0, -2, 2.5, 8.0, 1.0, True, "8", None):
        with pytest.raises(DomainError, match="order must be positive"):
            rule(n, *rest)


@pytest.mark.parametrize("rule, args", [
    (gauss_legendre_01, (8,)), (trapezoid_periodic, (8,)), (trapezoid_closed, (8, 0.0, 1.0)),
])
def test_cached_rules_are_read_only(rule, args):
    nodes, weights = rule(*args)
    before = nodes.tobytes(), weights.tobytes()
    for array in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            array *= 2
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    again = rule(*args)
    assert again[0] is nodes and again[1] is weights
    assert (nodes.tobytes(), weights.tobytes()) == before


def test_quadrature_paths_never_import_numpy_polynomial(tmp_path):
    field = tmp_path / "field.json"
    field.write_text('{"kind":"conductivity","cos":{"0":[[0,1.0]],"1":[[1,0.5]]},"sin":{}}',
                     encoding="utf-8")
    script = textwrap.dedent(f"""
        import math, sys
        import eitdisk
        from eitdisk.cli import main
        field = eitdisk.FourierRadialField(eitdisk.CONDUCTIVITY, {{0: eitdisk.RadialProfile(((0, 1.0),))}}, {{}})
        eitdisk.half_disk_data(field, 2)
        eitdisk.arc_data(field, eitdisk.ConformalMap(eitdisk.ArcSpec(math.pi / 4)), 2)
        code = main(["forward", "--oracle", "--nmax", "2", "--input", {str(field)!r},
                     "--output", {str(tmp_path / "dtn.json")!r}])
        print(code, "numpy.polynomial" in sys.modules)
    """)
    src = str(pathlib.Path(eitdisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "dtn.oracle.json").exists()
