"""The benchmark's tracer (``perfbench/tracer.py``) rebinds the package's
layer-boundary functions by name, so a refactor that renames or drops one of
them breaks ``Tracer.install``.  This test only reads that file."""

import importlib.util
from pathlib import Path

# puts cli in sys.modules; the package binds every other traced module there
# lazily, which is where Tracer.install looks them up
import bubble_correction.cli  # noqa: F401
from bubble_correction import polynomials, reduction
from bubble_correction.polynomials import Polynomial

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall_resolve_every_target():
    tracer = load_tracer().Tracer()
    apply_L, r2_multiply = reduction.apply_L, polynomials.r2_multiply
    iterated_laplacian = polynomials.iterated_laplacian
    tracer.install()
    try:
        assert reduction.apply_L is not apply_L
        assert polynomials.r2_multiply is not r2_multiply
        # rebound in the importing module too
        assert reduction.iterated_laplacian is not iterated_laplacian
        # y1^2 - y2^2 is harmonic: its solve builds the chain through the
        # module's ``laplacian``, then gates by apply_L
        reduction.solve_gamma(
            Polynomial.variable(3, 0, 2) - Polynomial.variable(3, 1, 2)
        )
    finally:
        tracer.uninstall()
    assert reduction.apply_L is apply_L
    assert polynomials.r2_multiply is r2_multiply
    assert reduction.iterated_laplacian is iterated_laplacian
    names = [span[0] for span in tracer.spans]
    assert "reduction.apply_L" in names and "polynomials.laplacian" in names
