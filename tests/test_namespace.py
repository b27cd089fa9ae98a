"""The package namespace is the union of the modules' ``__all__`` lists."""

import ast
from pathlib import Path

import bubble_correction
from bubble_correction import (
    balance, cli, errors, moments, polynomials, profiles, reduction,
)

import oracles

# every public name of ``bubble_correction`` before its ``__init__`` was
# reduced to star imports of the modules, less the test machinery that moved
# to ``tests/oracles.py`` (``MOVED_TO_ORACLES``)
EARLIER_NAMES = """
BlowupConfiguration BubbleProfile CharacteristicGuardError CoefficientTable
CorrectionSolution DimensionMismatchError DivergentMomentError ExactnessError
FalsifierResult GreensBall HarmonicTail IntegralResult Polynomial
RefinedProfile RefinedProfileSpec ResidualReport ResidueObstructionError
UnsupportedCaseError ViolationReport a_multiplier apply_L
balance change_of_center
coefficient_table compose_shift d_pi directional_pairing
double_factorial_minus2 errors eta_admissible euler_operator
flexibility_falsifier gradient gradient_lower_bound gradient_moment h_of
interference_check interpolation_R iterated_laplacian j_multiple
j_value kernel_basis kernels laplacian
linearized_residual
moment_integral moments multi_point_balance parity_certificate
partial_derivative pi_eval pohozaev_volume_vs_surface polynomials profiles
quadrature r2_multiply radial_completion reduction
rescaled_average residue_terms shift_expansion
single_point_constraints solve_gamma solve_general
weighted_integral
__version__
""".split()

# test oracles and input builders that ``src/`` no longer defines
MOVED_TO_ORACLES = """
apply_signed_permutation b_constant flat_from_sphere_function
j_multiple_via_laplacian laplacian_identity_check linearization_bound_check
project_to_admissible reduction_identity_check sphere_from_flat_function
stereographic_from_plane stereographic_to_plane
""".split()

MODULES = (errors, polynomials, reduction, moments, balance, profiles)


def test_earlier_names_stay_importable():
    missing = [name for name in EARLIER_NAMES if not hasattr(bubble_correction, name)]
    assert not missing


def test_moved_oracles_leave_the_package():
    for name in MOVED_TO_ORACLES + ["constant_curvature"]:
        assert not hasattr(bubble_correction, name), name
        assert not any(hasattr(module, name) for module in MODULES), name
    for name in MOVED_TO_ORACLES:
        assert callable(getattr(oracles, name)), name


def test_every_module_export_is_the_modules_own_object():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)), "two modules export the same name"
    for module in MODULES:
        for name in module.__all__:
            assert getattr(bubble_correction, name) is getattr(module, name)


def test_star_import_binds_the_submodules_and_every_export():
    namespace = {}
    exec("from bubble_correction import *", namespace)
    del namespace["__builtins__"]
    exports = {name for module in MODULES for name in module.__all__}
    submodules = {module.__name__.rpartition(".")[2] for module in MODULES}
    assert set(namespace) == exports | submodules | {"kernels", "quadrature"}
    assert namespace["Polynomial"] is polynomials.Polynomial
    assert set(dir(bubble_correction)) >= set(namespace) | {"__version__"}


def test_obstructions_share_one_base():
    for cls in (
        errors.ResidueObstructionError,
        errors.CharacteristicGuardError,
        errors.DivergentMomentError,
        errors.UnsupportedCaseError,
    ):
        assert issubclass(cls, errors.Obstruction)
    assert issubclass(errors.DivergentMomentError, ValueError)
    assert issubclass(errors.UnsupportedCaseError, ValueError)
    assert not issubclass(errors.ExactnessError, errors.Obstruction)


def private_reads(path):
    """The underscore names a module reads from the package modules it
    imports: ``module.name`` on a module bound by ``from . import``, and
    ``from .module import name``."""
    tree = ast.parse(Path(path).read_text())
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                reads += [f"{node.module}.{alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            reads.append(f"{node.value.id}.{node.attr}")
    return reads


def test_cli_reads_no_private_name_of_another_module():
    assert private_reads(cli.__file__) == []


def test_cli_imports_neither_numpy_nor_quadrature():
    # the float tier's sampling and verdicts live in the modules that do the
    # work; cli only reads, calls and writes
    imported = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not imported & {"_numpy", "quadrature", "numpy"}, imported
