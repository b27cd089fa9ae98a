"""Exact polynomial corrections to bubble profiles, bubble-weighted moment
calculus, and balance checks at simple concentration points.

Each module's ``__all__`` is the one list of its public names; every one of
them is importable from the package.  The modules are bound through
``_numpy._lazy``, as numpy is: each executes the first time one of its names
is read, so a CLI command executes only the modules it runs.  ``cli`` is an
ordinary submodule, never a lazy one, since ``python -m`` warns about a
target that is already in ``sys.modules``.
"""

import importlib.util

from ._numpy import _lazy

# the modules whose ``__all__`` names the package exports, in lookup order
_EXPORTING = ("errors", "polynomials", "reduction", "moments", "balance", "profiles")
_SUBMODULES = _EXPORTING + ("kernels", "quadrature")

for _name in _SUBMODULES:
    globals()[_name] = _lazy(f"{__name__}.{_name}")
del _name

__version__ = "0.1.0"


def __getattr__(name):
    """A public name of the exporting modules, executing them in order until
    one lists it; ``__all__`` (for ``import *``) is the submodules' names and
    then every exporting module's ``__all__``."""
    if name == "__all__":
        return [*_SUBMODULES,
                *(key for module in _EXPORTING for key in globals()[module].__all__)]
    # a submodule that is not bound yet (``cli``) is for the import system
    # to load, so ``from bubble_correction import cli`` executes no module
    if (name.isidentifier() and not name.startswith("_")
            and importlib.util.find_spec(f"{__name__}.{name}") is None):
        for key in _EXPORTING:
            module = globals()[key]
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
