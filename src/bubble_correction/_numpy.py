"""The package's one lazy binding, for numpy and for the package's modules.

``_lazy(name)`` puts a module in ``sys.modules`` that executes the first time
one of its attributes is read.  The package binds its modules this way (see
``__init__``), so a command executes only the modules it runs, and every
module binds numpy as ``np`` from here: the exact tier (``solve``, ``table``,
``integrate``, ``balance``) never touches numpy, the float tier does so only
inside function bodies, and numpy executes the first time a float-tier
function reads an attribute of it.  The rule: if a module is already in
``sys.modules`` (a caller or a test imported numpy first, say) that module is
returned, and the binding here is never replaced afterwards.  A missing numpy
still raises ``ModuleNotFoundError`` when the package is imported.  Python
3.11's ``LazyLoader`` is not thread-safe before the first access; the package
starts no threads, and a caller that does should touch each module it uses
(``np`` included) once before it shares the package between them.
"""

import importlib.util
import sys


def _lazy(name):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
