"""Exception types shared across the package.

``Obstruction`` is the one base of the mathematical obstructions: an input
that is well formed but outside what the construction can do.  The command
line maps it to exit 2 and every other input problem to exit 1.
"""

__all__ = [
    "Obstruction",
    "DimensionMismatchError",
    "ExactnessError",
    "ResidueObstructionError",
    "CharacteristicGuardError",
    "DivergentMomentError",
    "UnsupportedCaseError",
]


class Obstruction(Exception):
    """A mathematical obstruction, not malformed input."""


class DimensionMismatchError(ValueError):
    """Operands disagree on the ambient dimension."""


class ExactnessError(TypeError):
    """A non-exact value (float) tried to enter the rational coefficient tier."""


class ResidueObstructionError(Obstruction):
    """The correction equation has no pure polynomial solution for this input.

    Raised when the top iterated Laplacian of the source polynomial does not
    vanish.  Carries the leftover radial residue polynomial so callers can
    inspect it or route the input to the radial-completion solver.
    """

    def __init__(self, message, residue, top_laplacian):
        super().__init__(message)
        self.residue = residue
        self.top_laplacian = top_laplacian


class CharacteristicGuardError(Obstruction):
    """A recurrence denominator vanishes inside the requested coefficient table.

    Inside a table only the half-dimension factor 2j - n of a denominator can
    vanish, so the table is refused before any cell is built, naming the
    first blocked cell in build order, (n/2, n/2).
    """

    def __init__(self, n, ell):
        super().__init__(
            f"characteristic denominator vanishes at cell (j={n // 2}, "
            f"k={n // 2}) for n={n}, ell={ell} (half-dimension root)"
        )
        self.n = n
        self.ell = ell


class DivergentMomentError(Obstruction, ValueError):
    """Bubble-weighted moment of a polynomial of degree >= n diverges."""


class UnsupportedCaseError(Obstruction, ValueError):
    """Inputs fall outside the hypotheses of the requested method."""
