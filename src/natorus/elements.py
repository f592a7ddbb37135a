"""The vector-space part shared by every deformed-algebra element type.

Each element type of the package (twisted group algebra elements, twisted
kernels, crossed, strictified and graded elements) is a complex array over
some space with a deformed product. Sums, differences, scalar multiples, the
norm and closeness do not depend on the deformation and are defined once
here; each subclass names the attribute holding its array, says when two
elements share a space, and builds a sibling over its own space.
"""

from __future__ import annotations

import numpy as np

from .errors import IncompatibleGroupsError


class ArrayElement:
    """An element stored as one complex array over a space."""

    __slots__ = ()
    _field: str  # name of the attribute holding the array

    def _same_space(self, other) -> bool:
        raise NotImplementedError

    def _sibling(self, values: np.ndarray):
        """A new element over the same space with the given array."""
        raise NotImplementedError

    @property
    def _array(self) -> np.ndarray:
        return getattr(self, self._field)

    def _check(self, other) -> None:
        if type(other) is not type(self) or not self._same_space(other):
            raise IncompatibleGroupsError(
                f"{type(self).__name__} operands live over different spaces"
            )

    def __add__(self, other):
        self._check(other)
        return self._sibling(self._array + other._array)

    def __sub__(self, other):
        self._check(other)
        return self._sibling(self._array - other._array)

    def __neg__(self):
        return self._sibling(-self._array)

    def __mul__(self, other):
        """Scalar multiple; subclasses handle their own product first."""
        if isinstance(other, (int, float, complex)):
            return self._sibling(self._array * other)
        return NotImplemented

    __rmul__ = __mul__

    def norm(self) -> float:
        """Euclidean (Frobenius) norm of the whole array."""
        return float(np.linalg.norm(self._array.ravel()))

    def isclose(self, other, tol: float = 1e-9) -> bool:
        self._check(other)
        return bool(np.allclose(self._array, other._array, atol=tol, rtol=0.0))
