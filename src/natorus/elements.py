"""The vector-space part shared by every deformed-algebra element type, and
the one conjugation of coefficient blocks.

Each element type of the package (twisted group algebra elements, twisted
kernels, crossed, strictified and graded elements) is a complex array over
some space with a deformed product. Sums, differences, scalar multiples, the
norm and closeness do not depend on the deformation and are defined once
here; each subclass names the attribute holding its array, says when two
elements share a space, and builds a sibling over its own space. Both sides
act on coefficient blocks one way, by `conjugate`: beta_x in the crossed
product, the action's W_t in the deformation.
"""

from __future__ import annotations

import numpy as np

from .errors import IncompatibleGroupsError, TensorShapeError


def _block_product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b on stacked d x d blocks (the last two axes, leading axes
    broadcast): up to d = 4 unrolled as sum_j a[..., :, j, None] b[..., None,
    j, :], far faster than stacked matmul on small blocks, and stacked matmul
    above (at d = 4 the two cost about the same); for d = 1, the product of
    the entries. `out` may alias a or b: for d > 1 the product is then formed
    apart and copied in."""
    d = a.shape[-1]
    if d == 1:
        return np.multiply(a, b, out=out)
    if out is not None and (np.may_share_memory(out, a) or np.may_share_memory(out, b)):
        out[...] = _block_product(a, b)
        return out
    if d > 4:
        return np.matmul(a, b, out=out)
    acc = np.multiply(a[..., :, :1], b[..., :1, :], out=out)
    for j in range(1, d):
        acc += a[..., :, j : j + 1] * b[..., j : j + 1, :]
    return acc


def conjugate(u: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """u x u^* on the last two axes, leading axes broadcast, formed as
    (u x) u^* by `_block_product`, into `out` if given (it may alias x)."""
    return _block_product(_block_product(u, x, out=out), np.conj(u).swapaxes(-1, -2), out=out)


class ArrayElement:
    """An element stored as one complex array over a space."""

    __slots__ = ()
    _field: str  # name of the attribute holding the array
    _ndim = 4  # axes of one element; leading axes before them make a stack

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

    def _single(self, what: str) -> np.ndarray:
        """The array of one element; a stack is refused with TensorShapeError."""
        if (array := self._array).ndim > self._ndim:
            shape = array.shape[: -self._ndim]
            raise TensorShapeError(f"{what} takes one element, not a stack of shape {shape}")
        return array

    def norm(self) -> float:
        """Euclidean (Frobenius) norm of one element's array (`_single`)."""
        return float(np.linalg.norm(self._single("norm").ravel()))

    def isclose(self, other, tol: float = 1e-9) -> bool:
        self._check(other)
        return bool(np.allclose(self._array, other._array, atol=tol, rtol=0.0))
