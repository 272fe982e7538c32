"""The gate kernel: operator application on flattened qubit tensors."""
from __future__ import annotations

import numpy as np


def apply_matrix(flat: np.ndarray, mat: np.ndarray, axes: tuple[int, ...], n_axes: int) -> None:
    """Apply a 2^k x 2^k matrix to the given axes of a flattened [2]*n_axes tensor, in place.

    ``axes[0]`` is the most-significant bit of the matrix index.  ``flat`` must
    be C-contiguous complex128 of length 2**n_axes.
    """
    k = len(axes)
    tensor = flat.reshape([2] * n_axes)
    # moveaxis gives a writable view; the reshape below copies, so scatter back.
    view = np.moveaxis(tensor, axes, range(n_axes - k, n_axes))
    res = view.reshape(-1, 2**k) @ mat.T
    view[...] = res.reshape(view.shape)
