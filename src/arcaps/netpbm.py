"""Minimal binary PGM (P5) / PPM (P6) writer for reconstruction grids."""

import numpy as np

from .errors import InputDataError


def write_image(path, image01):
    """Write an array of [0,1] values as binary PGM when it is (rows, cols)
    or (rows, cols, 1), as binary PPM when it is (rows, cols, 3)."""
    arr = np.rint(np.clip(np.asarray(image01, dtype=np.float64), 0.0, 1.0) * 255.0)
    arr = arr.astype(np.uint8)
    if arr.ndim == 3 and arr.shape[2] in (1, 3):
        magic = "P5" if arr.shape[2] == 1 else "P6"
    elif arr.ndim == 2:
        magic = "P5"
    else:
        raise InputDataError(
            f"an image needs shape (rows, cols), (rows, cols, 1) or (rows, cols, 3), "
            f"got {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())
