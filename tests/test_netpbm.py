"""Binary netpbm output: header and pixel bytes per image shape."""

import numpy as np
import pytest

from arcaps.errors import InputDataError
from arcaps.netpbm import write_image


@pytest.mark.parametrize("shape", [(2, 3), (2, 3, 1)])
def test_grey_image_is_p5(tmp_path, shape):
    image = np.array([[0.0, 0.5, 1.0], [1.5, -1.0, 0.2]]).reshape(shape)
    path = tmp_path / "g.pgm"
    write_image(path, image)
    assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes([0, 128, 255, 255, 0, 51])


def test_rgb_image_is_p6(tmp_path):
    image = np.zeros((1, 2, 3))
    image[0, 0] = (1.0, 0.0, 0.2)
    image[0, 1] = (0.0, 0.5, 1.0)
    path = tmp_path / "c.ppm"
    write_image(path, image)
    assert path.read_bytes() == b"P6\n2 1\n255\n" + bytes([255, 0, 51, 0, 128, 255])


def test_two_channel_image_rejected(tmp_path):
    path = tmp_path / "x.ppm"
    with pytest.raises(InputDataError, match=r"\(2, 3, 2\)"):
        write_image(path, np.zeros((2, 3, 2)))
    assert not path.exists()
