"""The image-to-tensor conversion the detector used to ship, kept as the
bitwise reference for ``detector.images_to_tensor``: three full-size float32
temporaries, then a transposed copy."""

import numpy as np


def images_to_tensor(images):
    x = np.asarray(images, dtype=np.float32) / 255.0 - 0.5
    return np.ascontiguousarray(x.transpose(0, 3, 1, 2))
