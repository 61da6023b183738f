"""Byte-level fuzz of the files the lab reads: a checkpoint, a PPM image, a PGM
mask and a dataset manifest, each cut at every offset and with random bytes
flipped.  Whatever the bytes, a reader returns or raises ParseError or
ConfigurationError naming the file; a manifest entry that disagrees with its
image files is named by its dataset directory and image id."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskpool_lab import detector, scenegen
from maskpool_lab.errors import ConfigurationError, ParseError

KINDS = ("checkpoint", "ppm", "pgm", "manifest")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """kind -> (bytes of a valid file, path the fuzzed bytes go to, reader)."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    records = scenegen.generate_dataset(2, 16, seed=1, size_range=(6, 10), objects_per_image=(1, 1))
    scenegen.save_dataset(records, list(scenegen.DEFAULT_CLASSES), data)
    cfg = detector.ModelConfig(image_size=16, channels=(2, 2, 2, 2))
    detector.save_checkpoint(detector.checkpoint_from_model(detector.build_model(cfg, seed=0),
                                                            seed=0, iterations=0), root / "model.mplb")
    valid = {"checkpoint": root / "model.mplb", "ppm": next(data.rglob("*.ppm")),
             "pgm": next(data.rglob("*.pgm")), "manifest": data / "manifest.json"}
    readers = {"checkpoint": detector.load_checkpoint, "ppm": scenegen.read_ppm,
               "pgm": scenegen.read_mask_pgm,
               "manifest": lambda p: scenegen.load_dataset(p).load_all()}
    # the fuzzed manifest sits beside the valid one, so its image paths resolve
    return {k: (p.read_bytes(), p.with_name("fuzzed" + p.suffix), readers[k]) for k, p in valid.items()}


def read_fuzzed(files, kind, data: bytes):
    _, path, read = files[kind]
    path.write_bytes(data)
    try:
        read(path)
    except (ParseError, ConfigurationError) as e:
        assert str(path.parent if kind == "manifest" else path) in str(e), e


@pytest.mark.parametrize("kind", KINDS)
def test_every_truncation_is_a_located_error(files, kind):
    valid = files[kind][0]
    for cut in range(len(valid)):
        read_fuzzed(files, kind, valid[:cut])


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=400)
@given(data=st.data())
def test_flipped_bytes_read_or_raise_a_located_error(files, kind, data):
    valid = bytearray(files[kind][0])
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(1, 255)),
                               min_size=1, max_size=4))
    for at, bits in flips:
        valid[at] ^= bits
    read_fuzzed(files, kind, bytes(valid))
