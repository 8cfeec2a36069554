import json

import numpy as np
import pytest
from numpy.lib.format import read_array, write_array

from fgn.serialize import read_records, write_records

UNPICKLED = []


def _trip():
    UNPICKLED.append("unpickled")


class Tripwire:
    """Unpickling one calls _trip."""

    def __reduce__(self):
        return _trip, ()


def test_records_roundtrip(tmp_path, rng):
    path = tmp_path / "m.bin"
    records = {
        "a/scalar": np.array(3.5),
        "b/vec": rng.standard_normal(7),
        "c/cube": rng.standard_normal((2, 3, 4)),
        "d/int64": rng.integers(-2**62, 2**62, size=5, dtype=np.int64),
        "e/uint8": rng.integers(0, 256, size=(3, 2), dtype=np.uint8),
        "f/float32": rng.standard_normal((4, 3)).astype(np.float32),
        "g/str": np.array('{"name": "模型", "format": 2}'),
        "h/empty": np.zeros((0, 50, 50)),
    }
    write_records(path, records)
    back = read_records(path)
    assert list(back) == list(records)
    for name, arr in records.items():
        assert back[name].dtype == arr.dtype
        assert back[name].shape == arr.shape
        assert np.array_equal(back[name], arr)


def _write_object_record(f) -> None:
    write_array(f, np.array(json.dumps(["obj"])))
    write_array(f, np.array([Tripwire()], dtype=object), allow_pickle=True)


def test_bad_magic_rejected(tmp_path, rng):
    path = tmp_path / "m.bin"
    write_records(path, {"w": rng.standard_normal((4, 4))})
    valid = path.read_bytes()
    # the retired format: magic, then one float64 record "w" of shape (1,)
    one = (1).to_bytes(4, "little")
    old_format = b"FGNMDL1" + one + b"w" + one * 2 + np.array([1.5]).tobytes()
    for content in (b"NOTFGN1" + b"\x00" * 32, b"", old_format, valid + b"\x00"):
        path.write_bytes(content)
        with pytest.raises(OSError, match="m.bin"):
            read_records(path)
    for write in (_write_object_record, lambda f: write_array(f, np.array(3.0))):
        with open(path, "wb") as f:
            write(f)
        with pytest.raises(OSError, match="m.bin"):
            read_records(path)
    assert UNPICKLED == []
    # the object record does hold a live pickle
    with open(path, "wb") as f:
        _write_object_record(f)
    with open(path, "rb") as f:
        read_array(f)
        read_array(f, allow_pickle=True)
    assert UNPICKLED == ["unpickled"]
    UNPICKLED.clear()


def test_truncated_payload_rejected(tmp_path, rng):
    path = tmp_path / "m.bin"
    write_records(path, {"w": rng.standard_normal((4, 4)), "n": np.arange(3),
                         "s": np.array("text")})
    blob = path.read_bytes()
    boundaries = [0]
    with open(path, "rb") as f:
        for _ in range(4):
            read_array(f)
            boundaries.append(f.tell())
    assert boundaries[-1] == len(blob)
    # every record boundary and one byte either side, short of the whole file
    for cut in sorted({b + d for b in boundaries for d in (-1, 0, 1)} & set(range(len(blob)))):
        path.write_bytes(blob[:cut])
        with pytest.raises(OSError):
            read_records(path)


def test_repeated_record_name_rejected(tmp_path):
    path = tmp_path / "m.bin"
    with open(path, "wb") as f:
        write_array(f, np.array(json.dumps(["a", "a"])))
        write_array(f, np.zeros(2))
        write_array(f, np.ones(3))
    with pytest.raises(OSError, match="m.bin.*repeated"):
        read_records(path)


def test_empty_record_set(tmp_path):
    path = tmp_path / "m.bin"
    write_records(path, {})
    assert read_records(path) == {}
