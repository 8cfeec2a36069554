"""Named-array files: a stream of .npy records.

The first record is a 0-d string holding the JSON list of record names; one
.npy record per name follows, in that order, each in its own dtype. There is
no zip layer and no checksum. Records are written with
numpy.lib.format.write_array and read back with read_array, both with
allow_pickle=False, so an object array is refused and never unpickled. Model
files and vector files are both made of these records.
"""

from __future__ import annotations

import json

import numpy as np
from numpy.lib.format import read_array, write_array


def write_records(path, records: dict) -> None:
    """Write name -> ndarray records in iteration order, each in its own dtype."""
    with open(path, "wb") as f:
        write_array(f, np.array(json.dumps(list(records))), allow_pickle=False)
        for arr in records.values():
            write_array(f, np.asarray(arr), allow_pickle=False)


def read_records(path) -> dict:
    """name -> ndarray; OSError when the file is not exactly a whole record stream."""
    with open(path, "rb") as f:
        try:
            head = read_array(f, allow_pickle=False)
            names = json.loads(head.item()) if head.dtype.kind == "U" and head.ndim == 0 else None
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ValueError("the first record is not a JSON list of record names")
            if len(set(names)) != len(names):
                raise ValueError("repeated record names")
            records = {name: read_array(f, allow_pickle=False) for name in names}
        except (ValueError, EOFError) as err:
            raise OSError("%s is not a record file: %s" % (path, err)) from None
        if f.read(1):
            raise OSError("%s has bytes after its last record" % path)
    return records
