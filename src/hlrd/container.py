"""HLRD1 binary container for compressed hierarchical matrices.

Layout (all integers little-endian, all floats IEEE-754 binary64 LE):

    offset  size  field
    0       5     magic bytes "HLRD1"
    5       4     u32 meta length M
    9       M     UTF-8 JSON metadata (strict, finite numbers only): family
                  spec, eps, builder, l_max, extent
    .       4     u32 rows
    .       4     u32 cols
    .       4     u32 number of low-rank pieces  NL
    .       4     u32 number of dense pieces     ND
    .       28*NL low-rank table: per piece
                    i32 level, u32 index, u32 rank,
                    u32 row_lo, u32 row_hi, u32 col_lo, u32 col_hi
    .       25*ND dense table: per piece
                    u8 tag (0 diagonal cell, 1 row strip, 2 column strip),
                    i32 level, u32 index   (level/index meaningful for tag 0,
                                            stored as 0 otherwise),
                    u32 row_lo, u32 row_hi, u32 col_lo, u32 col_hi
    .       ...   payloads, in table order: for each low-rank piece the
                  alpha factor (rows x rank, row-major f64) followed by the
                  beta factor (cols x rank, row-major f64); then for each
                  dense piece its values (row-major f64)

A low-rank record's box is its scheme block's (level, index) threshold
box, or the block's box at rank 0 when ``compress`` finds the threshold
box empty.  A dense record's box is its whole cell or strip.  The
reader ties no box to the scheme; it checks each box against the matrix.

Both tables are read and written whole, as numpy record arrays of this
layout (``hmatrix.LOWRANK_RECORD`` and ``hmatrix.DENSE_RECORD``), and an
``HMatrix`` keeps them as they are in the file.

Writing is deterministic: identical HMatrix content produces identical
bytes.  The format is versioned through the magic string; readers reject
anything else.  The reader checks the header and both tables against the
file's size before it allocates the matrix, so a truncated or
inconsistent file raises ValueError.  It reads metadata only in the form
the writer writes (``_meta_bytes``): the family and the partition check
their own fields, and metadata that does not encode back to the file's
bytes raises ValueError, so a container that loads re-saves byte for
byte.  An ``l_max`` finer than ``compress`` writes for the family at one
index per diagonal cell (``scheme_for(spec, leaf_size=1)``) raises
ValueError too, checked after the sizes: it forms the family's
coordinate grids.  Before that, a dense table with no piece raises:
every family has a singular row or column strip, which ``compress``
stores dense, so a header that names no dense piece (and no payload to
go with it) forms no grids.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .families import FAMILIES, FamilySpec
from .hmatrix import (DENSE_RECORD, DENSE_TAGS, LOWRANK_RECORD, Builder, HMatrix,
                      payload_arrays, scheme_for, stack_pieces, table_boxes, table_entries)
from .partition import PartitionScheme, QuarterPlane, build_scheme

__all__ = ["MAGIC", "load_hmatrix", "save_hmatrix"]

MAGIC = b"HLRD1"
_READ_BUFFER = 1 << 16


def _family_meta(spec: FamilySpec) -> dict:
    for name, cls in FAMILIES.items():
        if type(spec) is cls:
            return {"family": name, **dataclasses.asdict(spec)}
    raise TypeError(f"unsupported family {spec!r}")


def family_from_meta(meta: dict) -> FamilySpec:
    """The family spec that ``_family_meta`` wrote; ValueError on anything else."""
    fields = dict(meta)
    name = fields.pop("family", None)
    cls = FAMILIES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(f"unknown family tag {name!r}")
    expected = {f.name for f in dataclasses.fields(cls)}
    if set(fields) != expected:
        raise ValueError(f"{name} family metadata has fields {sorted(fields)}, "
                         f"expected {sorted(expected)}")
    return cls(**fields)


def _meta_bytes(spec: FamilySpec, eps: float, builder: Builder, scheme: PartitionScheme) -> bytes:
    """The JSON metadata as the writer encodes it; the loader accepts nothing else."""
    meta = {
        "family_spec": _family_meta(spec),
        "eps": eps,
        "builder": builder.value,
        "l_max": scheme.l_max,
        "extent": scheme.extent,
    }
    # strict JSON: a non-finite number raises rather than writing Infinity or NaN
    return json.dumps(meta, sort_keys=True, allow_nan=False).encode("utf-8")


def save_hmatrix(h: HMatrix, path: Union[str, Path]) -> None:
    path = Path(path)
    meta_bytes = _meta_bytes(h.spec, h.eps, h.builder, h.scheme)
    rows, cols = h.shape

    # one joined buffer and one write: a write per piece costs more than the copy
    path.write_bytes(b"".join([
        MAGIC, struct.pack("<I", len(meta_bytes)), meta_bytes,
        struct.pack("<IIII", rows, cols, len(h.lowrank), len(h.dense)),
        h.lowrank.tobytes(), h.dense.tobytes(),
        *payload_arrays(h.layout, h.lowrank, h.dense)]))


def _need(size: int, off: int, count: int, what: str) -> None:
    if off + count > size:
        raise ValueError(f"container truncated in {what}: needs {off + count} bytes, "
                         f"has {size}")


def _read(f, count: int) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise ValueError("container shorter than its size on disk: changed while read")
    return data


def _read_into(f, target: np.ndarray) -> None:
    """Fill a C-contiguous array with the next bytes of the file."""
    if f.readinto(target) != target.nbytes:
        raise ValueError("container shorter than its size on disk: changed while read")


def _read_meta(buf: bytes):
    """(spec, scheme, eps, builder) from the JSON metadata; ValueError when malformed.

    Metadata that ``_meta_bytes`` does not give back byte for byte is
    malformed too, so a loaded matrix re-saves to the bytes it was read from.
    """
    try:
        meta = json.loads(buf.decode("utf-8"))
    except RecursionError as exc:
        raise ValueError("container metadata nests too deeply") from exc
    try:
        spec = family_from_meta(meta["family_spec"])
        builder = Builder(meta["builder"])
        eps, domain = meta["eps"], QuarterPlane(extent=meta["extent"], l_max=meta["l_max"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed container metadata: {exc!r}") from exc
    # the eps that compress accepts; JSON true and false are Python ints
    if isinstance(eps, bool) or not isinstance(eps, (int, float)) or not 0.0 < eps < math.inf:
        raise ValueError(f"container eps {eps!r} is not a positive finite number")
    scheme = build_scheme(domain)
    if _meta_bytes(spec, eps, builder, scheme) != buf:
        raise ValueError("container metadata is not in the form the writer writes")
    return spec, scheme, eps, builder


def load_hmatrix(path: Union[str, Path]) -> HMatrix:
    """Read an HLRD1 container.

    The header and both tables are checked against the file's size before
    anything is allocated; the payload is then read straight into the
    matrix's stacks, piece by piece in file order.
    """
    # one buffer for the small pieces; readinto fills large ones directly
    with open(path, "rb", buffering=_READ_BUFFER) as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(9)
        if head[:5] != MAGIC:
            raise ValueError(f"not an HLRD1 container: bad magic {head[:5]!r}")
        _need(size, 0, 9, "the metadata length")
        (meta_len,) = struct.unpack_from("<I", head, 5)
        _need(size, 9, meta_len + 16, "the metadata and dimensions")
        meta = _read(f, meta_len + 16)
        spec, scheme, eps, builder = _read_meta(meta[:meta_len])
        rows, cols, n_lr, n_dn = struct.unpack_from("<IIII", meta, meta_len)
        if spec.shape != (rows, cols):
            raise ValueError("container dimensions do not match its family spec")

        off = 9 + meta_len + 16
        lr_size, dn_size = LOWRANK_RECORD.itemsize * n_lr, DENSE_RECORD.itemsize * n_dn
        _need(size, off, lr_size + dn_size, "the piece tables")
        tables = _read(f, lr_size + dn_size)
        off += lr_size + dn_size
        lowrank = np.frombuffer(tables, dtype=LOWRANK_RECORD, count=n_lr).copy()
        dense = np.frombuffer(tables, dtype=DENSE_RECORD, count=n_dn, offset=lr_size).copy()
        lr_boxes, dn_boxes = table_boxes(lowrank), table_boxes(dense)
        for what, boxes in (("low-rank", lr_boxes), ("dense", dn_boxes)):
            bad = ((boxes[:, 0] > boxes[:, 1]) | (boxes[:, 1] > rows)
                   | (boxes[:, 2] > boxes[:, 3]) | (boxes[:, 3] > cols))
            if bad.any():
                n = int(np.argmax(bad))
                raise ValueError(f"{what} piece {n} has rows [{boxes[n, 0]},{boxes[n, 1]}) "
                                 f"cols [{boxes[n, 2]},{boxes[n, 3]}), outside a {rows}x{cols} "
                                 "matrix or reversed")
        bad_tag = dense["tag"] >= len(DENSE_TAGS)
        if bad_tag.any():
            raise ValueError(f"dense piece {int(np.argmax(bad_tag))} has an unknown tag")
        floats = table_entries(lowrank, dense)
        if size - off != 8 * floats:
            raise ValueError(f"container holds {size - off} payload bytes; "
                             f"its tables describe {8 * floats}")
        # every family has a singular row or column, which compress stores as a
        # dense strip; checked before scheme_for, which for the Poisson and
        # chi-squared families forms both O(rows + cols) coordinate grids
        if n_dn == 0:
            raise ValueError("container names no dense piece: every family has a singular "
                             "strip, which compress stores dense")
        finest = scheme_for(spec, leaf_size=1).l_max
        if scheme.l_max > finest:
            raise ValueError(f"container l_max {scheme.l_max} is finer than the level "
                             f"{finest} that one index per diagonal cell gives its family")

        layout = stack_pieces((rows, cols), lowrank, dense)
        for target in payload_arrays(layout, lowrank, dense):
            _read_into(f, target)
    return HMatrix(spec=spec, scheme=scheme, eps=eps, builder=builder,
                   lowrank=lowrank, dense=dense, layout=layout)
