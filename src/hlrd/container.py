"""HLRD1 binary container for compressed hierarchical matrices.

Layout (all integers little-endian, all floats IEEE-754 binary64 LE):

    offset  size  field
    0       5     magic bytes "HLRD1"
    5       4     u32 meta length M
    9       M     UTF-8 JSON metadata: family spec, eps, builder, l_max
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

Writing is deterministic: identical HMatrix content produces identical
bytes.  The format is versioned through the magic string; readers reject
anything else.  The reader checks the header and both tables against the
file's size before it allocates the matrix, so a truncated or
inconsistent file raises ValueError.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .families import FAMILIES, FamilySpec
from .hmatrix import Builder, DensePiece, HMatrix, LowRankPiece, stack_pieces
from .partition import QuarterPlane, UnitSquare, build_scheme

__all__ = ["MAGIC", "load_hmatrix", "save_hmatrix"]

MAGIC = b"HLRD1"
_LR_ENTRY = struct.Struct("<iIIIIII")
_DN_ENTRY = struct.Struct("<BiIIIII")


def _records(entry: struct.Struct, names: tuple) -> np.dtype:
    """The numpy record type of a table entry, for reading whole tables at once."""
    codes = {"B": "u1", "i": "<i4", "I": "<u4"}
    return np.dtype(list(zip(names, (codes[c] for c in entry.format[1:]))))


_LR_TABLE = _records(_LR_ENTRY, ("level", "index", "rank", "row_lo", "row_hi", "col_lo", "col_hi"))
_DN_TABLE = _records(_DN_ENTRY, ("tag", "level", "index", "row_lo", "row_hi", "col_lo", "col_hi"))
_READ_BUFFER = 1 << 16
_TAGS = {"diagonal": 0, "rows": 1, "cols": 2}
_TAG_NAMES = {v: k for k, v in _TAGS.items()}


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


def save_hmatrix(h: HMatrix, path: Union[str, Path]) -> None:
    path = Path(path)
    meta = {
        "family_spec": _family_meta(h.spec),
        "eps": h.eps,
        "builder": h.builder.value,
        "l_max": h.scheme.l_max,
        "extent": h.scheme.extent,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    rows, cols = h.shape

    chunks = [MAGIC, struct.pack("<I", len(meta_bytes)), meta_bytes,
              struct.pack("<IIII", rows, cols, len(h.lowrank), len(h.dense))]
    for p in h.lowrank:
        chunks.append(_LR_ENTRY.pack(p.level, p.index, p.rank,
                                     p.row_lo, p.row_hi, p.col_lo, p.col_hi))
    for p in h.dense:
        lvl = p.level if p.level is not None else 0
        idx = p.index if p.index is not None else 0
        chunks.append(_DN_ENTRY.pack(_TAGS[p.tag], lvl, idx,
                                     p.row_lo, p.row_hi, p.col_lo, p.col_hi))
    for p in h.lowrank:
        chunks.append(np.ascontiguousarray(p.alpha, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(p.beta, dtype="<f8").tobytes())
    for p in h.dense:
        chunks.append(np.ascontiguousarray(p.values, dtype="<f8").tobytes())
    path.write_bytes(b"".join(chunks))


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


def _table(buf: bytes, off: int, dtype: np.dtype, count: int) -> np.ndarray:
    """A piece table as a (count, fields) int64 array."""
    records = np.frombuffer(buf, dtype=dtype, count=count, offset=off)
    return np.stack([records[name].astype(np.int64) for name in dtype.names], axis=1)


def _read_meta(buf: bytes):
    """(spec, domain, eps, builder) from the JSON metadata; ValueError when malformed."""
    meta = json.loads(buf.decode("utf-8"))
    try:
        spec = family_from_meta(meta["family_spec"])
        builder = Builder(meta["builder"])
        if meta["extent"] == 1.0:
            domain = UnitSquare(l_max=meta["l_max"])
        else:
            domain = QuarterPlane(extent=meta["extent"], l_max=meta["l_max"])
        return spec, domain, meta["eps"], builder
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed container metadata: {exc!r}") from exc


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
        spec, domain, eps, builder = _read_meta(meta[:meta_len])
        rows, cols, n_lr, n_dn = struct.unpack_from("<IIII", meta, meta_len)
        if spec.shape != (rows, cols):
            raise ValueError("container dimensions do not match its family spec")

        off = 9 + meta_len + 16
        lr_size, dn_size = _LR_ENTRY.size * n_lr, _DN_ENTRY.size * n_dn
        _need(size, off, lr_size + dn_size, "the piece tables")
        tables = _read(f, lr_size + dn_size)
        off += lr_size + dn_size
        lr = _table(tables, 0, _LR_TABLE, n_lr)
        dn = _table(tables, lr_size, _DN_TABLE, n_dn)
        lr_boxes, dn_boxes = lr[:, 3:], dn[:, 3:]
        for what, boxes in (("low-rank", lr_boxes), ("dense", dn_boxes)):
            bad = ((boxes[:, 0] > boxes[:, 1]) | (boxes[:, 1] > rows)
                   | (boxes[:, 2] > boxes[:, 3]) | (boxes[:, 3] > cols))
            if bad.any():
                n = int(np.argmax(bad))
                raise ValueError(f"{what} piece {n} has rows [{boxes[n, 0]},{boxes[n, 1]}) "
                                 f"cols [{boxes[n, 2]},{boxes[n, 3]}), outside a {rows}x{cols} "
                                 "matrix or reversed")
        bad_tag = dn[:, 0] > max(_TAG_NAMES)
        if bad_tag.any():
            raise ValueError(f"dense piece {int(np.argmax(bad_tag))} has an unknown tag")
        # Python integers: a corrupt rank times an extent can pass 2^63
        extents = (lr_boxes[:, 1] - lr_boxes[:, 0] + lr_boxes[:, 3] - lr_boxes[:, 2]).tolist()
        floats = (sum(r * e for r, e in zip(lr[:, 2].tolist(), extents))
                  + int(np.sum((dn_boxes[:, 1] - dn_boxes[:, 0])
                               * (dn_boxes[:, 3] - dn_boxes[:, 2]))))
        if size - off != 8 * floats:
            raise ValueError(f"container holds {size - off} payload bytes; "
                             f"its tables describe {8 * floats}")

        try:
            scheme = build_scheme(domain)
        except TypeError as exc:
            raise ValueError(f"malformed container metadata: {exc}") from exc
        layout, lr_views, dn_views = stack_pieces((rows, cols), lr[:, [0, 2, 3, 4, 5, 6]],
                                                  dn_boxes)
        lowrank = []
        for (level, index, _, r0, r1, c0, c1), (alpha, beta) in zip(lr.tolist(), lr_views):
            _read_into(f, alpha)
            _read_into(f, beta)
            lowrank.append(LowRankPiece(level, index, r0, r1, c0, c1, alpha, beta))
        dense = []
        for (tag, level, index, r0, r1, c0, c1), values in zip(dn.tolist(), dn_views):
            _read_into(f, values)
            name = _TAG_NAMES[tag]
            diagonal = name == "diagonal"
            dense.append(DensePiece(name, level if diagonal else None,
                                    index if diagonal else None, r0, r1, c0, c1, values))
    return HMatrix(spec=spec, scheme=scheme, eps=eps, builder=builder,
                   lowrank=lowrank, dense=dense, layout=layout)
