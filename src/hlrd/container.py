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
    .       29*ND dense table: per piece
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
anything else.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .families import FAMILIES, FamilySpec
from .hmatrix import Builder, DensePiece, HMatrix, LowRankPiece
from .partition import QuarterPlane, UnitSquare, build_scheme

__all__ = ["MAGIC", "load_hmatrix", "save_hmatrix"]

MAGIC = b"HLRD1"
_LR_ENTRY = struct.Struct("<iIIIIII")
_DN_ENTRY = struct.Struct("<BiIIIII")
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


def load_hmatrix(path: Union[str, Path]) -> HMatrix:
    buf = Path(path).read_bytes()
    if buf[:5] != MAGIC:
        raise ValueError(f"not an HLRD1 container: bad magic {buf[:5]!r}")
    off = 5
    (meta_len,) = struct.unpack_from("<I", buf, off)
    off += 4
    meta = json.loads(buf[off:off + meta_len].decode("utf-8"))
    off += meta_len
    rows, cols, n_lr, n_dn = struct.unpack_from("<IIII", buf, off)
    off += 16

    lr_head = []
    for _ in range(n_lr):
        lr_head.append(_LR_ENTRY.unpack_from(buf, off))
        off += _LR_ENTRY.size
    dn_head = []
    for _ in range(n_dn):
        dn_head.append(_DN_ENTRY.unpack_from(buf, off))
        off += _DN_ENTRY.size

    spec = family_from_meta(meta["family_spec"])
    if spec.shape != (rows, cols):
        raise ValueError("container dimensions do not match its family spec")
    if meta["extent"] == 1.0:
        scheme = build_scheme(UnitSquare(l_max=meta["l_max"]))
    else:
        scheme = build_scheme(QuarterPlane(extent=meta["extent"], l_max=meta["l_max"]))

    h = HMatrix(spec=spec, scheme=scheme, eps=meta["eps"], builder=Builder(meta["builder"]))
    for level, index, rank, r0, r1, c0, c1 in lr_head:
        na = (r1 - r0) * rank
        nb = (c1 - c0) * rank
        alpha = np.frombuffer(buf, dtype="<f8", count=na, offset=off).reshape(r1 - r0, rank)
        off += 8 * na
        beta = np.frombuffer(buf, dtype="<f8", count=nb, offset=off).reshape(c1 - c0, rank)
        off += 8 * nb
        h.lowrank.append(LowRankPiece(level, index, r0, r1, c0, c1,
                                      alpha.copy(), beta.copy()))
    for tag, level, index, r0, r1, c0, c1 in dn_head:
        nv = (r1 - r0) * (c1 - c0)
        values = np.frombuffer(buf, dtype="<f8", count=nv, offset=off).reshape(r1 - r0, c1 - c0)
        off += 8 * nv
        name = _TAG_NAMES[tag]
        h.dense.append(DensePiece(name,
                                  level if name == "diagonal" else None,
                                  index if name == "diagonal" else None,
                                  r0, r1, c0, c1, values.copy()))
    if off != len(buf):
        raise ValueError(f"container has {len(buf) - off} trailing bytes")
    return h
