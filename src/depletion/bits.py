"""Byte-row helpers for the values and keys of the session layer.

A width-bit integer is a row of ⌈width/8⌉ big-endian bytes whose pad
bits are zero; rows compare, as opaque items, in the order of the
integers they hold. A row's bits are big-endian too (index 0 is the most
significant bit), one `np.unpackbits` away.
"""

from __future__ import annotations

import math

import numpy as np


def row_bytes(width: int) -> int:
    """Bytes in a row of a width-bit integer."""
    return (width + 7) // 8


def ints_to_rows(values, width: int) -> np.ndarray:
    """Rows (len(values), nbytes) of the ints `values`; raises ValueError
    unless every one lies in [0, 2^width)."""
    nbytes = row_bytes(width)
    try:
        if nbytes <= 8:
            words = np.asarray(values, dtype=np.uint64)  # a signed array wraps, so its sign is checked apart
            fits = np.min(values, initial=0) >= 0 and not int(words.max(initial=0)) >> width
            rows = words.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - nbytes :]
        else:
            blob = b"".join([int(v).to_bytes(nbytes, "big") for v in values])
            rows = np.frombuffer(blob, np.uint8).reshape(-1, nbytes)
            fits = not (rows[:, 0] > 0xFF >> (8 * nbytes - width)).any()
    except OverflowError:  # a Python int below 0, or too wide for its bytes
        fits = False
    if not fits:
        raise ValueError(f"a value does not fit in {width} bits")
    return rows


def rows_to_ints(rows: np.ndarray) -> list:
    """The ints that rows (..., nbytes) hold, as lists nested like rows.shape[:-1]."""
    nbytes = rows.shape[-1]
    if nbytes <= 8:
        words = np.zeros(rows.shape[:-1] + (8,), np.uint8)
        words[..., 8 - nbytes :] = rows
        return words.view(">u8")[..., 0].tolist()
    ints = np.empty(rows.shape[:-1], dtype=object)
    ints.reshape(-1)[:] = [int.from_bytes(r.tobytes(), "big") for r in rows.reshape(-1, nbytes)]
    return ints.tolist()


def rows_to_bits(rows: np.ndarray, width: int) -> np.ndarray:
    """The width big-endian bits of each row, (..., width) uint8."""
    return np.unpackbits(rows, axis=-1)[..., 8 * rows.shape[-1] - width :]


def random_rows(rng, shape: tuple[int, ...], width: int) -> np.ndarray:
    """Uniform width-bit rows of `shape`, from one `rng.bytes` call."""
    nbytes = row_bytes(width)
    raw = bytearray(rng.bytes(math.prod(shape) * nbytes))
    rows = np.frombuffer(raw, np.uint8).reshape(*shape, nbytes)
    rows[..., 0] &= 0xFF >> (8 * nbytes - width)
    return rows


def row_items(rows: np.ndarray) -> np.ndarray:
    """Rows (..., nbytes) as one opaque `V{nbytes}` item each, shape rows.shape[:-1]."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.shape[-1]}")[..., 0]


def tagged_items(rows: np.ndarray) -> np.ndarray:
    """Rows (groups, ..., nbytes) as opaque items, each prefixed with its
    group number, so that rows of different groups never compare equal."""
    tag = np.arange(len(rows), dtype=">u4").view(np.uint8).reshape(-1, *[1] * (rows.ndim - 2), 4)
    return row_items(np.concatenate([np.broadcast_to(tag, rows.shape[:-1] + (4,)), rows], axis=-1))


def repeat_flags(taken: np.ndarray, drawn: np.ndarray) -> np.ndarray:
    """Flags (groups, count) of the drawn rows (groups, count, nbytes) equal
    to a taken row or to an earlier drawn row of their group: one stable
    sort per group, then neighbours compared."""
    items = row_items(np.concatenate([taken, drawn], axis=1))
    order = np.argsort(items, axis=1, kind="stable")
    ranked = np.take_along_axis(items, order, axis=1)
    repeat = np.zeros(items.shape, bool)
    repeat[:, 1:] = ranked[:, 1:] == ranked[:, :-1]
    flags = np.empty_like(repeat)
    np.put_along_axis(flags, order, repeat, axis=1)
    return flags[:, taken.shape[1] :]


def distinct_counts(rows: np.ndarray) -> np.ndarray:
    """Distinct rows in each group of rows (groups, n, nbytes)."""
    ranked = np.sort(row_items(rows), axis=1)
    return (ranked[:, 1:] != ranked[:, :-1]).sum(axis=1) + (rows.shape[1] > 0)
