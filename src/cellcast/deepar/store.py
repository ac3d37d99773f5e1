"""Versioned binary model files.

Layout, all integers little-endian unsigned 64-bit:

    bytes 0..15   magic tag b"CELLCASTMODEL\\x00\\x00\\x00"
    bytes 16..23  format version
    bytes 24..31  header length in bytes
    header        UTF-8 JSON with sorted keys: train_config, lma_config
                  (or null), epoch_nll, and an array manifest of
                  {name, shape} entries in NetworkParams.arrays() order,
                  named by params.array_names
    payload       the manifest's arrays, concatenated as little-endian
                  float64 in C order

Nothing in the file depends on time or environment, so saving the same model
twice produces identical bytes, and a load followed by a save is a no-op at
the byte level.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .._fields import from_json, to_json
from ..lma import LmaConfig
from .params import NetworkParams, array_names
from .training import TrainConfig, TrainedModel

__all__ = ["MODEL_FORMAT_VERSION", "ModelStoreError", "load_model", "save_model"]

MAGIC = b"CELLCASTMODEL\x00\x00\x00"
MODEL_FORMAT_VERSION = 1


class ModelStoreError(ValueError):
    """Unreadable, corrupt, or version-incompatible model file."""


def save_model(model: TrainedModel, path: str) -> None:
    arrays = model.params.arrays()
    names = array_names(model.params.num_layers)
    lma = model.lma_config
    header = {
        "train_config": to_json(model.train_config),
        "lma_config": to_json(lma) if lma is not None else None,
        "epoch_nll": list(model.epoch_nll),
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in zip(names, arrays)],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", MODEL_FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _read_exact(fh, count: int, what: str) -> bytes:
    """count bytes, checked against what is left of the file before reading,
    so a corrupt length field cannot ask for an allocation the file cannot fill."""
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > remaining:
        raise ModelStoreError(
            f"truncated model file: {what} needs {count} bytes, {remaining} remain"
        )
    data = fh.read(count)
    if len(data) != count:
        raise ModelStoreError(f"truncated model file: short read in {what}")
    return data


def load_model(path: str) -> TrainedModel:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ModelStoreError(f"{path}: not a model file (bad magic tag)")
        (version,) = struct.unpack("<Q", _read_exact(fh, 8, "version field"))
        if version != MODEL_FORMAT_VERSION:
            raise ModelStoreError(
                f"{path}: unsupported model format version {version},"
                f" expected {MODEL_FORMAT_VERSION}"
            )
        (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, "header length"))
        try:
            header = json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelStoreError(f"{path}: corrupt header: {exc}") from exc
        try:
            train_config = from_json(TrainConfig, header["train_config"])
            lma_config = None
            if header["lma_config"] is not None:
                lma_config = from_json(LmaConfig, header["lma_config"])
            epoch_nll = tuple(float(v) for v in header["epoch_nll"])
            manifest = [(e["name"], tuple(int(d) for d in e["shape"])) for e in header["arrays"]]
            if any(d < 0 for _, shape in manifest for d in shape):
                raise ValueError("negative array dimension in manifest")
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelStoreError(f"{path}: corrupt header: {exc}") from exc
        arrays: dict[str, np.ndarray] = {}
        for name, shape in manifest:
            if name in arrays:
                raise ModelStoreError(f"{path}: corrupt model file: array {name} listed twice")
            raw = _read_exact(fh, math.prod(shape) * 8, f"array {name}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ModelStoreError(f"{path}: corrupt model file: trailing bytes")

    def take(name: str) -> np.ndarray:
        if name not in arrays:
            raise ValueError(f"array {name} missing from manifest")
        return arrays.pop(name)

    n_layers = 0
    while f"layer{n_layers}.wx" in arrays:
        n_layers += 1
    try:
        params = NetworkParams.from_arrays([take(name) for name in array_names(n_layers)])
        if arrays:
            raise ValueError(f"unexpected arrays in file: {sorted(arrays)}")
        return TrainedModel(params.freeze(), train_config, lma_config, epoch_nll)
    except ValueError as exc:
        raise ModelStoreError(f"{path}: corrupt model file: {exc}") from exc
