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

``load_model`` is the one builder of a model from outside data, so it makes
every check the records themselves do not: before it stacks the arrays into
a ``NetworkParams`` it checks that the manifest names each array once, at
least one layer, the configs' layer count, shapes that chain at the configs'
hidden size, finite values, and an LMA recipe whose horizon and channel
count describe the network.  Each failure is one ModelStoreError naming the
field.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .._fields import check_list, from_json, to_json
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
            epoch_nll = tuple(float(v) for v in check_list(header["epoch_nll"], "float", "epoch_nll"))
            listed = [e["name"] for e in header["arrays"]]
            for name in listed:
                if not isinstance(name, str):
                    raise ValueError(f"array names must be strings, got {name!r}")
            manifest = [
                (name, check_list(e["shape"], "int", f"shape of {name}"))
                for name, e in zip(listed, header["arrays"])
            ]
            if any(d < 0 for _, shape in manifest for d in shape):
                raise ValueError("negative array dimension in manifest")
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelStoreError(f"{path}: corrupt header: {exc}") from exc
        arrays: dict[str, np.ndarray] = {}
        for name, shape in manifest:
            if name in arrays:
                raise ModelStoreError(f"{path}: corrupt model file: array {name} listed twice")
            raw = _read_exact(fh, math.prod(shape) * 8, f"array {name}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
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
        names = array_names(max(n_layers, 1))  # no layer: layer0.wx is missing
        values = [take(name) for name in names]
        if arrays:
            raise ValueError(f"unexpected arrays in file: {sorted(arrays)}")
        _check_network(names, values, train_config, lma_config)
    except ValueError as exc:
        raise ModelStoreError(f"{path}: corrupt model file: {exc}") from exc
    params = NetworkParams.from_arrays(values).freeze()
    return TrainedModel(params, train_config, lma_config, epoch_nll)


def _check_network(
    names: list[str], values: list[np.ndarray], cfg: TrainConfig, lma: LmaConfig | None
) -> None:
    """Check a file's arrays, in ``NetworkParams.arrays()`` order, against
    the configs before they are stacked; each fault is a ValueError naming
    the field."""
    n_layers = len(values) // 3
    if n_layers != cfg.num_layers:
        raise ValueError(f"network has num_layers {n_layers} but train_config says {cfg.num_layers}")
    if values[0].ndim != 2 or values[0].shape[1] < 1:
        raise ValueError(
            f"array layer0.wx must be 2-D with at least one column, got shape {list(values[0].shape)}"
        )
    h, n_inputs = cfg.hidden_size, values[0].shape[1]
    upper = [(4 * h, h), (4 * h, h), (4 * h,)]
    shapes = [(4 * h, n_inputs), *upper[1:], *upper * (n_layers - 1), (2, h), (2,)]
    for name, a, shape in zip(names, values, shapes):
        if a.shape != shape:
            raise ValueError(
                f"array {name} has shape {list(a.shape)}, but train_config hidden_size {h}"
                f" needs {list(shape)}"
            )
        if not np.all(np.isfinite(a)):
            raise ValueError(f"non-finite values in array {name}")
    if lma is not None:
        if lma.horizon != cfg.horizon:
            raise ValueError(f"lma_config horizon {lma.horizon} != train_config horizon {cfg.horizon}")
        stated = len(lma.features) + cfg.day_of_week
        if n_inputs - 1 != stated:
            raise ValueError(
                f"network takes {n_inputs - 1} covariate channels but lma_config"
                f" features {list(lma.features)} and train_config day_of_week"
                f" {cfg.day_of_week} give {stated}"
            )
