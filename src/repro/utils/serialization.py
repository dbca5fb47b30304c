"""JSON (de)serialisation helpers that understand numpy scalars and arrays.

Two layers live here:

* :func:`save_json` / :func:`load_json` — plain pretty-printed JSON I/O that
  tolerates numpy scalars, arrays and dataclasses (arrays become lists, so
  dtype and shape are *not* preserved).
* :func:`encode_state` / :func:`decode_state` plus
  :func:`save_checkpoint` / :func:`load_checkpoint` — a lossless state
  round-trip used by the experiment checkpointing in
  :mod:`repro.experiments`.  Arrays keep their dtype and shape, and
  ``numpy.random.Generator`` objects keep their exact bit-generator state,
  so a restored search continues bit-identically (floats survive JSON
  because Python prints the shortest decimal string that round-trips).
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from repro.utils.files import atomic_write

_NDARRAY_KEY = "__ndarray__"
_RNG_KEY = "__np_generator__"


def json_safe(value: Any) -> Any:
    """Replace non-finite floats with ``None``, recursively.

    ``json.dumps`` would otherwise emit bare ``NaN``/``Infinity`` tokens
    (invalid per RFC 8259), which non-Python consumers of the machine-
    readable surfaces reject outright.  Accuracy is legitimately NaN for
    ``retrain_final=false`` runs, so this must be handled, not forbidden.
    Every document that leaves the process as JSON — ``report --format
    json``, the :mod:`repro.serve` HTTP bodies — runs through this (via
    :func:`dumps_strict`).
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


def dumps_strict(obj: Any, indent: Optional[int] = 2) -> str:
    """The one strict-RFC-8259 encoder for JSON that leaves the process.

    Non-finite floats are nulled first; ``allow_nan=False`` then guarantees
    the emitted document can never contain a bare ``NaN``/``Infinity``
    token.  The ``repro.api`` documents, the CLI ``--format json`` paths and
    every ``repro.serve`` response body all render through this function, so
    server and CLI outputs of the same document are byte-identical.
    """
    return json.dumps(json_safe(obj), indent=indent, allow_nan=False)


class _NumpyEncoder(json.JSONEncoder):
    """JSON encoder that converts numpy and dataclass values to plain Python."""

    def default(self, o: Any) -> Any:  # noqa: D102 - documented by json.JSONEncoder
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.floating):
            return float(o)
        if isinstance(o, np.bool_):
            return bool(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if dataclasses.is_dataclass(o) and not isinstance(o, type):
            return dataclasses.asdict(o)
        return super().default(o)


def save_json(obj: Any, path: Union[str, Path], compact: bool = False) -> Path:
    """Serialise ``obj`` to ``path`` as pretty-printed JSON and return the path.

    Written atomically (:func:`~repro.utils.files.atomic_write`): the work
    queue of :mod:`repro.experiments.sweep` treats the existence of
    ``result.json`` as the run's done marker, so a worker killed mid-write
    must never leave a truncated file behind.  ``compact=True`` drops the pretty-printing
    whitespace — used for machine-only files like the results browser's
    summary cache, where parse speed and size matter more than diffability.
    """
    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    return atomic_write(path, lambda handle: json.dump(obj, handle, cls=_NumpyEncoder, **layout))


def load_json(path: Union[str, Path]) -> Any:
    """Load JSON from ``path``."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Lossless state round-trip (checkpointing)
# ----------------------------------------------------------------------
def rng_state(rng: np.random.Generator) -> dict:
    """Capture the exact state of a numpy ``Generator`` as a JSON-safe dict.

    The bit-generator state is a nested dict of (arbitrarily large) Python
    integers, which JSON represents exactly.
    """
    return {_RNG_KEY: rng.bit_generator.state}


def restore_rng(
    state: Union[dict, np.random.Generator], into: Optional[np.random.Generator] = None
) -> np.random.Generator:
    """Rebuild (or restore in-place) a ``Generator`` from :func:`rng_state` output.

    ``state`` may also be another ``Generator`` (as produced by
    :func:`decode_state`), whose stream position is then copied.  Restoring
    in-place (``into``) is what checkpoint resume uses: every component that
    shares the generator object keeps drawing from the restored stream.
    """
    if isinstance(state, np.random.Generator):
        payload = state.bit_generator.state
    else:
        payload = state[_RNG_KEY] if _RNG_KEY in state else state
    if into is None:
        bit_generator_cls = getattr(np.random, payload["bit_generator"])
        into = np.random.Generator(bit_generator_cls())
    elif type(into.bit_generator).__name__ != payload["bit_generator"]:
        raise ValueError(
            f"cannot restore {payload['bit_generator']} state into a "
            f"{type(into.bit_generator).__name__} generator"
        )
    into.bit_generator.state = payload
    return into


def encode_state(obj: Any) -> Any:
    """Recursively convert a state object into a losslessly JSON-safe form.

    Arrays become ``{"__ndarray__": ..., "dtype": ..., "shape": ...}``
    records (dtype and shape preserved bit-exactly for the numeric dtypes
    this codebase uses); generators become their bit-generator state; numpy
    scalars become Python scalars.  Dict keys must be strings.
    """
    if isinstance(obj, np.ndarray):
        return {_NDARRAY_KEY: obj.tolist(), "dtype": str(obj.dtype), "shape": list(obj.shape)}
    if isinstance(obj, np.random.Generator):
        return rng_state(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"state dict keys must be strings, got {key!r}")
        return {key: encode_state(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_state(item) for item in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    # Fail here, at the offending value, rather than later inside json.dump
    # with no hint of which state entry was responsible.
    raise TypeError(
        f"cannot losslessly encode {type(obj).__name__!r} state; convert it to "
        f"plain scalars/dicts/arrays first (e.g. via as_dict())"
    )


def decode_state(obj: Any) -> Any:
    """Inverse of :func:`encode_state` (RNG records decode to fresh generators)."""
    if isinstance(obj, dict):
        if _NDARRAY_KEY in obj:
            return np.array(obj[_NDARRAY_KEY], dtype=np.dtype(obj["dtype"])).reshape(
                tuple(obj["shape"])
            )
        if _RNG_KEY in obj:
            return restore_rng(obj)
        return {key: decode_state(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [decode_state(item) for item in obj]
    return obj


def save_checkpoint(state: Any, path: Union[str, Path]) -> Path:
    """Encode ``state`` losslessly and write it to ``path`` as JSON.

    The file is written atomically (:func:`~repro.utils.files.atomic_write`),
    so a run killed mid-checkpoint never leaves a truncated checkpoint
    behind.
    """
    return atomic_write(path, lambda handle: json.dump(encode_state(state), handle))


def load_checkpoint(path: Union[str, Path]) -> Any:
    """Load and decode a checkpoint written by :func:`save_checkpoint`."""
    return decode_state(load_json(path))
