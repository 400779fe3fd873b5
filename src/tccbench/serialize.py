"""Deterministic serialization of results and reports.

JSON output uses sorted keys and 17-significant-digit decimal reals
(lossless double round trip) rendered by a small built-in emitter, so
repeated runs with the same configuration are byte-identical. Every
document embeds the tool version and a sha256 hash of the generating
configuration.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, TextIO

import numpy as np

from . import __version__ as VERSION
from .determinants import AmplitudeVector, index_label
from .exact import CiVector, SpectralSummary

# CPython's built-in SHA-256 gives hashlib's digest without loading OpenSSL
# (about 3.5 MB and 4 ms); a build without built-in hashes takes hashlib's.
try:
    from _sha2 import sha256          # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256    # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

# the escapes JSON requires in a string: backslash, quote and U+0000-U+001F
_ESCAPES = {ord("\\"): "\\\\", ord('"'): '\\"', **{c: f"\\u{c:04x}" for c in range(0x20)}}


def format_float(x: float) -> str:
    """17 significant digits; exact round trip for doubles."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def _emit(obj: Any, parts: list[str], indent: int) -> None:
    """Append obj as JSON, each node turned into the dict, list or scalar it is written as."""
    if isinstance(obj, CiVector):
        obj = {"n_orbitals": obj.basis.n_orbitals, "n_electrons": obj.basis.n_electrons,
               "normalization": obj.normalization, "coefficients": obj.coefficients}
    elif isinstance(obj, SpectralSummary):
        obj = {"eigenvalues": [float(e) for e in obj.eigenvalues], "gap": float(obj.gap),
               "state_index": obj.state_index, "ground_energy": obj.ground_energy}
    elif isinstance(obj, AmplitudeVector):   # its fields, each index under its label
        obj = {**vars(obj), "entries": {index_label(mu): v for mu, v in obj.entries.items()}}
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    elif isinstance(obj, (np.ndarray, np.generic)):   # nested lists, Python scalars
        obj = obj.tolist()
    pad = "  " * indent
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        s = format_float(obj)
        # NaN/Infinity are not valid JSON literals; quote them
        parts.append(s if s[0] in "-0123456789" else f'"{s}"')
    elif isinstance(obj, str):
        parts.append('"' + obj.translate(_ESCAPES) + '"')
    elif isinstance(obj, (dict, list, tuple)):
        # (prefix, value) per member: dicts by sorted str(key), sequences in order
        if isinstance(obj, dict):
            obj = {str(k): v for k, v in obj.items()}
            items = [('"' + k.translate(_ESCAPES) + '": ', obj[k]) for k in sorted(obj)]
        else:
            items = [("", x) for x in obj]
        opening, closing = "{}" if isinstance(obj, dict) else "[]"
        if not items:
            parts.append(opening + closing)
            return
        parts.append(opening + "\n")
        for n, (prefix, x) in enumerate(items):
            parts.append(f"{pad}  {prefix}")
            _emit(x, parts, indent + 1)
            parts.append(",\n" if n + 1 < len(items) else "\n")
        parts.append(pad + closing)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    parts: list[str] = []
    _emit(obj, parts, 0)
    return "".join(parts) + "\n"


def config_hash(config: dict) -> str:
    return sha256(dumps(config).encode()).hexdigest()


def dump_document(payload: Any, config: dict, stream: TextIO) -> None:
    """Write a versioned, config-stamped JSON document."""
    stream.write(dumps({"version": VERSION, "config": config,
                        "config_sha256": config_hash(config), "payload": payload}))


# ---------------------------------------------------------------------------
# TSV exports
# ---------------------------------------------------------------------------

def _cell(x: Any) -> str:
    if isinstance(x, (float, np.floating)):
        return format_float(float(x))
    return str(x)


def write_tsv(header: list[str], rows: list[list], stream: TextIO) -> None:
    stream.write("\t".join(header) + "\n")
    for row in rows:
        stream.write("\t".join(_cell(x) for x in row) + "\n")


def write_history_tsv(history: list[tuple[int, float, float, float]],
                      stream: TextIO) -> None:
    write_tsv(["iteration", "residual_l2", "residual_vext_dual", "energy"],
              [list(h) for h in history], stream)


def write_profile_tsv(profile, stream: TextIO) -> None:
    """Mutual-information matrix with a per-orbital entropy column."""
    header = ["orbital", "s1"] + [f"I_{j}" for j in range(1, profile.n_orbitals + 1)]
    rows = [[i, s] + mi for i, (s, mi) in enumerate(zip(profile.s1.tolist(),
                                                         profile.mi.tolist()), start=1)]
    write_tsv(header, rows, stream)


def write_scaling_tsv(study, stream: TextIO) -> None:
    rows = [
        [r.descriptor, r.distance, r.energy_error, r.dual_distance,
         "yes" if r.used_in_fit else "no"]
        for r in study.rows
    ]
    write_tsv(["truncation", "distance_vext", "energy_error", "dual_distance_vext",
               "used_in_fit"], rows, stream)
    stream.write(f"# slope\t{format_float(study.slope)}\n")
