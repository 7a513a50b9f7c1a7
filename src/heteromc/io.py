"""File formats: observation CSV, layout JSON and raw binary arrays.

Observations persist as UTF-8 CSV with header ``v,i,j,y`` and one
observation per line: the 0-based source, row and column indices as decimal
integers and the value as any float64 literal (``nan`` and ``inf``
included).  The writer puts values in scientific notation with 17
significant digits, which round-trips float64 exactly.  The reader allows
spaces around fields, blank lines and CRLF line ends, and rejects ``_``
digit separators (which Python's ``int`` and ``float`` accept).  A line that
does not parse raises :class:`DataFormatError` ``"path: line N: ..."`` with
N the file's 1-based line number; the CLI exits 3 on it.
The layout sidecar is JSON with the block sizes and per-source family tags;
a key it does not know or a value of the wrong type is a DataFormatError.
Arrays persist as a JSON shape header next to raw little-endian float64
bytes; factor triples reuse the same container.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .data import BlockLayout, ObservationSet
from .families import ExpFamilyModel
from .jsonconf import from_json, to_json
from .lowrank import ThinFactors

OBS_HEADER = "v,i,j,y"


class DataFormatError(ValueError):
    """A data file failed to parse."""


def save_layout(path, layout: BlockLayout, families=None) -> None:
    doc = {**to_json(layout), "families": to_json(families) if families else None}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_layout(path) -> tuple[BlockLayout, tuple[ExpFamilyModel, ...] | None]:
    try:
        doc = dict(json.loads(Path(path).read_text(encoding="utf-8")))
        families = from_json(tuple[ExpFamilyModel, ...] | None, doc.pop("families", None),
                             "layout", "families")
        return from_json(BlockLayout, doc, "layout"), families
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: invalid layout file ({exc})") from exc


def save_observations(path, obs: ObservationSet) -> None:
    # Python ints and floats format far faster than numpy scalars; fixed
    # row chunks keep the text held in memory small
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(OBS_HEADER + "\n")
        for start in range(0, obs.n, 16384):
            rows = slice(start, start + 16384)
            fh.write("".join(map("{},{},{},{:.17e}\n".format, obs.v[rows].tolist(),
                                 obs.i[rows].tolist(), obs.j[rows].tolist(),
                                 obs.y[rows].tolist())))


def _parse_rows(lines) -> np.ndarray:
    """Structured ``v, i, j, y`` rows of nonblank data lines, parsed by numpy's
    C tokenizer; no lines give no rows (numpy would warn on them)."""
    dtype = [("v", "<i8"), ("i", "<i8"), ("j", "<i8"), ("y", "<f8")]
    lines = iter(lines)
    first = next(lines, None)
    if first is None:
        return np.empty(0, dtype=dtype)
    return np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None,
                      ndmin=1, dtype=dtype)


def _bad_line(path) -> str | None:
    """``"line N: fault"`` for the first data line that does not parse, N
    1-based in the file, or None when every line parses on its own.

    Runs only after a parse has failed: it reparses the nonblank lines in
    chunks and then, inside the first failing chunk, one line at a time.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = [(num, line) for num, line in enumerate(fh, start=1)
                 if num > 1 and not line.isspace()]
    for start in range(0, len(lines), 4096):
        chunk = lines[start:start + 4096]
        try:
            _parse_rows(line for _, line in chunk)
        except ValueError:
            for num, line in chunk:
                if (count := len(line.split(","))) != 4:
                    return f"line {num}: expected 4 fields, got {count}"
                try:
                    _parse_rows([line])
                except ValueError:
                    return (f"line {num}: expected decimal integers v,i,j and a float y, "
                            f"got {line.strip()!r}")
    return None


def load_observations(path, layout: BlockLayout, families=None) -> ObservationSet:
    # undecodable bytes become lone surrogates, which no field parses, so a
    # file that is not UTF-8 fails on the line that holds them
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        if fh.readline().strip() != OBS_HEADER:
            raise DataFormatError(f"{path}: line 1: expected header {OBS_HEADER!r}")
        try:
            rows = _parse_rows(line for line in fh if not line.isspace())
        except ValueError as exc:
            raise DataFormatError(f"{path}: {_bad_line(path) or exc}") from exc
    try:
        return ObservationSet(layout, rows["v"], rows["i"], rows["j"], rows["y"], families)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def save_arrays(prefix, arrays: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays as ``prefix.json`` + ``prefix.bin``."""
    prefix = Path(prefix)
    header = {"dtype": "<f8", "order": "C", "arrays": []}
    blob = bytearray()
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(np.asarray(arr, dtype="<f8"))
        header["arrays"].append({"name": name, "shape": list(arr.shape)})
        blob.extend(arr.tobytes())
    prefix.with_suffix(".json").write_text(json.dumps(header, indent=2) + "\n",
                                           encoding="utf-8")
    prefix.with_suffix(".bin").write_bytes(bytes(blob))


def load_arrays(prefix) -> dict[str, np.ndarray]:
    prefix = Path(prefix)
    try:
        header = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
        blob = prefix.with_suffix(".bin").read_bytes()
        out = {}
        offset = 0
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(blob, dtype=header["dtype"], count=count,
                                offset=offset).reshape(shape)
            out[entry["name"]] = arr.copy()
            offset += count * 8
        return out
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{prefix}: invalid array container ({exc})") from exc


def save_factors(prefix, factors: ThinFactors) -> None:
    save_arrays(prefix, {"u": factors.u, "sigma": factors.sigma, "v": factors.v})


def load_factors(prefix) -> ThinFactors:
    arrays = load_arrays(prefix)
    try:
        return ThinFactors(arrays["u"], arrays["sigma"], arrays["v"])
    except KeyError as exc:
        raise DataFormatError(f"{prefix}: missing factor array {exc}") from exc
