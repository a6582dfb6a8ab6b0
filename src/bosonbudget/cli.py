"""Command-line front end: configuration, matrix/sample I/O, report emission.

Every command writes a JSON report with a ``schemaVersion`` field (validated
against ``schema/report.schema.json``). All floats in matrix files are
rendered with 17 significant digits so a write/read/write cycle is
byte-identical, and every randomized command refuses to run without an
explicit seed: reproducibility is the point of the artifact.

Exit codes: 0 success, 1 usage error, 2 resource error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib.resources
import json
import math
import shutil
import sys
import time
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import limits
from .budget import evaluate_budget, scaling_table
from .distinguishability import Indistinguishability, JitterSourceSpec
from .errors import BosonBudgetError, DimensionError, NumericError, ResourceLimitError
from .fock import _occupations, _output_chunks, _output_rows, _pattern_count, _pattern_rows
from .ideal_sampler import _device_probs, _draw_indices, _ideal_probs
from .noise_model import DetectorModel, DeviceConfig, SourceModel, distance_parts, noise_bound, noise_bound_additive
from .permanent import STACK, permanent_ryser
from .random_ensembles import NetworkUnitary, haar_unitary, spawn_rngs
from .verify import row_norm_witness, suppression_test, unitarity_roundtrip

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


def _fmt(x: float) -> str:
    """17 significant digits: round-trips float64 exactly."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# matrix and sample file I/O


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"file {path} is not UTF-8 text: {exc}") from exc


def write_matrix_json(path: str | Path, matrix: np.ndarray) -> None:
    """Serialise a complex matrix as row-major [re, im] pairs."""
    m = np.asarray(matrix, dtype=np.complex128)
    rows = []
    for row in m:
        cells = ", ".join(f"[{_fmt(c.real)}, {_fmt(c.imag)}]" for c in row)
        rows.append(f"    [{cells}]")
    body = ",\n".join(rows)
    text = '{\n  "modes": %d,\n  "entries": [\n%s\n  ]\n}\n' % (m.shape[0], body)
    Path(path).write_text(text)


def read_matrix_json(path: str | Path) -> np.ndarray:
    text = _read_text(path)
    try:
        data = json.loads(text)
        modes = int(data["modes"])
        entries = data["entries"]
        if len(entries) != modes or any(len(r) != modes for r in entries):
            raise UsageError(f"matrix file {path} does not hold a {modes}x{modes} matrix")
        out = np.empty((modes, modes), dtype=np.complex128)
        for i, row in enumerate(entries):
            for j, (re, im) in enumerate(row):
                out[i, j] = complex(re, im)
    except UsageError:
        raise
    except KeyError as exc:
        raise UsageError(f"matrix file {path} has no {exc} field") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"matrix file {path} is malformed: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise NumericError(f"matrix file {path} has non-finite entries")
    return out


def write_matrix_csv(path: str | Path, matrix: np.ndarray) -> None:
    """CSV alternative: paired columns re_0, im_0, ..., one row per matrix row."""
    pairs = np.ascontiguousarray(matrix, dtype=np.complex128).view(np.float64)
    header = ",".join(f"re_{j},im_{j}" for j in range(len(pairs)))
    lines = [header] + [",".join(map(_fmt, row)) for row in pairs.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path: str | Path) -> np.ndarray:
    lines = _read_text(path).strip().splitlines()
    n = len(lines[0].split(",")) // 2 if lines else 0
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise UsageError(f"matrix file {path} is malformed: {exc}") from exc
    if n == 0 or len(rows) != n or any(len(vals) != 2 * n for vals in rows):
        raise UsageError(f"matrix file {path} does not hold a square matrix of re,im column pairs")
    out = np.array(rows).view(np.complex128)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"matrix file {path} has non-finite entries")
    return out


def write_samples(path: str | Path, patterns) -> None:
    """One click pattern per line as a 0/1 string; a file with no patterns holds one newline.

    ``patterns`` is a ``(count, modes)`` array of 0/1 entries, or anything
    ``np.asarray`` makes one of.
    """
    bits = np.asarray(patterns, dtype=np.uint8)
    if not len(bits):
        Path(path).write_bytes(b"\n")
        return
    text = np.full((len(bits), bits.shape[1] + 1), ord("\n"), dtype=np.uint8)
    np.add(bits, ord("0"), out=text[:, :-1])
    Path(path).write_bytes(text)  # the array's own buffer, not a copy


def read_samples(path: str | Path) -> np.ndarray:
    """The click patterns of a sample file as a ``(count, modes)`` uint8 array.

    Blank lines and whitespace around a pattern are ignored (``str.strip``),
    and any line break that ``str.splitlines`` knows is accepted. A line
    holding anything else than one 0/1 string is a usage error quoting the
    first such line; lines of different lengths are refused as patterns
    that cannot all match the mode count. A file with no patterns gives a
    ``(0, 0)`` array.
    """
    lines = [line for line in map(str.strip, _read_text(path).splitlines()) if line]
    # every UTF-8 byte of a character other than 0/1 wraps or stays above 1
    bits = np.frombuffer("".join(lines).encode(), dtype=np.uint8) - ord("0")
    if np.any(bits > 1):
        bad = next(line for line in lines if line.strip("01"))
        raise UsageError(f"sample line is not a 0/1 string: {bad!r}")
    if len(set(map(len, lines))) > 1:
        raise DimensionError("sample pattern length must equal the mode count")
    return bits.reshape(len(lines), len(lines[0]) if lines else 0)


# ---------------------------------------------------------------------------
# report envelope and schema validation


def load_schema() -> dict:
    text = importlib.resources.files("bosonbudget").joinpath("schema/report.schema.json").read_text()
    return json.loads(text)


def validate_report(report: dict, schema: dict | None = None) -> None:
    """Check the report against the published schema (small draft-07 subset)."""
    if schema is None:
        schema = load_schema()
    _validate_node(report, schema, "$")


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _validate_node(value, schema: dict, where: str) -> None:
    if "const" in schema and value != schema["const"]:
        raise ValueError(f"{where}: expected {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise ValueError(f"{where}: {value!r} not in {schema['enum']}")
    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        ok = any(
            isinstance(value, _TYPES[t]) and not (t in ("integer", "number") and isinstance(value, bool))
            for t in types
        )
        if not ok:
            raise ValueError(f"{where}: {type(value).__name__} does not match {types}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                raise ValueError(f"{where}: missing required key {key!r}")
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in value:
                _validate_node(value[key], sub, f"{where}.{key}")
        if schema.get("additionalProperties") is False:
            extra = set(value) - set(props)
            if extra:
                raise ValueError(f"{where}: unexpected keys {sorted(extra)}")


def _sanitize(obj):
    """Results in their report form: NaN becomes null and +-inf the strings "inf" and "-inf".

    Tuples become lists; every other value is kept as it is.
    """
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


def report_text(obj) -> str:
    """JSON text of ``obj`` with sorted keys and two-space indentation, and a final newline.

    The text is byte for byte what the standard library's ``json.dumps``
    gives with ``sort_keys=True``, that indentation and ``allow_nan=False``;
    dict keys must be strings. This writer lays out the non-empty lists,
    tuples and dicts itself and hands every other value, keys included, to
    ``json``'s own encoder, so a non-finite float raises ``ValueError`` and
    a value ``json`` cannot encode ``TypeError``. numpy arrays are leaves:
    a 1-D array of finite floats and a 2-D non-negative integer array are
    written from their elements, as the lists ``tolist()`` would give,
    without building those lists; other arrays go through ``tolist()``. A
    ``RowChunks`` is a leaf too, written as the list of its rows.
    The standard library's indented encoder runs in pure Python, element
    by element, which is what this writer avoids. ``emit_report`` writes
    the same pieces as they come instead of joining them.
    """
    out: list[str] = []
    _write_report(obj, out.append)
    return "".join(out)


class RowChunks:
    """A report leaf: a non-negative integer table that is written chunk by chunk and never held whole.

    ``chunks()`` gives the table's rows in order as 2-D integer arrays of
    at least one row and one column; it is called once per rendering.
    """

    __slots__ = ("chunks",)

    def __init__(self, chunks: Callable[[], Iterable[np.ndarray]]):
        self.chunks = chunks


_leaf = json.JSONEncoder(allow_nan=False).encode


def _write_report(obj, write: Callable[[str], object]) -> None:
    """Hand the report text of ``obj`` to ``write``, piece by piece."""
    _encode(obj, "\n", write)
    write("\n")


def _encode(obj, newline: str, write: Callable[[str], object]) -> None:
    # ``newline`` is a line break plus the indentation of the line that holds obj
    inner = newline + "  "
    if isinstance(obj, np.ndarray):
        _array_text(obj, newline, write)
    elif isinstance(obj, RowChunks):
        _table_text(obj.chunks(), newline, write)
    elif isinstance(obj, (list, tuple)) and obj:
        write("[")
        for i, item in enumerate(obj):
            write("," + inner if i else inner)
            _encode(item, inner, write)
        write(newline + "]")
    elif isinstance(obj, dict) and obj:
        write("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            write(("," if i else "") + inner + _leaf(key) + ": ")
            _encode(obj[key], inner, write)
        write(newline + "}")
    else:
        write(_leaf(obj))


def _array_text(a: np.ndarray, newline: str, write: Callable[[str], object]) -> None:
    # long leaves go out STACK elements or rows at a time, so no whole leaf's text is held
    inner = newline + "  "
    if a.ndim == 1 and a.dtype.kind == "f" and a.size and np.isfinite(a).all():
        sep = "," + inner
        for lo in range(0, a.size, STACK):
            write((sep if lo else "[" + inner) + sep.join(map(float.__repr__, a[lo : lo + STACK].tolist())))
        write(newline + "]")
    elif a.ndim == 2 and a.dtype.kind in "iu" and a.size and a.min() >= 0:
        _table_text((a[lo : lo + STACK] for lo in range(0, len(a), STACK)), newline, write)
    else:
        _encode(a.tolist(), newline, write)


def _table_text(chunks: Iterable[np.ndarray], newline: str, write: Callable[[str], object]) -> None:
    """A non-negative integer table, given as chunks of its rows, as the JSON list of those rows."""
    inner = newline + "  "
    row = inner + "  "
    empty = True
    for chunk in chunks:
        write(("[" if empty else ",") + inner + _int_table(chunk, "," + row, "[" + row, inner + "]", "," + inner))
        empty = False
    write("[]" if empty else newline + "]")


def _int_table(table: np.ndarray, sep: str, head: str = "", tail: str = "", row_sep: str = "\n") -> str:
    """A non-negative integer table as text, built as one byte array.

    Each row is its entries in decimal joined by ``sep``, between ``head``
    and ``tail``; rows are joined by ``row_sep``.
    """
    rows, cols = table.shape
    width = len(str(table.max()))
    # every entry gets a slot of `width` bytes; the zeros leading a shorter entry become NUL and are dropped
    layout = (head + sep.join(["\0" * width] * cols) + tail + row_sep).encode()
    text = np.tile(np.frombuffer(layout, dtype=np.uint8), rows)
    slots = as_strided(text[len(head) :], shape=(rows, cols, width), strides=(len(layout), width + len(sep), 1))
    q = table.astype(np.min_scalar_type(table.max()))
    for k in reversed(range(width)):
        q, digit = np.divmod(q, 10)
        digit += ord("0")
        slots[:, :, k] = digit if k == width - 1 else np.where(table >= 10 ** (width - 1 - k), digit, 0)
    text = text[: text.size - len(row_sep)]
    return (text[text != 0] if width > 1 else text).tobytes().decode("ascii")


def _report_fields(record) -> dict:
    """The fields of a result dataclass as report keys: each snake_case field name in camelCase."""
    out = {}
    for f in dataclasses.fields(record):
        head, *rest = f.name.split("_")
        out[head + "".join(word.capitalize() for word in rest)] = getattr(record, f.name)
    return out


def emit_report(command: str, args, results: dict, parameters: dict) -> dict:
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": command,
        "seed": args.seed,
        "parameters": _sanitize(parameters),
        "results": _sanitize(results),
    }
    validate_report(report)
    if not args.out:
        _write_report(report, sys.stdout.write)
        return report
    # the pieces go to the file as they come, so no report is held whole
    with open(args.out, "w") as f:
        _write_report(report, f.write)
    return report


# ---------------------------------------------------------------------------
# shared argument handling


# the options that several commands read; each command's parser declares the ones it reads
_OPTIONS = {
    "--modes": {"type": int, "help": "mode count M"},
    "--unitary": {"help": "path to a network matrix file (.json or .csv)"},
    "--sources": {"type": int, "dest": "sources", "help": "number of single-photon inputs N"},
    "--p0": {"type": float, "help": "source vacuum probability"},
    "--p1": {"type": float, "default": 1.0, "help": "source single-photon probability"},
    "--p2": {"type": float, "default": 0.0, "help": "source two-photon probability"},
    "--loss": {"type": float, "default": 0.0, "help": "per-photon detection loss probability"},
    "--dark": {"type": float, "default": 0.0, "help": "integral dark-count rate per detector"},
    "--g": {"help": "exchange overlaps: one value or comma list g_2..g_N"},
    "--format": {"choices": ("json", "csv"), "default": "json",
                 "help": "csv additionally writes plot-ready tables next to the report"},
    "--config": {"help": "JSON file with default values for the command's options"},
    "--seed": {"type": int, "help": "RNG seed (mandatory for stochastic commands)"},
    "--out": {"help": "report path (stdout when omitted)"},
}
_OPTIONS["--photons"] = _OPTIONS["--sources"]
_NETWORK = ("--modes", "--unitary")
_NOISE = ("--p0", "--p1", "--p2", "--loss", "--dark")


def _load_unitary(path: str) -> NetworkUnitary:
    m = read_matrix_csv(path) if path.endswith(".csv") else read_matrix_json(path)
    return NetworkUnitary.from_matrix(m, max_defect=1e-8)


def _resolve_unitary(args, rng=None) -> NetworkUnitary:
    """The network of ``--unitary``, or a Haar draw on ``--modes`` modes from ``rng`` (by default from ``--seed``)."""
    if args.unitary:
        if args.modes is not None:
            raise UsageError("--unitary and --modes are alternative networks: give one")
        return _load_unitary(args.unitary)
    if args.modes is None:
        raise UsageError("either --unitary or --modes is required")
    if args.seed is None:
        raise UsageError("--seed is mandatory: a random network must be drawn")
    return haar_unitary(args.modes, np.random.default_rng(args.seed) if rng is None else rng)


def _device_config(args) -> DeviceConfig:
    source = SourceModel.single_photon(args.p1, args.p2, args.p0)
    return DeviceConfig(_resolve_unitary(args), args.sources, source, DetectorModel(args.loss, args.dark))


def _indist(args, n: int) -> Indistinguishability:
    g = getattr(args, "g", None)
    fidelity = getattr(args, "fidelity", None)
    omega, tau = getattr(args, "sigma_omega", None), getattr(args, "sigma_tau", None)
    if (omega is None) != (tau is None):
        raise UsageError("--sigma-omega and --sigma-tau make one jitter model: give both or neither")
    models = [flag for flag, value in (("--g", g), ("--fidelity", fidelity), ("--sigma-omega/--sigma-tau", omega))
              if value is not None]
    if len(models) > 1:
        raise UsageError(f"{' and '.join(models)} are alternative overlap models: give one")
    if g is not None:
        vals = [float(x) for x in g.split(",")]
        if len(vals) == 1:
            return Indistinguishability.constant(vals[0], n)
        if n < 2:
            raise UsageError(f"--g takes a single value at N = {n}, got {len(vals)}")
        if len(vals) != n - 1:
            raise UsageError(f"--g needs one value or g_2..g_{n} ({n - 1} values)")
        return Indistinguishability(tuple(vals))
    if omega is not None:
        return Indistinguishability.from_jitter(JitterSourceSpec(omega, tau), max(n, 2))
    if fidelity is not None:
        # small-mismatch linearisation of the exchange overlaps
        orders = tuple(max(1.0 - k * (1.0 - fidelity), 0.0) for k in range(2, n + 1))
        return Indistinguishability(orders, avg_fidelity=fidelity)
    return Indistinguishability.perfect(n)


def _occupation_first_n(modes: int, n: int) -> tuple[int, ...]:
    if not 0 <= n <= modes:
        raise UsageError(f"the photon count (--sources or --photons) must be between 0 and the mode count "
                         f"{modes}, got {n}")
    return (1,) * n + (0,) * (modes - n)


# ---------------------------------------------------------------------------
# commands


def _side_file(args) -> Path | None:
    """The path of the ``--format csv`` table next to the ``--out`` report, or None when there is none.

    Refuses a report path that the table would overwrite: one that ends in ``.csv``.
    """
    if args.format != "csv" or not args.out:
        return None
    side = Path(args.out).with_suffix(".csv")
    if side == Path(args.out):
        raise UsageError(f"--format csv writes its table to {side}, the --out report path: give a report path "
                         f"that does not end in .csv")
    return side


def cmd_distribution(args) -> None:
    side = _side_file(args)
    u = _resolve_unitary(args)
    modes = u.modes
    n0 = _occupation_first_n(modes, args.sources)
    probs = _ideal_probs(u, n0)  # the one pass of permanents; refusals and numeric checks come before any output

    def tables():  # the occupation rows, made again for each file, STACK at a time
        return (_occupations(cols, modes) for cols in _output_chunks(modes, args.sources, STACK))

    if side:
        with open(side, "w") as f:
            f.write(",".join(f"n_{j}" for j in range(modes)) + ",prob")
            lo = 0
            for occ in tables():
                rows = _int_table(occ, ",").split("\n")
                f.write("".join(f"\n{o},{_fmt(p)}" for o, p in zip(rows, probs[lo : lo + len(occ)].tolist())))
                lo += len(occ)
            f.write("\n")
    results = {
        "outcomes": RowChunks(tables),
        "probs": probs,
        "totalMass": math.fsum(probs),
        "unitarityDefect": u.unitarity_defect,
    }
    emit_report("distribution", args, results, _network_params(args, modes))


def cmd_sample(args) -> None:
    if args.count < 0:
        raise UsageError(f"--count must be non-negative, got {args.count}")
    net_rng, rng = spawn_rngs(args.seed, 2)  # network draw and sampling own split streams
    u = _resolve_unitary(args, net_rng)
    modes = u.modes
    limits.check("sample_bits", args.count * modes, f"{args.count} samples of {modes} modes")
    n = args.sources
    n0 = _occupation_first_n(modes, n)
    # the draws are ranks of the rows of a lexicographic table, mapped to rows STACK at a time
    if args.population == "uniform":
        idx = rng.integers(0, _pattern_count(modes, n), args.count)  # the clicked modes: an N-subset of range(M)
        rows_of = _pattern_rows
    else:
        idx = _draw_indices(_device_probs(u, n0), args.count, rng)  # from the probabilities alone
        rows_of = _output_rows  # the mode of each photon
    patterns = np.zeros((args.count, modes), dtype=np.uint8)
    for lo in range(0, args.count, STACK):
        np.put_along_axis(patterns[lo : lo + STACK], rows_of(idx[lo : lo + STACK], modes, n), 1, axis=1)
    del idx
    write_samples(args.samples_out, patterns)
    click_counts = np.bincount(patterns.sum(axis=1, dtype=np.intp))
    results = {
        "count": args.count,
        "population": args.population,
        "samplesPath": args.samples_out,
        "clickCounts": {str(k): int(v) for k, v in enumerate(click_counts) if v},
    }
    emit_report("sample", args, results, _network_params(args, modes))


def cmd_distance(args) -> None:
    cfg = _device_config(args)
    parts = distance_parts(cfg)
    nb = noise_bound(cfg.n_sources, cfg.modes, cfg.source, cfg.detector)
    results = {
        "v1": parts.v1,
        "v2": parts.v2,
        "vb": parts.vb,
        "total": parts.v1 + parts.v2 + parts.vb,
        "noiseBound": nb.value,
        "noiseBoundAdditive": noise_bound_additive(cfg.n_sources, cfg.modes, cfg.source, cfg.detector),
        "truncatedSourceMass": cfg.source.truncated_mass,
    }
    emit_report("distance", args, results, _device_params(args, cfg.modes))


def cmd_budget(args) -> None:
    source = SourceModel.single_photon(args.p1, args.p2, args.p0)
    detector = DetectorModel(args.loss, args.dark)
    indist = _indist(args, args.sources)
    side = _side_file(args) if args.scaling else None  # a table is written only with a scaling table
    report = evaluate_budget(args.sources, args.modes, source, detector, indist,
                             args.epsilon, args.delta)
    results = _report_fields(report)
    if args.scaling:
        ns = [int(x) for x in args.scaling.split(",")]
        table = [_report_fields(r) for r in scaling_table(args.epsilon * args.delta, ns)]
        results["scalingTable"] = table
        if side:
            columns = [key for key in table[0] if key != "elementFidelity"]  # the numeric columns
            lines = [",".join(columns)]
            for row in table:
                lines.append(",".join(str(row[c]) if isinstance(row[c], int) else _fmt(row[c]) for c in columns))
            side.write_text("\n".join(lines) + "\n")
    emit_report("budget", args, results, {
        "nSources": args.sources, "modes": args.modes, "p0": args.p0, "p1": args.p1, "p2": args.p2,
        "loss": args.loss, "dark": args.dark, "epsilon": args.epsilon, "delta": args.delta,
        "g": args.g, "fidelity": args.fidelity, "sigmaOmega": args.sigma_omega, "sigmaTau": args.sigma_tau,
        "scaling": args.scaling,
    })


def cmd_witness(args) -> None:
    u = _load_unitary(args.unitary)
    samples = read_samples(args.samples)
    res = row_norm_witness(u, _occupation_first_n(u.modes, args.sources), samples)
    emit_report("verify", args, {"test": "witness", **_report_fields(res)},
                {"unitary": args.unitary, "samples": args.samples, "nSources": args.sources})


def cmd_roundtrip(args) -> None:
    cfg = _device_config(args)
    results = {"test": "roundtrip", "returnProbability": unitarity_roundtrip(cfg)}
    emit_report("verify", args, results, _device_params(args, cfg.modes))


def cmd_suppression(args) -> None:
    res = suppression_test(args.sources, _indist(args, args.sources))
    emit_report("verify", args, {"test": "suppression", **_report_fields(res)}, {"photons": args.sources, "g": args.g})


def cmd_bench(args) -> None:
    sizes = [int(x) for x in args.sizes.split(",")]
    if min(sizes) < 0:
        raise UsageError(f"--sizes must be non-negative, got {args.sizes}")
    rng = np.random.default_rng(args.seed)
    rows = []
    timings = []
    for n in sizes:
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        t0 = time.perf_counter()
        val = permanent_ryser(a)
        timings.append(f"bench n={n}: {(time.perf_counter() - t0) * 1e3:.3f} ms")
        rows.append({"n": n, "absPermanent": abs(val)})
    emit_report("bench", args, {"sizes": sizes, "values": rows}, {"sizes": args.sizes})
    # timings go to stderr only, so the report stays byte-identical across runs;
    # they follow the report, so a refused run writes only its error line
    print("\n".join(timings), file=sys.stderr)


def _network_params(args, modes: int) -> dict:
    return {"modes": modes, "nSources": args.sources, "unitary": args.unitary}


def _device_params(args, modes: int) -> dict:
    return {**_network_params(args, modes), "p0": args.p0, "p1": args.p1, "p2": args.p2, "loss": args.loss,
            "dark": args.dark}


# ---------------------------------------------------------------------------
# parser


def _write_error(kind: str, message: str) -> None:
    print(json.dumps({"error": {"kind": kind, "message": message}}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    commands: dict  # command function -> the parser of its options
    required: tuple = ()  # the options a command needs, given on the command line or in --config

    def __init__(self, **kwargs):
        # No abbreviations: a prefix of one option could pass for an option the command does not read.
        # The help width is looked up once per parser, not once per option as argparse does.
        width = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
        super().__init__(allow_abbrev=False, formatter_class=width, **kwargs)

    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        _write_error("usage", message)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser: one parser per command, and per ``verify --test``, holding the options it reads."""
    parser = _Parser(prog="bosonbudget", description=__doc__)
    parser.commands = {}
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name, func, help, *flags, required=()):
        # "--sources/--photons" declares one option under two names; main refuses a run without one in ``required``
        p = group.add_parser(name, help=help)
        for flag in (*flags, "--config", "--seed", "--out"):
            names = flag.split("/")
            p.add_argument(*names, **_OPTIONS[names[0]])
        p.set_defaults(func=func)
        p.required = required
        parser.commands[func] = p
        return p

    command(sub, "distribution", cmd_distribution, "exact ideal output distribution", *_NETWORK, "--photons",
            "--format", required=("--photons",))

    p = command(sub, "sample", cmd_sample, "draw seeded samples; writes a click-pattern file", *_NETWORK, "--sources",
                required=("--sources", "--count", "--samples-out", "--seed"))
    p.add_argument("--count", type=int)
    p.add_argument("--samples-out", help="output click-pattern file")
    p.add_argument("--population", choices=("device", "uniform"), default="device")

    command(sub, "distance", cmd_distance, "exact distance decomposition of a noisy device", *_NETWORK, "--sources",
            *_NOISE, required=("--sources",))

    p = command(sub, "budget", cmd_budget, "evaluate bounds, verdicts, and tolerances", "--modes", "--sources",
                *_NOISE, "--g", "--format", required=("--modes", "--sources", "--epsilon", "--delta"))
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--fidelity", type=float, help="mean pair fidelity (small-mismatch overlaps)")
    p.add_argument("--sigma-omega", type=float, help="spectral width of the jitter model")
    p.add_argument("--sigma-tau", type=float, help="arrival-time jitter of the jitter model")
    p.add_argument("--scaling", help="comma list of N values for the scaling table")

    verify = sub.add_parser("verify", help="witness, roundtrip, or suppression test")
    # each test is a parser of its own, which reads the arguments that follow its name
    tests = verify.add_argument("--test", action=argparse._SubParsersAction, required=True,
                                prog=f"{verify.prog} --test", parser_class=_Parser,
                                help="the test to run; its options follow its name")
    p = command(tests, "witness", cmd_witness, "row-norm witness on a click-pattern file", "--unitary",
                "--sources/--photons", required=("--unitary", "--sources", "--samples"))
    p.add_argument("--samples", help="click-pattern file")
    command(tests, "roundtrip", cmd_roundtrip, "unitarity round trip of a noisy device", *_NETWORK, "--sources",
            *_NOISE, required=("--sources",))
    command(tests, "suppression", cmd_suppression, "suppression law under partial distinguishability",
            "--photons/--sources", "--g", required=("--photons",))

    p = command(sub, "bench", cmd_bench, "time the permanent on seeded random matrices", required=("--seed",))
    p.add_argument("--sizes", default="2,4,8,12")
    return parser


def _config_defaults(path: str, parser: argparse.ArgumentParser) -> dict:
    """Option defaults read from the ``--config`` JSON object.

    A key is the name of one of the command's options without its leading
    dashes (``"samples-out"``); any other key, ``config`` included, is
    refused. Each value goes through its option's argparse ``type`` and
    ``choices``, as if it had been typed on the command line; a null value
    keeps the option's own default.
    """
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("--config must hold a JSON object")
    defaults = {}
    for key, value in data.items():
        action = parser._option_string_actions.get("--" + key)
        if action is None or action.dest in ("help", "config"):  # a config file names no other one
            raise UsageError(f"unknown config key {key!r}")
        if value is not None:
            defaults[action.dest] = _config_value(action, key, value)
    return defaults


def _config_value(action: argparse.Action, key: str, value):
    if isinstance(value, (dict, list)):
        raise UsageError(f"config key {key!r} must be a single value, got {value!r}")
    try:
        out = (action.type or str)(str(value))
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: {exc}") from exc
    if action.choices is not None and out not in action.choices:
        raise UsageError(f"config key {key!r} must be one of {sorted(action.choices)}, got {out!r}")
    return out


# (exception class, error kind, exit code); the first match wins
_ERRORS = (
    (ResourceLimitError, "resource", EXIT_RESOURCE),
    (NumericError, "numeric", EXIT_NUMERIC),
    ((BosonBudgetError, ValueError, OSError), "usage", EXIT_USAGE),
)


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every run without ``--config``, built on the first and never changed."""
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    command = parser.commands[args.func]
    try:
        if args.config:
            # the file supplies defaults, so the command line still wins; they go on a parser of this run's own
            parser = build_parser()
            command = parser.commands[args.func]
            command.set_defaults(**_config_defaults(args.config, command))
            args = parser.parse_args(argv)
        actions = command._option_string_actions
        missing = [flag for flag in command.required if getattr(args, actions[flag].dest) is None]
        if missing:
            raise UsageError(f"the following arguments are required: {', '.join(missing)}")
        args.func(args)
    except Exception as exc:
        for cls, kind, code in _ERRORS:
            if isinstance(exc, cls):
                _write_error(kind, str(exc))
                return code
        raise
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
