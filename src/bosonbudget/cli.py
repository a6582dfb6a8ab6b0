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
import importlib.resources
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .budget import evaluate_budget, scaling_table
from .distinguishability import Indistinguishability, JitterSourceSpec
from .errors import BosonBudgetError, NumericError, ResourceLimitError
from .ideal_sampler import full_distribution, sample_ideal
from .noise_model import DetectorModel, DeviceConfig, SourceModel, distance_parts, noise_bound, noise_bound_additive
from .permanent import permanent_ryser
from .random_ensembles import NetworkUnitary, haar_unitary, spawn_rngs
from .verify import row_norm_witness, suppression_test, unitarity_roundtrip

SCHEMA_VERSION = "1"

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
    text = Path(path).read_text()
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
    m = np.asarray(matrix, dtype=np.complex128)
    n = m.shape[0]
    header = ",".join(f"re_{j},im_{j}" for j in range(n))
    lines = [header]
    for row in m:
        lines.append(",".join(f"{_fmt(c.real)},{_fmt(c.imag)}" for c in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path: str | Path) -> np.ndarray:
    lines = Path(path).read_text().strip().splitlines()
    n = len(lines[0].split(",")) // 2 if lines else 0
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if n == 0 or len(rows) != n or any(len(vals) != 2 * n for vals in rows):
        raise UsageError(f"matrix file {path} does not hold a square matrix of re,im column pairs")
    out = np.empty((n, n), dtype=np.complex128)
    for i, vals in enumerate(rows):
        out[i] = [complex(vals[2 * j], vals[2 * j + 1]) for j in range(n)]
    if not np.all(np.isfinite(out)):
        raise NumericError(f"matrix file {path} has non-finite entries")
    return out


def write_samples(path: str | Path, patterns) -> None:
    """One click pattern per line as a 0/1 string."""
    Path(path).write_text("\n".join("".join(str(int(b)) for b in p) for p in patterns) + "\n")


def read_samples(path: str | Path) -> list[tuple[int, ...]]:
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if any(c not in "01" for c in line):
            raise UsageError(f"sample line is not a 0/1 string: {line!r}")
        out.append(tuple(int(c) for c in line))
    return out


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
    """Make results JSON-safe and deterministic (no NaN/Inf, plain types)."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # a list of plain ints or finite floats is already JSON-safe
        kinds = set(map(type, obj))
        if kinds == {int} or (kinds == {float} and all(map(math.isfinite, obj))):
            return list(obj)
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    return obj


def emit_report(command: str, args, results: dict, parameters: dict) -> dict:
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": command,
        "seed": args.seed,
        "threads": args.threads,
        "parameters": _sanitize(parameters),
        "results": _sanitize(results),
    }
    validate_report(report)
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return report


# ---------------------------------------------------------------------------
# shared argument handling


def _device_args(p: argparse.ArgumentParser, photons_flag: bool = False) -> None:
    p.add_argument("--modes", type=int, help="mode count M")
    p.add_argument("--sources" if not photons_flag else "--photons", type=int, dest="sources",
                   help="number of single-photon inputs N")
    p.add_argument("--unitary", help="path to a network matrix file (.json or .csv)")
    p.add_argument("--p0", type=float, default=None, help="source vacuum probability")
    p.add_argument("--p1", type=float, default=1.0, help="source single-photon probability")
    p.add_argument("--p2", type=float, default=0.0, help="source two-photon probability")
    p.add_argument("--loss", type=float, default=0.0, help="per-photon detection loss probability")
    p.add_argument("--dark", type=float, default=0.0, help="integral dark-count rate per detector")


def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with default values for any option")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (mandatory for stochastic commands)")
    p.add_argument("--threads", type=int, default=1, help="worker cap (evaluation is deterministic for a fixed value)")
    p.add_argument("--out", help="report path (stdout when omitted)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv additionally writes plot-ready tables next to the report")


def _load_unitary(path: str) -> NetworkUnitary:
    m = read_matrix_csv(path) if path.endswith(".csv") else read_matrix_json(path)
    return NetworkUnitary.from_matrix(m, max_defect=1e-8)


def _resolve_unitary(args, rng_needed_msg: str) -> tuple[NetworkUnitary, np.random.Generator | None]:
    if args.unitary:
        return _load_unitary(args.unitary), _maybe_rng(args)
    if args.modes is None:
        raise UsageError("either --unitary or --modes is required")
    if args.seed is None:
        raise UsageError(f"--seed is mandatory: {rng_needed_msg}")
    rng = np.random.default_rng(args.seed)
    return haar_unitary(args.modes, rng), rng


def _maybe_rng(args) -> np.random.Generator | None:
    return np.random.default_rng(args.seed) if args.seed is not None else None


def _source_model(args) -> SourceModel:
    p0 = args.p0
    if p0 is None:
        p0 = max(1.0 - args.p1 - args.p2, 0.0)
    probs = (p0, args.p1) if args.p2 == 0.0 else (p0, args.p1, args.p2)
    return SourceModel(probs)


def _device_config(args, rng_msg: str) -> DeviceConfig:
    u, _ = _resolve_unitary(args, rng_msg)
    if args.sources is None:
        raise UsageError("--sources is required")
    return DeviceConfig(u, args.sources, _source_model(args), DetectorModel(args.loss, args.dark))


def _indist(args, n: int) -> Indistinguishability:
    if getattr(args, "g", None):
        vals = [float(x) for x in args.g.split(",")]
        if len(vals) == 1:
            return Indistinguishability.constant(vals[0], n)
        if len(vals) != max(n - 1, 1):
            raise UsageError(f"--g needs one value or g_2..g_{n} ({n - 1} values)")
        return Indistinguishability(tuple(vals))
    if getattr(args, "sigma_omega", None) is not None and getattr(args, "sigma_tau", None) is not None:
        spec = JitterSourceSpec(args.sigma_omega, args.sigma_tau)
        return Indistinguishability.from_jitter(spec, max(n, 2))
    if getattr(args, "fidelity", None) is not None:
        # small-mismatch linearisation of the exchange overlaps
        orders = tuple(max(1.0 - k * (1.0 - args.fidelity), 0.0) for k in range(2, n + 1))
        return Indistinguishability(orders, avg_fidelity=args.fidelity)
    return Indistinguishability.perfect(n)


def _occupation_first_n(modes: int, n: int) -> tuple[int, ...]:
    return (1,) * n + (0,) * (modes - n)


# ---------------------------------------------------------------------------
# commands


def cmd_distribution(args) -> None:
    u, _ = _resolve_unitary(args, "a random network must be drawn")
    modes = u.modes
    n = args.sources
    if n is None:
        raise UsageError("--photons is required")
    n0 = _occupation_first_n(modes, n)
    dist = full_distribution(u, n0)
    results = {
        "outcomes": [list(o) for o in dist.outcomes],
        "probs": dist.probs.tolist(),
        "totalMass": dist.total_mass,
        "unitarityDefect": u.unitarity_defect,
    }
    if args.format == "csv" and args.out:
        lines = [",".join(f"n_{j}" for j in range(modes)) + ",prob"]
        for o, p in zip(dist.outcomes, dist.probs):
            lines.append(",".join(str(x) for x in o) + "," + _fmt(p))
        Path(args.out).with_suffix(".csv").write_text("\n".join(lines) + "\n")
    emit_report("distribution", args, results, _device_params(args, modes))


def cmd_sample(args) -> None:
    if args.seed is None:
        raise UsageError("--seed is mandatory for sampling")
    if args.count < 0:
        raise UsageError(f"--count must be non-negative, got {args.count}")
    net_rng, rng = spawn_rngs(args.seed, 2)  # network draw and sampling own split streams
    if args.unitary:
        u = _load_unitary(args.unitary)
    elif args.modes is not None:
        u = haar_unitary(args.modes, net_rng)
    else:
        raise UsageError("either --unitary or --modes is required")
    modes = u.modes
    n = args.sources
    if n is None:
        raise UsageError("--sources is required")
    if not 0 <= n <= modes:
        raise UsageError(f"--sources must be between 0 and the mode count {modes}, got {n}")
    if args.population == "uniform":
        from .noise_model import collision_free_patterns

        pats = collision_free_patterns(modes, n)
        idx = rng.integers(0, len(pats), args.count)
        patterns = []
        for i in idx:
            p = [0] * modes
            for c in pats[i]:
                p[c] = 1
            patterns.append(tuple(p))
    else:
        dist = full_distribution(u, _occupation_first_n(modes, n))
        draws = sample_ideal(dist, args.count, rng)
        patterns = [tuple(1 if x else 0 for x in s) for s in draws]
    write_samples(args.samples_out, patterns)
    click_counts: dict[int, int] = {}
    for p in patterns:
        click_counts[sum(p)] = click_counts.get(sum(p), 0) + 1
    results = {
        "count": args.count,
        "population": args.population,
        "samplesPath": args.samples_out,
        "clickCounts": {str(k): v for k, v in sorted(click_counts.items())},
    }
    emit_report("sample", args, results, _device_params(args, modes))


def cmd_distance(args) -> None:
    cfg = _device_config(args, "a random network must be drawn")
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
    if args.sources is None or args.modes is None:
        raise UsageError("--sources and --modes are required")
    source = _source_model(args)
    detector = DetectorModel(args.loss, args.dark)
    indist = _indist(args, args.sources)
    report = evaluate_budget(args.sources, args.modes, source, detector, indist,
                             args.epsilon, args.delta)
    results = report.to_dict()
    if args.scaling:
        ns = [int(x) for x in args.scaling.split(",")]
        rows = scaling_table(args.epsilon * args.delta, ns)
        results["scalingTable"] = [r.to_dict() for r in rows]
        if args.format == "csv" and args.out:
            header = "nSources,requiredModes,maxDarkRate,maxLossProb,maxP1Deficit,maxFidelityDeficit"
            lines = [header]
            for r in rows:
                lines.append(
                    f"{r.n_sources},{r.required_modes},{_fmt(r.max_dark_rate)},"
                    f"{_fmt(r.max_loss_prob)},{_fmt(r.max_p1_deficit)},{_fmt(r.max_fidelity_deficit)}"
                )
            Path(args.out).with_suffix(".csv").write_text("\n".join(lines) + "\n")
    emit_report("budget", args, results, {
        "nSources": args.sources, "modes": args.modes, "p1": args.p1, "p2": args.p2,
        "loss": args.loss, "dark": args.dark, "epsilon": args.epsilon, "delta": args.delta,
    })


def cmd_verify(args) -> None:
    if args.test == "witness":
        if not args.unitary or not args.samples:
            raise UsageError("witness needs --unitary and --samples")
        u = _load_unitary(args.unitary)
        if args.sources is None:
            raise UsageError("--sources is required")
        samples = read_samples(args.samples)
        res = row_norm_witness(u, _occupation_first_n(u.modes, args.sources), samples)
        results = {
            "test": "witness",
            "sampleMean": res.sample_mean,
            "sampleSe": res.sample_se,
            "referenceUniform": res.reference_uniform,
            "referenceDevice": res.reference_device,
            "midpoint": res.midpoint,
            "decision": res.decision,
            "nUsed": res.n_used,
            "nRejected": res.n_rejected,
        }
        params = {"unitary": args.unitary, "samples": args.samples, "nSources": args.sources}
    elif args.test == "roundtrip":
        cfg = _device_config(args, "a random network must be drawn")
        results = {"test": "roundtrip", "returnProbability": unitarity_roundtrip(cfg)}
        params = _device_params(args, cfg.modes)
    elif args.test == "suppression":
        if args.sources is None:
            raise UsageError("--photons is required")
        indist = _indist(args, args.sources)
        res = suppression_test(args.sources, indist)
        results = {
            "test": "suppression",
            "suppressedMass": res.suppressed_mass,
            "lawViolations": res.law_violations,
            "nSuppressed": res.n_suppressed,
            "lawValid": res.law_valid,
        }
        params = {"photons": args.sources, "g": getattr(args, "g", None)}
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown test {args.test}")
    emit_report("verify", args, results, params)


def cmd_bench(args) -> None:
    if args.seed is None:
        raise UsageError("--seed is mandatory for bench")
    sizes = [int(x) for x in args.sizes.split(",")]
    rng = np.random.default_rng(args.seed)
    rows = []
    for n in sizes:
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        t0 = time.perf_counter()
        val = permanent_ryser(a)
        dt = time.perf_counter() - t0
        # timings go to stderr only, so the report stays byte-identical across runs
        print(f"bench n={n}: {dt * 1e3:.3f} ms", file=sys.stderr)
        rows.append({"n": n, "absPermanent": abs(val)})
    emit_report("bench", args, {"sizes": sizes, "values": rows}, {"sizes": args.sizes})


def _device_params(args, modes: int) -> dict:
    return {
        "modes": modes,
        "nSources": args.sources,
        "unitary": args.unitary,
        "p0": args.p0,
        "p1": getattr(args, "p1", None),
        "p2": getattr(args, "p2", None),
        "loss": getattr(args, "loss", None),
        "dark": getattr(args, "dark", None),
    }


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    commands: dict[str, argparse.ArgumentParser]  # subcommand name -> its parser

    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        print(json.dumps({"error": {"kind": "usage", "message": message}}), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bosonbudget", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distribution", parents=[], help="exact ideal output distribution")
    _device_args(p, photons_flag=True)
    _common_args(p)
    p.set_defaults(func=cmd_distribution)

    p = sub.add_parser("sample", help="draw seeded samples; writes a click-pattern file")
    _device_args(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--samples-out", required=True, help="output click-pattern file")
    p.add_argument("--population", choices=("device", "uniform"), default="device")
    _common_args(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("distance", help="exact distance decomposition of a noisy device")
    _device_args(p)
    _common_args(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("budget", help="evaluate bounds, verdicts, and tolerances")
    _device_args(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--g", help="exchange overlaps: one value or comma list g_2..g_N")
    p.add_argument("--fidelity", type=float, help="mean pair fidelity (small-mismatch overlaps)")
    p.add_argument("--sigma-omega", type=float, help="spectral width of the jitter model")
    p.add_argument("--sigma-tau", type=float, help="arrival-time jitter of the jitter model")
    p.add_argument("--scaling", help="comma list of N values for the scaling table")
    _common_args(p)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("verify", help="witness, roundtrip, or suppression test")
    p.add_argument("--test", choices=("witness", "roundtrip", "suppression"), required=True)
    _device_args(p, photons_flag=False)
    p.add_argument("--photons", type=int, dest="sources_alias",
                   help="alias for --sources (suppression test)")
    p.add_argument("--samples", help="click-pattern file for the witness test")
    p.add_argument("--g", help="exchange overlaps: one value or comma list")
    _common_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time the permanent on seeded random matrices")
    p.add_argument("--sizes", default="2,4,8,12")
    _common_args(p)
    p.set_defaults(func=cmd_bench)

    parser.commands = sub.choices
    return parser


def _apply_config(args, parser: argparse.ArgumentParser) -> None:
    """Fill options left unset from the ``--config`` JSON object.

    Each value goes through its option's argparse ``type`` and ``choices``,
    as if it had been typed on the command line.
    """
    if not getattr(args, "config", None):
        return
    data = json.loads(Path(args.config).read_text())
    if not isinstance(data, dict):
        raise UsageError("--config must hold a JSON object")
    actions = {a.dest: a for a in parser._actions}
    aliases = {"photons": "sources"}
    for key, value in data.items():
        attr = key.replace("-", "_")
        if attr not in actions:
            attr = aliases.get(attr, attr)
        if attr not in actions or not hasattr(args, attr):
            raise UsageError(f"unknown config key {key!r}")
        value = _config_value(actions[attr], key, value)
        if getattr(args, attr) in (None, False):
            setattr(args, attr, value)


def _config_value(action: argparse.Action, key: str, value):
    if value is None:
        return None
    if isinstance(value, (dict, list)):
        raise UsageError(f"config key {key!r} must be a single value, got {value!r}")
    try:
        out = (action.type or str)(str(value))
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: {exc}") from exc
    if action.choices is not None and out not in action.choices:
        raise UsageError(f"config key {key!r} must be one of {sorted(action.choices)}, got {out!r}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser.commands[args.command])
        if getattr(args, "sources", None) is None and getattr(args, "sources_alias", None) is not None:
            args.sources = args.sources_alias
        if args.threads < 1:
            raise UsageError("--threads must be at least 1")
        args.func(args)
        return EXIT_OK
    except (UsageError, FileNotFoundError) as exc:
        print(json.dumps({"error": {"kind": "usage", "message": str(exc)}}), file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(json.dumps({"error": {"kind": "resource", "message": str(exc)}}), file=sys.stderr)
        return EXIT_RESOURCE
    except NumericError as exc:
        print(json.dumps({"error": {"kind": "numeric", "message": str(exc)}}), file=sys.stderr)
        return EXIT_NUMERIC
    except (BosonBudgetError, ValueError) as exc:
        print(json.dumps({"error": {"kind": "usage", "message": str(exc)}}), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
