"""The benchmark's workloads: inputs, op cycles, output checks, oracles.

An op is one in-process call of ``bosonbudget.cli.main(argv)`` with ``--out``
pointing at a scratch file and the argv a user would type; the one exception
is ``pattern_prob``, which calls the public ``bosonbudget.prob_ideal``. Every
op's ``--seed`` is derived from the workload seed and the op index. Each
workload is a fixed cycle of ops whose cost does not depend on the seed: the
seed changes the numbers, never the sizes, so runs with different seeds
measure the same amount of work.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written up in ``README.md`` next to this file.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Callable

import numpy as np

import bosonbudget
from bosonbudget import cli
from bosonbudget.distinguishability import (
    Indistinguishability,
    arrangement_count,
    cycle_counts,
    permutation_overlap,
)
from bosonbudget.fock import count_outputs, mode_indices, mu
from bosonbudget.noise_model import DetectorModel, DeviceConfig, SourceModel, output_click_distribution
from bosonbudget.permanent import permanent_naive
from bosonbudget.random_ensembles import NetworkUnitary, haar_unitary

ORACLE_RTOL = 1e-9

# Source/detector flags of the C06-shaped sweep, and of the multi-photon variant.
SWEEP_FLAGS = ("--p0", "0.02", "--p1", "0.98", "--loss", "0.01", "--dark", "1e-4")
MULTI_FLAGS = ("--p1", "0.97", "--p2", "0.01", "--loss", "0.01", "--dark", "1e-4")


def op_seed(seed: int, index: int) -> int:
    """The --seed of op ``index``: a pure function of the workload seed and the index."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0]) & 0x7FFFFFFF


@dataclass
class Op:
    """One closed-loop operation.

    ``run`` performs the op and returns its value (an exit code for CLI ops).
    ``check`` turns that value into an error message, or None when the
    output is correct. ``outputs`` are the files the op writes, compared
    byte for byte between the untraced and the traced run.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    outputs: tuple[Path, ...] = ()
    work: int = 0  # patterns swept or outcomes tabulated, for the rate metrics


@dataclass
class Plan:
    """A prepared workload: ``cycle(i)`` builds the ops of one pass, numbered from i.

    The traced run runs exactly ``trace_cycles`` cycles, so that its counts
    and self times cover a fixed amount of work however fast the program is.
    """

    cycle: Callable[[int], list[Op]]
    oracle: Callable[[], list[str]]
    trace_cycles: int


@functools.cache
def _schema() -> dict:
    return cli.load_schema()


def read_report(path: Path) -> dict:
    """Load a report and validate it against the shipped schema."""
    report = json.loads(Path(path).read_text())
    cli.validate_report(report, _schema())
    return report


def cli_op(kind: str, argv: list, out: Path, check: Callable[[dict], str | None],
           extra_outputs: tuple[Path, ...] = (), work: int = 0) -> Op:
    argv = [str(a) for a in argv] + ["--out", str(out)]

    def checked(rc) -> str | None:
        if rc != 0:
            return f"{kind}: exit code {rc}"
        try:
            report = read_report(out)
        except (OSError, ValueError) as exc:
            return f"{kind}: bad report: {exc}"
        return check(report["results"])

    return Op(kind, lambda: cli.main(argv), checked, (out,) + tuple(extra_outputs), work)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ORACLE_RTOL * abs(b)


# ---------------------------------------------------------------------------
# output checks


def check_distance(res: dict) -> str | None:
    parts = [res.get(k) for k in ("v1", "v2", "vb")]
    if not all(isinstance(v, (int, float)) and v >= 0.0 for v in parts):
        return f"distance: negative or missing part in {parts}"
    if not res["total"] <= 2.0:
        return f"distance: total {res['total']} above 2"
    return None


def check_table(res: dict) -> str | None:
    if not abs(res["totalMass"] - 1.0) <= 1e-9:
        return f"distribution: totalMass {res['totalMass']!r} not within 1e-9 of 1"
    return None


def check_witness(expected: str) -> Callable[[dict], str | None]:
    def check(res: dict) -> str | None:
        if res["decision"] != expected:
            return f"witness: decision {res['decision']!r}, expected {expected!r}"
        return None
    return check


def check_suppression(res: dict) -> str | None:
    return None if res["lawValid"] is True else f"suppression: lawValid is {res['lawValid']!r}"


def check_roundtrip(res: dict) -> str | None:
    p = res["returnProbability"]
    return None if 0.0 < p <= 1.0 else f"roundtrip: probability {p!r} outside (0, 1]"


def check_budget(res: dict) -> str | None:
    for key in ("noiseBound", "mismatchBound"):
        v = res.get(key)
        if not (isinstance(v, (int, float)) and v >= 0.0 and math.isfinite(v)):
            return f"budget: {key} is {v!r}"
    return None


def check_samples(count: int, clicks: int | None) -> Callable[[dict], str | None]:
    def check(res: dict) -> str | None:
        got = res["clickCounts"]
        if sum(got.values()) != count:
            return f"sample: {sum(got.values())} samples, expected {count}"
        if clicks is not None and got != {str(clicks): count}:
            return f"sample: uniform population has click counts {got}"
        return None
    return check


# ---------------------------------------------------------------------------
# slow-oracle comparisons (outside the timed loop)


def distance_oracle(work: Path, rng: np.random.Generator, modes: int, n: int,
                    flags: tuple[str, ...], source: SourceModel, detector: DetectorModel) -> list[str]:
    """`distance` on a small network against the literal triple sum."""
    net = work / "oracle_network.json"
    out = work / "oracle_distance.json"
    cli.write_matrix_json(net, haar_unitary(modes, rng).matrix)
    rc = cli.main(["distance", "--unitary", str(net), "--sources", str(n), *flags, "--out", str(out)])
    if rc != 0:
        return [f"oracle distance: exit code {rc}"]
    got = read_report(out)["results"]

    u = NetworkUnitary.from_matrix(cli.read_matrix_json(net), max_defect=1e-8)
    real = output_click_distribution(DeviceConfig(u, n, source, detector)).as_dict()
    ideal = output_click_distribution(DeviceConfig.ideal(u, n)).as_dict()
    v1 = math.fsum(p for m, p in real.items() if sum(m) != n)
    v2 = math.fsum(abs(p - ideal[m]) for m, p in real.items() if sum(m) == n)
    vb = 1.0 - math.fsum(p for m, p in ideal.items() if sum(m) == n)
    errors = []
    for key, want in (("v1", v1), ("v2", v2), ("vb", vb)):
        if not _close(got[key], want):
            errors.append(f"oracle distance {key}: {got[key]!r} vs output_click_distribution {want!r}")
    return errors


# ---------------------------------------------------------------------------
# workloads


def ensemble_sweep(work: Path, seed: int, tiny: bool) -> Plan:
    modes, n = (12, 3) if tiny else (180, 3)
    patterns = math.comb(modes, n)
    grid = budget_grid(seed, tiny)

    def cycle(i: int) -> list[Op]:
        argv = ["distance", "--modes", modes, "--sources", n, "--seed", op_seed(seed, i), *SWEEP_FLAGS]
        return [cli_op("distance", argv, work / "distance.json", check_distance, work=patterns)] + [
            cli_op("budget", q + ["--seed", op_seed(seed, i + 1 + j)], work / "budget.json", check_budget)
            for j, q in enumerate(grid)]

    def oracle() -> list[str]:
        return distance_oracle(work, np.random.default_rng([seed, 1]), 6, 3, SWEEP_FLAGS,
                               SourceModel((0.02, 0.98)), DetectorModel(0.01, 1e-4)) + budget_oracle(work, seed)

    return Plan(cycle, oracle, trace_cycles=2)


def exact_tables(work: Path, seed: int, tiny: bool) -> Plan:
    modes, n, count, photons = (8, 3, 4000, 3) if tiny else (16, 5, 20000, 5)
    net = work / "network.json"
    cli.write_matrix_json(net, haar_unitary(modes, np.random.default_rng([seed, 0])).matrix)
    device, uniform = work / "device.samples", work / "uniform.samples"
    common = ["--unitary", net, "--sources", n]

    def cycle(i: int) -> list[Op]:
        return [
            cli_op("distribution", ["distribution", "--unitary", net, "--photons", n],
                   work / "distribution.json", check_table, work=count_outputs(modes, n)),
            cli_op("sample", ["sample", *common, "--count", count, "--samples-out", device,
                              "--seed", op_seed(seed, i + 1)],
                   work / "sample_device.json", check_samples(count, None), (device,)),
            cli_op("sample_uniform", ["sample", *common, "--count", count, "--samples-out", uniform,
                                      "--population", "uniform", "--seed", op_seed(seed, i + 2)],
                   work / "sample_uniform.json", check_samples(count, n), (uniform,)),
            cli_op("witness", ["verify", "--test", "witness", *common, "--samples", device],
                   work / "witness_device.json", check_witness("bs-like")),
            cli_op("witness", ["verify", "--test", "witness", *common, "--samples", uniform],
                   work / "witness_uniform.json", check_witness("uniform-like")),
            cli_op("suppression", ["verify", "--test", "suppression", "--photons", photons, "--g", "0.9"],
                   work / "suppression.json", check_suppression),
        ]

    def oracle() -> list[str]:
        """`distribution` on a small network against the permutation-sum permanent."""
        small, k = 5, 3
        snet, out = work / "oracle_network.json", work / "oracle_distribution.json"
        cli.write_matrix_json(snet, haar_unitary(small, np.random.default_rng([seed, 1])).matrix)
        rc = cli.main(["distribution", "--unitary", str(snet), "--photons", str(k), "--out", str(out)])
        if rc != 0:
            return [f"oracle distribution: exit code {rc}"]
        res = read_report(out)["results"]
        u = cli.read_matrix_json(snet)
        errors = []
        for s, got in zip(res["outcomes"], res["probs"]):
            want = abs(permanent_naive(u[np.ix_(range(k), mode_indices(s))])) ** 2 / mu(s)
            if not _close(got, want):
                errors.append(f"oracle distribution {s}: {got!r} vs permanent_naive {want!r}")
        return errors

    return Plan(cycle, oracle, trace_cycles=1)


def large_permanents(work: Path, seed: int, tiny: bool) -> Plan:
    (pm, pn), (rm, rn), (dm, dn) = (((40, 8), (20, 4), (8, 3)) if tiny
                                    else ((400, 20), (200, 6), (30, 3)))
    rng = np.random.default_rng([seed, 0])
    u = haar_unitary(pm, rng)
    n0 = (1,) * pn + (0,) * (pm - pn)
    outputs = []
    for _ in range(64):
        occ = np.zeros(pm, dtype=int)
        occ[rng.choice(pm, pn, replace=False)] = 1
        outputs.append(tuple(int(x) for x in occ))
    patterns = math.comb(dm, dn)

    def pattern_prob(i: int) -> Op:
        s = outputs[i % len(outputs)]

        def check(p) -> str | None:
            return None if 0.0 < p <= 1.0 else f"pattern_prob: probability {p!r} outside (0, 1]"

        return Op("pattern_prob", lambda: bosonbudget.prob_ideal(u, n0, s), check)

    def cycle(i: int) -> list[Op]:
        return [
            pattern_prob(i),
            cli_op("roundtrip", ["verify", "--test", "roundtrip", "--modes", rm, "--sources", rn,
                                 "--seed", op_seed(seed, i + 1), *SWEEP_FLAGS],
                   work / "roundtrip.json", check_roundtrip),
            cli_op("distance", ["distance", "--modes", dm, "--sources", dn,
                                "--seed", op_seed(seed, i + 2), *MULTI_FLAGS],
                   work / "distance.json", check_distance, work=patterns),
        ]

    def oracle() -> list[str]:
        k = 8
        s = np.zeros(pm, dtype=int)
        cols = np.sort(np.random.default_rng([seed, 1]).choice(pm, k, replace=False))
        s[cols] = 1
        got = bosonbudget.prob_ideal(u, (1,) * k + (0,) * (pm - k), tuple(int(x) for x in s))
        want = abs(permanent_naive(u.matrix[np.ix_(range(k), cols)])) ** 2
        errors = [] if _close(got, want) else [f"oracle prob_ideal n={k}: {got!r} vs permanent_naive {want!r}"]
        return errors + distance_oracle(work, np.random.default_rng([seed, 2]), 5, 3, MULTI_FLAGS,
                                        SourceModel((0.02, 0.97, 0.01)), DetectorModel(0.01, 1e-4))

    return Plan(cycle, oracle, trace_cycles=2)


# The budget queries ride along with the distance sweep: bounds and sweeps
# together answer how good the hardware must be. The option mix is fixed per
# N, so that the cost of a pass (set by N through mismatch_bound's cycle
# types) is the same for every seed; the seed draws the numbers. Each N is
# queried twice per cycle, so that a 30 s run has over 100 budget ops and at
# least ten of them lie beyond budget_p90_ms.
_BUDGET_NS = (4, 9, 14, 19, 24, 29) * 2
_BUDGET_STYLES = ("plain", "g", "fidelity", "jitter")


def budget_grid(seed: int, tiny: bool) -> list[str]:
    rng = np.random.default_rng([seed, 2])
    grid = []
    for n in (4, 5, 6) if tiny else _BUDGET_NS:
        modes = int(10 * n * n * rng.uniform(1.0, 4.0))
        argv = ["budget", "--sources", n, "--modes", modes,
                "--epsilon", f"{rng.uniform(0.05, 0.5):.4f}", "--delta", f"{rng.uniform(0.1, 0.9):.4f}",
                "--p1", f"{rng.uniform(0.99, 1.0):.6f}", "--loss", f"{rng.uniform(0.0, 0.02):.6f}",
                "--dark", f"{rng.uniform(0.0, 1e-6):.3e}"]
        style = _BUDGET_STYLES[n % len(_BUDGET_STYLES)]
        if style == "g":
            argv += ["--g", f"{rng.uniform(0.95, 1.0):.6f}"]
        elif style == "fidelity":
            argv += ["--fidelity", f"{rng.uniform(0.98, 1.0):.6f}"]
        elif style == "jitter":
            argv += ["--sigma-omega", f"{rng.uniform(0.5, 2.0):.4f}", "--sigma-tau", f"{rng.uniform(0.0, 0.1):.4f}"]
        if n % 3 == 0:
            argv += ["--scaling", ",".join(str(x) for x in range(n, n + 6))]
        grid.append(argv)
    return grid


def budget_oracle(work: Path, seed: int) -> list[str]:
    """mismatch_bound's cycle-type sum against the plain sum over all N! permutations."""
    n = 6
    g = np.random.default_rng([seed, 3]).uniform(0.8, 1.0, n - 1)
    out = work / "oracle_budget.json"
    rc = cli.main(["budget", "--sources", str(n), "--modes", "400", "--epsilon", "0.1", "--delta", "0.5",
                   "--g", ",".join(repr(float(x)) for x in g), "--out", str(out)])
    if rc != 0:
        return [f"oracle budget: exit code {rc}"]
    got = read_report(out)["results"]["mismatchBound"]
    indist = Indistinguishability(tuple(float(x) for x in g))
    want = math.fsum(arrangement_count(cycle_counts(p)[0]) * (1.0 - permutation_overlap(indist, p)) ** 2
                     for p in permutations(range(n))) / math.factorial(n)
    return [] if _close(got, want) else [f"oracle mismatchBound: {got!r} vs permutation sum {want!r}"]


WORKLOADS = {
    "ensemble_sweep": ensemble_sweep,
    "exact_tables": exact_tables,
    "large_permanents": large_permanents,
}
