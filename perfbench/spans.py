"""Span tracer for the benchmark's traced run.

The tracer wraps each layer's public entry points, plus the cross-module
names other layers import (such as ``_permanent_batch``), by rebinding those
names in every loaded ``bosonbudget`` module namespace, the package namespace
included. Nothing under ``src/`` is edited; ``uninstall`` puts the original
functions back.

Every call makes one span with its parent. A traced run makes 10^5 to 10^6
calls, so spans are aggregated in memory as they close instead of being kept
one by one: per span name the call count, inclusive time and self time
(inclusive time minus the time its child spans cover). Self times
telescope, so summed over all names they equal the summed duration of the
root spans.

Work counters that come from argument or result sizes (subsets walked,
matrices and bytes handed to the batch kernel, patterns swept, outcomes
enumerated) are computed, not measured, and are labelled so.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = (
    "permanent",
    "fock",
    "random_ensembles",
    "ideal_sampler",
    "noise_model",
    "distinguishability",
    "budget",
    "verify",
    "cli",
)

# Per layer, the functions wrapped. Small helpers (mode_indices, mu,
# as_matrix, ...) are left alone: their cost lands in the caller's layer,
# and wrapping them would multiply the tracing overhead.
ENTRY_POINTS = {
    "permanent": ("permanent_ryser", "permanent_repeated", "permanent_naive",
                  "permanent_contingency", "_permanent_batch"),
    "fock": ("enumerate_outputs", "count_outputs", "birthday_bunching_bound"),
    "random_ensembles": ("haar_unitary", "fourier_matrix", "gaussian_submatrix", "spawn_rngs"),
    "ideal_sampler": ("prob_ideal", "full_distribution", "sample_ideal", "variational_distance"),
    "noise_model": ("distance_parts", "click_pattern_prob", "collision_free_patterns",
                    "output_click_distribution", "noise_bound", "noise_bound_additive"),
    "distinguishability": ("prob_mismatch", "mismatch_bound", "mismatch_bound_small", "cycle_types"),
    "budget": ("evaluate_budget", "invert_budget", "scaling_table"),
    "verify": ("row_norm_witness", "unitarity_roundtrip", "suppression_test"),
    "cli": ("main", "emit_report"),
}


def _ryser_work(counts, args, kwargs):
    n = len(args[0])
    counts["ryser_subsets"] += (1 << n) - 1 if n else 0


def _batch_work(counts, args, kwargs):
    shape = getattr(args[0], "shape", None)
    if shape is None or len(shape) != 3:
        return
    b, n, _ = shape
    counts["batch_matrices"] += b
    counts["batch_bytes_in"] += 16 * b * n * n


def _enumerate_work(counts, args, kwargs):
    collision_free = args[2] if len(args) > 2 else kwargs.get("collision_free", False)
    modes, photons = int(args[0]), int(args[1])
    if collision_free:
        counts["fock_outcomes"] += math.comb(modes, photons)
    else:
        counts["fock_outcomes"] += math.comb(modes + photons - 1, photons)


def _distance_work(counts, args, kwargs):
    patterns = kwargs.get("patterns")
    if patterns is not None:
        counts["patterns"] += len(patterns)
    else:
        cfg = args[0]
        counts["patterns"] += math.comb(cfg.modes, cfg.n_sources)


# Counters read from the arguments, before the call.
_ARG_COUNTERS = {
    "permanent.permanent_ryser": _ryser_work,
    "permanent._permanent_batch": _batch_work,
    "fock.enumerate_outputs": _enumerate_work,
    "noise_model.distance_parts": _distance_work,
}


@dataclass(slots=True)
class Stat:
    calls: int = 0
    total: float = 0.0  # inclusive time, s
    self_time: float = 0.0  # total less the time of child spans, s


class Tracer:
    """Aggregated spans over the wrapped entry points, installed on demand."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _close(self, name: str, frame: list, duration: float, parent: list | None) -> None:
        st = self.stats[name]
        st.calls += 1
        st.total += duration
        st.self_time += duration - frame[0]
        if parent is not None:
            parent[0] += duration

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        count = _ARG_COUNTERS.get(name)
        counts = self.counts
        iter_name = name + ".iter"
        is_table = name == "ideal_sampler.full_distribution"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(counts, args, kwargs)
            parent = stack[-1] if stack else None
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                self._close(name, frame, duration, parent)
            if is_table:
                counts["table_outcomes"] += len(result.outcomes)
            if hasattr(result, "__next__"):
                return self._traced_iter(iter_name, result)
            return result

        return traced

    def _traced_iter(self, name: str, it):
        """Charge the time spent producing each item to the generator's layer."""
        stack = self._stack
        clock = time.perf_counter
        while True:
            parent = stack[-1] if stack else None
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                duration = clock() - t0
                stack.pop()
                self._close(name, frame, duration, parent)
            yield item

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        """Rebind every entry point, wherever a bosonbudget module holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, names in ENTRY_POINTS.items():
            mod = sys.modules[f"bosonbudget.{layer}"]
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "bosonbudget" or key.startswith("bosonbudget."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- derived figures ---------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return math.fsum(st.self_time for name, st in self.stats.items() if name.split(".")[0] == layer)

    def self_sum(self) -> float:
        return math.fsum(st.self_time for st in self.stats.values())

    def get(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, untraced_wall: float, traced_wall: float,
                  cycles: int) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics as name -> (value, unit, note).

    Counts, self times and trace walls are per cycle, averaged over the
    ``cycles`` traced cycles, so a lower figure means less work or a faster
    program. Ratios (per call, per subset, ...) are taken over all cycles.
    """
    per = f"per cycle, over {cycles}"
    computed = f"{per}, computed from array sizes"
    ryser = tr.get("permanent.permanent_ryser")
    batch = tr.get("permanent._permanent_batch")
    dist = tr.get("noise_model.distance_parts")
    table = tr.get("ideal_sampler.full_distribution")
    haar = tr.get("random_ensembles.haar_unitary")
    cfp = tr.get("noise_model.collision_free_patterns")
    c = tr.counts
    # distance_parts is the only caller of collision_free_patterns on the
    # workloads that sweep, so its inclusive time less the table build is the sweep.
    sweep = dist.total - cfp.total if dist.calls else 0.0

    def per_cycle(total):
        return total / cycles

    m = {
        "permanent.ryser.calls": (per_cycle(ryser.calls), "count", per),
        "permanent.ryser.self_s": (per_cycle(ryser.self_time), "s", per),
        "permanent.ryser.subsets": (per_cycle(c["ryser_subsets"]), "count", computed + ": sum of 2^n - 1"),
        "permanent.ryser.ns_per_subset": (_ratio(ryser.self_time * 1e9, c["ryser_subsets"]), "ns", ""),
        "permanent.ryser.us_per_call": (_ratio(ryser.self_time * 1e6, ryser.calls), "us", ""),
        "permanent.batch.calls": (per_cycle(batch.calls), "count", per),
        "permanent.batch.matrices": (per_cycle(c["batch_matrices"]), "count", computed),
        "permanent.batch.self_s": (per_cycle(batch.self_time), "s", per),
        "permanent.batch.ns_per_matrix": (_ratio(batch.self_time * 1e9, c["batch_matrices"]), "ns", ""),
        "permanent.batch.bytes_in": (per_cycle(c["batch_bytes_in"]), "B", computed + ": 16 b n^2"),
        "noise_model.distance_parts.self_s": (per_cycle(dist.self_time), "s", per),
        "noise_model.patterns": (per_cycle(c["patterns"]), "count", computed),
        "noise_model.ns_per_pattern": (_ratio(sweep * 1e9, c["patterns"]), "ns",
                                       "distance_parts time less pattern-table build"),
        "noise_model.collision_free_patterns.self_s": (per_cycle(cfp.self_time), "s", per),
        "noise_model.click_pattern_prob.calls": (per_cycle(tr.get("noise_model.click_pattern_prob").calls), "count", per),
        "noise_model.click_pattern_prob.self_s":
            (per_cycle(tr.get("noise_model.click_pattern_prob").self_time), "s", per),
        "ideal_sampler.full_distribution.calls": (per_cycle(table.calls), "count", per),
        "ideal_sampler.full_distribution.self_s": (per_cycle(table.self_time), "s", per),
        "ideal_sampler.outcomes": (per_cycle(c["table_outcomes"]), "count", per + ", rows of the returned tables"),
        "ideal_sampler.us_per_outcome": (_ratio(table.total * 1e6, c["table_outcomes"]), "us",
                                         "full_distribution inclusive time"),
        "ideal_sampler.prob_ideal.self_s": (per_cycle(tr.get("ideal_sampler.prob_ideal").self_time), "s", per),
        "ideal_sampler.sample_ideal.self_s": (per_cycle(tr.get("ideal_sampler.sample_ideal").self_time), "s", per),
        "fock.enumerate_outputs.calls": (per_cycle(tr.get("fock.enumerate_outputs").calls), "count", per),
        "fock.outcomes": (per_cycle(c["fock_outcomes"]), "count", computed),
        "distinguishability.prob_mismatch.calls":
            (per_cycle(tr.get("distinguishability.prob_mismatch").calls), "count", per),
        "distinguishability.prob_mismatch.self_s":
            (per_cycle(tr.get("distinguishability.prob_mismatch").self_time), "s", per),
        "distinguishability.mismatch_bound.self_s":
            (per_cycle(tr.get("distinguishability.mismatch_bound").self_time), "s", per),
        "verify.row_norm_witness.self_s": (per_cycle(tr.get("verify.row_norm_witness").self_time), "s", per),
        "verify.suppression_test.self_s": (per_cycle(tr.get("verify.suppression_test").self_time), "s", per),
        "verify.unitarity_roundtrip.self_s": (per_cycle(tr.get("verify.unitarity_roundtrip").self_time), "s", per),
        "random_ensembles.haar_unitary.calls": (per_cycle(haar.calls), "count", per),
        "random_ensembles.haar_unitary.ms_per_draw": (_ratio(haar.total * 1e3, haar.calls), "ms", ""),
        "budget.evaluate_budget.self_s": (per_cycle(tr.get("budget.evaluate_budget").self_time), "s", per),
        "budget.scaling_table.self_s": (per_cycle(tr.get("budget.scaling_table").self_time), "s", per),
        "cli.emit_report.self_s": (per_cycle(tr.get("cli.emit_report").self_time), "s", per),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (per_cycle(tr.layer_self(layer)), "s", per + ", layer total")
    m["trace.wall_s"] = (per_cycle(traced_wall), "s", per + ", traced ops")
    m["trace.untraced_wall_s"] = (per_cycle(untraced_wall), "s", per + ", the same ops untraced")
    m["trace.self_sum_s"] = (per_cycle(tr.self_sum()), "s", per + ", sum of layer self times")
    m["trace.overhead_s"] = (per_cycle(traced_wall - untraced_wall), "s",
                             per + ", traced minus untraced wall; below 0 when noise exceeds the tracing cost")
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio", "traced over untraced wall")
    return m
