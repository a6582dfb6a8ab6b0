"""Every resource cap of the package, in one table.

Each cap is stated in the unit of the work it bounds and is checked before
that work starts; a refusal raises ``ResourceLimitError`` (CLI exit 2) with
a message that names the cap. ``BOSONBUDGET_MAX_N`` overrides the
permanent-order cap; nothing else in the package reads the environment.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import ResourceLimitError


class Limit(NamedTuple):
    value: int
    unit: str


LIMITS = {
    "outcomes": Limit(2_000_000, "outcomes"),  # rows of one exact output table (``enumerate_outputs``)
    "patterns": Limit(4_000_000, "patterns"),  # N-click patterns of one sweep, or entries of its subset table
    "sample_bits": Limit(100_000_000, "click bits"),  # samples x modes of one ``sample`` run
    "gray_steps": Limit(1 << 30, "Gray steps"),  # slot permanents x 2^(K - 1) of one pattern evaluation
    "permanent_order": Limit(30, "rows"),  # order of a Glynn walk: ``permanent_ryser``, the slot matrices
    "click_table_modes": Limit(16, "modes"),  # the 2^M table of ``output_click_distribution``
    "triple_sum_terms": Limit(5_000_000, "terms"),  # the literal sum of ``output_click_distribution``
    "mismatch_photons": Limit(7, "photons"),  # the sum over relative permutations of ``prob_mismatch``
    "cycle_photons": Limit(30, "photons"),  # ``mismatch_bound``, ``cycle_types``
    "arrangement_items": Limit(30, "items"),  # ``arrangement_count``
    "naive_order": Limit(9, "rows"),  # the permutation-sum oracle ``permanent_naive``
    "contingency_photons": Limit(6, "photons"),  # the oracle ``permanent_contingency``
    "haar_modes": Limit(4096, "modes"),  # one ``haar_unitary`` draw
}


def cap(name: str) -> int:
    """The value of the cap ``name``; BOSONBUDGET_MAX_N, if set, overrides ``permanent_order``."""
    raw = os.environ.get("BOSONBUDGET_MAX_N") if name == "permanent_order" else None
    return int(raw) if raw else LIMITS[name].value


def check(name: str, amount: int, what: str) -> None:
    """Refuse ``what`` if the ``amount`` of work it needs is over the cap ``name``."""
    limit = cap(name)
    if amount > limit:
        unit = LIMITS[name].unit
        raise ResourceLimitError(f"{what}: {amount} {unit}, over the {name!r} limit; capped at {limit} {unit}")


def check_slot_permanents(order: int, count: int) -> None:
    """Refuse ``count`` slot permanents of ``order`` rows, each 2^(order - 1) Gray steps, if either is over its cap."""
    check("permanent_order", order, "slot matrix")
    check("gray_steps", count << max(order - 1, 0), f"{count} slot permanents of order {order}")
