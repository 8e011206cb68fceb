"""Canonical content hashing for sweep task specs.

The on-disk result cache (:mod:`repro.runners.cache`) keys entries by a
digest of the task's function and parameters.  For the digest to be a
*correct* cache key it must be

* **deterministic across processes** — no ``id()``, no ``hash()`` (which
  is salted per interpreter for strings), no unsorted set/dict iteration;
* **total over the parameter types sweeps actually use** — primitives,
  containers, numpy scalars, frozen dataclasses (``FaultConfig``,
  ``LinkModel``, ``CrashPlan``, ``ArchitectureSpec``…), and the simulator
  object types (``Topology``, ``StochasticProtocol``, ``CRC``,
  ``SimConfig``, ``PolicySpec``/``ForwardingPolicy``);
* **loud on anything else** — an object we cannot canonicalise raises
  ``TypeError`` instead of silently producing an unstable key that would
  turn the cache into a source of wrong results.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any

import numpy as np

from repro.crc import CRC
from repro.noc.config import (
    THESIS_RULES,
    describe_crc,
    describe_protocol,
    describe_topology,
)
from repro.noc.topology import Topology
from repro.policies.base import ForwardingPolicy, PolicySpec


def canonical(value: Any) -> Any:
    """Reduce `value` to a deterministic, repr-stable tuple structure."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(canonical(item) for item in value)
    if isinstance(value, dict):
        items = [(canonical(k), canonical(v)) for k, v in value.items()]
        return ("dict", tuple(sorted(items, key=repr)))
    if isinstance(value, (set, frozenset)):
        items = [canonical(item) for item in value]
        return ("set", tuple(sorted(items, key=repr)))
    # Simulator object types with dedicated describers.
    token = getattr(value, "cache_token", None)
    if callable(token):  # SimConfig and anything adopting its contract
        return (type(value).__name__, token())
    if isinstance(value, Topology):
        return describe_topology(value)
    if isinstance(value, PolicySpec):
        return ("PolicySpec", value.kind, canonical(value.params))
    if isinstance(value, THESIS_RULES):
        return describe_protocol(value)
    if isinstance(value, ForwardingPolicy):
        # A stateful policy instance keys by its configuration alone; an
        # unregistered one has no spec and raises TypeError.
        return canonical(value.spec)
    if isinstance(value, CRC):
        return describe_crc(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, canonical(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    raise TypeError(
        f"cannot build a stable cache key from {type(value).__name__!r}: "
        "sweep task parameters must be primitives, containers, numpy "
        "scalars/arrays, dataclasses, or simulator objects (Topology, "
        "StochasticProtocol, CRC, SimConfig, PolicySpec, ForwardingPolicy)"
    )


def digest(value: Any) -> str:
    """SHA-256 hex digest of the canonical form of `value`."""
    return hashlib.sha256(repr(canonical(value)).encode("utf-8")).hexdigest()
