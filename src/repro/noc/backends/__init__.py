"""Engine backends: the one owner of the backend names.

The simulator core is a two-backend architecture (see
``docs/performance.md``):

* ``"object"`` — the reference engine: one :class:`repro.noc.tile.Tile`
  object per tile, one :class:`repro.core.packet.Packet` object per
  buffered copy, pure-Python phase loops.  Every semantic question is
  answered here first.
* ``"fast"`` — the structure-of-arrays engine: the live packet population
  lives in numpy arrays and each round's phases run as batched array ops,
  drawing from the *same* ``default_rng`` stream in the *same* order, so
  a (config, seed) pair produces bit-identical results on either backend.

This package's namespace is dependency-free on purpose:
:mod:`repro.noc.config` imports it to validate the ``backend=`` field,
so :func:`engine_class` imports the two engine modules lazily.
"""

from __future__ import annotations

__all__ = [
    "FAST_BACKEND",
    "KNOWN_BACKENDS",
    "OBJECT_BACKEND",
    "check_backend",
    "engine_class",
]

#: The reference per-object engine (the default everywhere).
OBJECT_BACKEND = "object"
#: The vectorised structure-of-arrays engine.
FAST_BACKEND = "fast"
#: The backends that ship; :func:`check_backend` accepts nothing else.
KNOWN_BACKENDS = (OBJECT_BACKEND, FAST_BACKEND)


def check_backend(name: str) -> None:
    """Raise ``ValueError`` unless `name` is one of :data:`KNOWN_BACKENDS`."""
    if name not in KNOWN_BACKENDS:
        known = ", ".join(repr(backend) for backend in KNOWN_BACKENDS)
        raise ValueError(f"backend must be one of {known}, got {name!r}")


def engine_class(name: str) -> type:
    """The simulator class that runs backend `name`."""
    check_backend(name)
    if name == FAST_BACKEND:
        from repro.noc.backends.fast import FastNocSimulator

        return FastNocSimulator
    from repro.noc.engine import NocSimulator

    return NocSimulator
