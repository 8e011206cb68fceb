"""repro.policies — pluggable forwarding policies for the NoC engine.

The forwarding rule (which buffered packet leaves on which link each
round) is a first-class, swappable component.  Six policies ship here:

* :class:`BernoulliPolicy` — the thesis' Bernoulli(p)-per-port rule
  (§3.2.2), extracted from the engine; the default, and the class the
  thesis-named :class:`repro.core.protocol.StochasticProtocol` and
  ``FloodingProtocol`` subclass;
* :class:`FloodPolicy` — deterministic flooding, the p = 1 reference;
* :class:`CounterGossipPolicy` — counter-based ("death certificate")
  gossip: a tile stops forwarding a message after k duplicate
  receptions (arXiv:1209.6158);
* :class:`AdaptiveProbabilityPolicy` — per-tile p modulated by local
  buffer occupancy and observed dead-link drops (arXiv:1811.11262);
* :class:`PushPullPolicy` — Doerr-style push-pull rumor spreading:
  uninformed tiles also *pull* from a random neighbor each round, with
  optional feedback termination via ``feedback_k``;
* :class:`AdaptiveRoutePolicy` — the deterministic fault-tolerant
  adaptive-routing baseline: minimal-path broadcast plus time-limited
  local-flood detours around observed dead links.

:class:`FeedbackTermination` is the reusable duplicate-counting stopping
rule (the median-counter "death certificate") shared by the counter and
push-pull policies.

Configuration travels as a frozen, picklable :class:`PolicySpec` (stored
in :class:`repro.noc.config.SimConfig` and hashed into sweep cache keys);
each simulator run builds a fresh stateful policy via
:func:`build_policy`.  See ``docs/policies.md`` for the interface
contract and how to add a policy, and ``docs/protocols-frontier.md`` for
the head-to-head protocol comparison methodology.
"""

from repro.policies.adaptive import AdaptiveProbabilityPolicy
from repro.policies.adaptive_route import AdaptiveRoutePolicy
from repro.policies.base import (
    POLICY_REGISTRY,
    BatchDecisionView,
    ForwardingPolicy,
    PolicyContext,
    PolicySpec,
    build_policy,
    make_policy,
    register_policy,
)
from repro.policies.bernoulli import BernoulliPolicy, FloodPolicy
from repro.policies.counter import CounterGossipPolicy
from repro.policies.pushpull import PushPullPolicy
from repro.policies.termination import FeedbackTermination

__all__ = [
    "POLICY_REGISTRY",
    "BatchDecisionView",
    "ForwardingPolicy",
    "PolicyContext",
    "PolicySpec",
    "build_policy",
    "make_policy",
    "register_policy",
    "BernoulliPolicy",
    "FloodPolicy",
    "CounterGossipPolicy",
    "AdaptiveProbabilityPolicy",
    "PushPullPolicy",
    "AdaptiveRoutePolicy",
    "FeedbackTermination",
]
