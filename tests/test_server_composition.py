"""Server classes composed from layer flags.

Two halves:

* **Pinned configurations** — for every single-layer configuration the
  builder serves, one seeded small service's trace digest and each
  server's MRO (leaf class skipped, so a composed class and the
  hand-written class it replaces compare equal).  A change to how the
  builder picks or composes classes must leave both unchanged.
* **Pair matrix** — every pair of layer options, and the service-wide
  ones beside a reference and a non-polling spec, either runs a
  30-minute mesh with every interval correct (and, under security, not
  one authentication failure or replay drop) or is refused with a
  ``ValueError`` naming both layers.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.byzantine import ByzantineConfig
from repro.core.ft_im import FTIMPolicy
from repro.core.mm import MMPolicy
from repro.load.capacity import CapacityConfig
from repro.network.delay import UniformDelay
from repro.network.topology import full_mesh
from repro.runtime.node import build_node
from repro.security import Keyring, SecurityConfig
from repro.security.server import AuthenticationMixin
from repro.service.builder import ServerSpec, build_service
from repro.service.hardening import HardeningConfig
from repro.simulation.trace import trace_digest

N = 4
DELTA = 1e-5
SOURCE_ERROR = 0.005
COLD_ERROR = 0.2


def _security() -> SecurityConfig:
    return SecurityConfig(keyring=Keyring.from_secret("composition"))


def _specs(n=N, **flags):
    """``n`` servers of mixed skew; S1 starts with a low error."""
    return [
        ServerSpec(
            f"S{k + 1}",
            delta=DELTA,
            skew=0.9 * DELTA * (2.0 * k / (n - 1) - 1.0),
            initial_error=SOURCE_ERROR if k == 0 else COLD_ERROR,
            **flags,
        )
        for k in range(n)
    ]


def _build(specs, *, byzantine=False, **kwargs):
    if byzantine:
        kwargs["policy_factory"] = lambda name: FTIMPolicy()
        kwargs["byzantine"] = ByzantineConfig()
    else:
        kwargs["policy"] = MMPolicy()
    return build_service(
        full_mesh(len(specs)),
        specs,
        tau=30.0,
        seed=5,
        lan_delay=UniformDelay(0.01),
        loss_probability=0.05,
        **kwargs,
    )


def _reference_specs():
    specs = _specs()
    specs[0] = ServerSpec("S1", reference=True, initial_error=SOURCE_ERROR)
    return specs


#: name -> zero-argument service factory, one per configuration the
#: builder served before server classes were composed from layers.
PINNED = {
    "plain": lambda: _build(_specs()),
    "reference": lambda: _build(_reference_specs()),
    "rate_tracking": lambda: _build(_specs(rate_tracking=True)),
    "discipline": lambda: _build(_specs(discipline=True)),
    "self_stabilizing": lambda: _build(_specs(self_stabilizing=True)),
    "byzantine_tolerant": lambda: _build(
        _specs(byzantine_tolerant=True), byzantine=True
    ),
    "byzantine_tolerant+security": lambda: _build(
        _specs(byzantine_tolerant=True), byzantine=True, security=_security()
    ),
    "holdover": lambda: _build(_specs(holdover=True)),
    "hardening": lambda: _build(_specs(), hardening=HardeningConfig()),
    "security": lambda: _build(_specs(), security=_security()),
    "capacity": lambda: _build(
        _specs(), capacity=CapacityConfig(service_time=0.002)
    ),
}

#: Recorded before server classes were composed from layer flags.
PINNED_DIGESTS = {
    "byzantine_tolerant": 0xE71EC259,
    "byzantine_tolerant+security": 0xE71EC259,
    "capacity": 0x7100E7C4,
    "discipline": 0x820DAAD3,
    "hardening": 0x5499463D,
    "holdover": 0x53DCB158,
    "plain": 0x96ECF09D,
    "rate_tracking": 0x96ECF09D,
    "reference": 0x24DCAA68,
    "security": 0x64182207,
    "self_stabilizing": 0xA259EC63,
}


def _every(mro):
    return {f"S{k + 1}": mro for k in range(N)}


#: Each server's MRO up to ``TimeServer``, recorded alongside the digests.
#: ``*`` stands for a leaf that only combined the classes after it (it was
#: a hand-written combination class) and is not compared.
PINNED_MROS = {
    "byzantine_tolerant": _every(
        "ByzantineTolerantServer > SelfStabilizingServer > RateTrackingServer"
        " > TimeServer"
    ),
    "byzantine_tolerant+security": _every(
        "* > AuthenticationMixin > ByzantineTolerantServer"
        " > SelfStabilizingServer > RateTrackingServer > TimeServer"
    ),
    "capacity": _every("LoadAwareServer > TimeServer"),
    "discipline": _every(
        "DiscipliningServer > RateTrackingServer > TimeServer"
    ),
    "hardening": _every("HardenedTimeServer > TimeServer"),
    "holdover": _every(
        "HoldoverServer > DiscipliningServer > SelfStabilizingServer"
        " > RateTrackingServer > TimeServer"
    ),
    "plain": _every("TimeServer"),
    "rate_tracking": _every("RateTrackingServer > TimeServer"),
    "reference": {**_every("TimeServer"), "S1": "ReferenceServer > TimeServer"},
    "security": _every(
        "* > AuthenticationMixin > HardenedTimeServer > TimeServer"
    ),
    "self_stabilizing": _every(
        "SelfStabilizingServer > RateTrackingServer > TimeServer"
    ),
}


def _mro(server, pinned: str) -> str:
    """``server``'s MRO in :data:`PINNED_MROS` form (leaf elided as ``*``
    when the pinned value elides it)."""
    names = [cls.__name__ for cls in type(server).__mro__]
    names = names[: names.index("TimeServer") + 1]
    if pinned.startswith("* > "):
        names[0] = "*"
    return " > ".join(names)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_configuration(case):
    service = PINNED[case]()
    service.run_until(900.0)
    assert service.snapshot().all_correct
    assert trace_digest(service.trace) == PINNED_DIGESTS[case]
    pinned = PINNED_MROS[case]
    assert {
        name: _mro(server, pinned[name])
        for name, server in service.servers.items()
    } == pinned


# ------------------------------------------------------------ pair matrix

SERVICE_OPTIONS = ("security", "hardening", "capacity")
SPEC_OPTIONS = (
    "rate_tracking",
    "discipline",
    "self_stabilizing",
    "byzantine_tolerant",
    "holdover",
)
#: The layer each option adds, as error messages name it.
LAYER = {
    "security": "authenticated",
    "hardening": "hardened",
    "capacity": "capacity",
    **{flag: flag for flag in SPEC_OPTIONS},
    "reference": "reference",
}
#: Refused pairs: the hardened and Byzantine layers each keep their own
#: neighbour-health book; a reference server only answers.
REFUSED = {
    frozenset({"hardening", "byzantine_tolerant"}),
    frozenset({"capacity", "reference"}),
}

SERVICE_KWARGS = {
    "security": _security,
    "hardening": HardeningConfig,
    "capacity": lambda: CapacityConfig(service_time=0.002),
}


def _matrix_service(options, first=None):
    """A 4-server mesh with ``options`` on; ``first`` overrides S1's spec."""
    flags = {flag: True for flag in options if flag in SPEC_OPTIONS}
    specs = _specs(**flags)
    if first == "reference":
        specs[0] = ServerSpec("S1", reference=True, initial_error=SOURCE_ERROR)
    elif first == "non-polling":
        specs[0] = ServerSpec(
            "S1", delta=DELTA, initial_error=SOURCE_ERROR, polls=False
        )
    kwargs = {
        name: SERVICE_KWARGS[name]() for name in options if name in SERVICE_KWARGS
    }
    return _build(specs, byzantine="byzantine_tolerant" in options, **kwargs)


MATRIX = [
    (pair, None) for pair in combinations(SERVICE_OPTIONS + SPEC_OPTIONS, 2)
]
MATRIX += [
    ((option,), first)
    for option in ("security", "capacity")
    for first in ("reference", "non-polling")
]


@pytest.mark.parametrize(
    "options,first",
    MATRIX,
    ids=["+".join((*options, first) if first else options) for options, first in MATRIX],
)
def test_layer_pair(options, first):
    named = set(options) | ({first} if first == "reference" else set())
    if frozenset(named) in REFUSED:
        with pytest.raises(ValueError) as refusal:
            _matrix_service(options, first)
        for option in named:
            assert repr(LAYER[option]) in str(refusal.value)
        return
    service = _matrix_service(options, first)
    for snapshot in service.sample([60.0 * k for k in range(1, 31)]):
        assert snapshot.all_correct, snapshot.time
    if "security" in options:
        for server in service.servers.values():
            assert isinstance(server, AuthenticationMixin)
            assert server.security_stats.auth_failures == 0
            assert server.security_stats.replay_drops == 0


def test_combined_classes_are_cached():
    first, second = (
        _build(_specs(self_stabilizing=True), security=_security())
        for _ in range(2)
    )
    assert type(first.servers["S1"]) is type(second.servers["S2"])
    assert [cls.__name__ for cls in type(first.servers["S1"]).__mro__[1:5]] == [
        "AuthenticationMixin",
        "SelfStabilizingServer",
        "RateTrackingServer",
        "HardenedTimeServer",
    ]


@pytest.mark.parametrize(
    "kind,mro",
    [
        ("plain", "TimeServer"),
        ("hardened", "* > _SlewAwareMixin > HardenedTimeServer > TimeServer"),
        (
            "authenticated",
            "* > _SlewAwareMixin > AuthenticationMixin > HardenedTimeServer"
            " > TimeServer",
        ),
    ],
    ids=["plain", "hardened", "authenticated"],
)
def test_live_node_layers(kind, mro):
    """Live nodes compose through the same table: slew rails on the clock
    add the slew-aware layer outermost, as the live classes had it."""
    peers = {"S1": ["127.0.0.1", 1], "S2": ["127.0.0.1", 2]}
    node = build_node(
        dict(name="S1", host="127.0.0.1", port=1, peers=peers,
             edges=[["S1", "S2"]], kind=kind)
    )
    assert _mro(node.server, mro) == mro
