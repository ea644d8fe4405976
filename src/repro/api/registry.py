"""String-keyed component registries for the experiment API.

Every pluggable component of the library — edge devices, wireless
technologies, acquisition strategies and search strategies — is addressable
by a short string key, so experiments can be declared with names
(``device="jetson-tx2-gpu"``, ``strategy="lens"``) instead of constructor
wiring, and persisted request envelopes stay meaningful across processes.

:class:`Registry` is the generic container; the module-level instances

* :data:`DEVICES` — device-profile factories (seeded from
  :data:`repro.hardware.device.BUILTIN_DEVICES`);
* :data:`WIRELESS_TECHNOLOGIES` — radio power-model factories, one per
  technology of Huang et al.'s power study;
* :data:`ACQUISITIONS` — acquisition strategies of the MOBO loop;
* :data:`SEARCH_SPACES` — named search-space factories
  (``"lens-vgg"``, ``"resnet-v1"``, ``"seq-conv1d"``), the workloads a
  :class:`~repro.api.envelopes.SearchRequest` can target;

hold the built-ins.  Search strategies live in
:data:`repro.api.session.STRATEGIES` and scenarios in
:data:`repro.api.scenario.SCENARIOS`, next to the code that runs them.
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.hardware.device import BUILTIN_DEVICES, DeviceProfile
from repro.nn.resnet_space import ResNetSearchSpace
from repro.nn.search_space import LensSearchSpace
from repro.nn.seq_space import SeqConv1DSearchSpace
from repro.nn.spaces import DEFAULT_SEARCH_SPACE, EncodedSearchSpace
from repro.optim.acquisition import ACQUISITION_STRATEGIES
from repro.wireless.power_models import SUPPORTED_TECHNOLOGIES, RadioPowerModel


class RegistryError(KeyError):
    """Lookup of an unknown registry key.

    Subclasses :class:`KeyError` so existing ``except KeyError`` callers keep
    working, but carries a readable, suggestion-bearing message.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.message


class Registry:
    """A case-preserving, string-keyed registry of named components.

    Parameters
    ----------
    kind:
        Human-readable description of what is registered (used in error
        messages, e.g. ``"device"`` or ``"search strategy"``).
    entries:
        Optional initial ``{name: entry}`` mapping.

    Entries are usually zero-argument (or keyword-argument) factories, but
    any object may be registered; :meth:`create` calls the entry while
    :meth:`get` returns it untouched.
    """

    def __init__(self, kind: str, entries: Optional[Dict[str, Any]] = None):
        self.kind = str(kind)
        self._entries: Dict[str, Any] = {}
        for name, entry in (entries or {}).items():
            self.register(name, entry)

    # ------------------------------------------------------------------ registration
    def register(
        self, name: str, entry: Any = None, *, overwrite: bool = False
    ) -> Any:
        """Register ``entry`` under ``name``.

        Can be used directly (``registry.register("x", factory)``) or as a
        decorator (``@registry.register("x")``).  Re-registering an existing
        name requires ``overwrite=True`` so built-ins are not shadowed by
        accident.
        """
        if entry is None:
            def decorator(obj: Any) -> Any:
                self.register(name, obj, overwrite=overwrite)
                return obj

            return decorator
        key = self._normalize(name)
        if key in self._entries and not overwrite:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                f"pass overwrite=True to replace it"
            )
        self._entries[key] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove a registered entry (no-op message if absent)."""
        self._entries.pop(self._normalize(name), None)

    # ------------------------------------------------------------------ lookup
    def get(self, name: str) -> Any:
        """Return the entry registered under ``name``.

        Raises :class:`RegistryError` (a :class:`KeyError`) listing every
        registered name — and the closest match, when one exists — on unknown
        input.
        """
        key = self._normalize(name)
        try:
            return self._entries[key]
        except KeyError:
            raise RegistryError(self._unknown_message(name)) from None

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Look up ``name`` and call the registered factory."""
        entry = self.get(name)
        if not callable(entry):
            raise TypeError(
                f"{self.kind} {name!r} is not callable and cannot be created"
            )
        return entry(*args, **kwargs)

    # ------------------------------------------------------------------ introspection
    def names(self) -> List[str]:
        """Sorted list of registered names."""
        return sorted(self._entries)

    def items(self) -> List[Tuple[str, Any]]:
        """Sorted ``(name, entry)`` pairs."""
        return sorted(self._entries.items())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self._normalize(name) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:
        return f"Registry(kind={self.kind!r}, names={self.names()})"

    # ------------------------------------------------------------------ internals
    @staticmethod
    def _normalize(name: str) -> str:
        if not isinstance(name, str):
            raise TypeError(f"registry keys must be strings, got {type(name)!r}")
        return name.strip()

    def _unknown_message(self, name: str) -> str:
        names = self.names()
        message = f"unknown {self.kind} {name!r}; registered: {names}"
        close = difflib.get_close_matches(self._normalize(name), names, n=1)
        if close:
            message += f". Did you mean {close[0]!r}?"
        return message


# ---------------------------------------------------------------------- built-in registries

#: Edge/cloud device profiles, keyed by name (``registry.create(name)`` returns
#: a fresh :class:`~repro.hardware.device.DeviceProfile`).
DEVICES = Registry("device", dict(BUILTIN_DEVICES))

#: Wireless technologies, keyed by name; factories return the technology's
#: :class:`~repro.wireless.power_models.RadioPowerModel`.
WIRELESS_TECHNOLOGIES = Registry(
    "wireless technology",
    {
        technology: (
            lambda technology=technology: RadioPowerModel.for_technology(technology)
        )
        for technology in SUPPORTED_TECHNOLOGIES
    },
)

#: Acquisition strategies of the MOBO loop.  Entries are descriptor strings;
#: the names are what :class:`~repro.api.envelopes.SearchRequest` accepts.
ACQUISITIONS = Registry(
    "acquisition",
    {
        "ts": "Thompson sampling (one joint posterior draw per objective)",
        "ucb": "lower-confidence-bound scores (mean - 2 * std)",
        "mean": "posterior-mean exploitation",
        "random": "uniform-random scores (ablation baseline)",
        "epdc": "expected Pareto distance change (front-aware, q-batch capable)",
    },
)
assert set(ACQUISITIONS.names()) == set(ACQUISITION_STRATEGIES)


#: Named search spaces — the workloads a request can target.  Entries are
#: zero-argument factories returning a fresh
#: :class:`~repro.nn.spaces.EncodedSearchSpace`;
#: ``SEARCH_SPACES.create(name)`` is how
#: :func:`repro.api.session.build_context` resolves
#: ``SearchRequest.search_space``.
SEARCH_SPACES = Registry(
    "search space",
    {
        LensSearchSpace.space_name: LensSearchSpace,
        ResNetSearchSpace.space_name: ResNetSearchSpace,
        SeqConv1DSearchSpace.space_name: SeqConv1DSearchSpace,
    },
)
assert DEFAULT_SEARCH_SPACE in SEARCH_SPACES


def register_device(profile: DeviceProfile, *, overwrite: bool = False) -> DeviceProfile:
    """Register a custom device profile under its own name.

    The profile becomes addressable by every by-name entry point
    (``device_by_name``, scenarios, request envelopes).
    """
    DEVICES.register(profile.name, lambda profile=profile: profile, overwrite=overwrite)
    return profile


def register_search_space(
    name: str,
    factory: Callable[[], EncodedSearchSpace],
    *,
    overwrite: bool = False,
) -> Callable[[], EncodedSearchSpace]:
    """Register a custom search-space factory under ``name``.

    ``factory`` is called once per run that requests the space (a
    :class:`~repro.nn.spaces.EncodedSearchSpace` subclass works directly).  The
    space becomes addressable from request envelopes, campaign grids and the
    CLI immediately; give instances a matching ``space_name`` so decoded
    candidate names carry the registry key.
    """
    SEARCH_SPACES.register(name, factory, overwrite=overwrite)
    return factory
