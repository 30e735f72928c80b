"""One name → class registry behind every pluggable extension point.

Compiler policies, fleet routers, serving scenarios, and sweep adapters
each register subclasses of their base class under a lower-cased name and
are instantiated fresh by name.  Each owning module builds one
:class:`Registry` and exposes its bound methods under the public names
(``register_router``, ``get_router``, ``available_routers``, ...):

>>> _ROUTERS = Registry("router", RouterPolicy)
>>> register_router = _ROUTERS.register
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

from repro.errors import ConfigurationError

_BaseT = TypeVar("_BaseT")
_ClassT = TypeVar("_ClassT", bound=type)


class Registry(Generic[_BaseT]):
    """Registered subclasses of ``base``, by name, in registration order.

    Args:
        kind: What the entries are, as error messages name them (e.g.
            ``"policy"``, ``"sweep adapter"``); its last word names the
            ``@register_<word>`` decorator.
        base: The class every registered entry must subclass.  Its ``name``
            class attribute is filled in on registration, and its
            ``description`` feeds :meth:`descriptions`.
    """

    def __init__(self, kind: str, base: type[_BaseT]) -> None:
        self.kind = kind
        self.base = base
        self._classes: dict[str, type[_BaseT]] = {}

    def register(
        self, name: str, *, replace: bool = False
    ) -> Callable[[_ClassT], _ClassT]:
        """Class decorator registering a subclass of the base under ``name``.

        Args:
            name: Registry name; lower-cased.
            replace: Allow overwriting an existing registration (tests,
                notebook re-runs).  Without it a duplicate name raises
                :class:`~repro.errors.ConfigurationError`.
        """
        key = name.lower()

        def decorator(cls: _ClassT) -> _ClassT:
            if not (isinstance(cls, type) and issubclass(cls, self.base)):
                raise ConfigurationError(
                    f"@register_{self.kind.split()[-1]}({name!r}) expects a "
                    f"{self.base.__name__} subclass, got {cls!r}"
                )
            if not replace and key in self._classes:
                raise ConfigurationError(
                    f"{self.kind} {key!r} is already registered by "
                    f"{self._classes[key].__qualname__}; pass replace=True to "
                    "override"
                )
            cls.name = key
            self._classes[key] = cls
            return cls

        return decorator

    def unregister(self, name: str) -> None:
        """Remove a registered entry (primarily for test cleanup)."""
        key = name.lower()
        if key not in self._classes:
            raise ConfigurationError(f"{self.kind} {key!r} is not registered")
        del self._classes[key]

    def get(self, name: str) -> _BaseT:
        """Instantiate the entry registered under ``name``.

        Raises:
            ConfigurationError: If nothing is registered under ``name``.
        """
        try:
            cls = self._classes[name.lower()]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; expected one of {self.available()}"
            ) from None
        return cls()

    def is_registered(self, name: str) -> bool:
        """Whether an entry is registered under ``name``."""
        return name.lower() in self._classes

    def available(self) -> tuple[str, ...]:
        """Names of every registered entry, in registration order."""
        return tuple(self._classes)

    def descriptions(self) -> dict[str, str]:
        """``{name: description}`` of every registered entry."""
        return {name: cls.description for name, cls in self._classes.items()}
