"""Public names a module resolves from the module defining them.

``__getattr__ = lazy(__name__, {name: module})`` (PEP 562) imports the
defining module when a name is first asked for, so a process that
never asks does not compile it.
"""

import sys
from importlib import import_module


def lazy(owner: str, names: dict):
    """A module ``__getattr__`` for ``owner`` that imports ``names[name]``
    from the package and keeps the value as a plain attribute."""

    def __getattr__(name: str):
        module = names.get(name)
        if module is None:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        value = getattr(import_module(f"nervekit.{module}"), name)
        setattr(sys.modules[owner], name, value)
        return value

    return __getattr__
