"""The package version, in a module of its own so that ``integrator`` can
record it and ``pyproject.toml`` can read it without importing hopmc."""

__version__ = "0.2.0"
