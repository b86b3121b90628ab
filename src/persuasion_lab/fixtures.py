"""Bundled example instances shipped with the package."""

from __future__ import annotations

from importlib import resources

from .errors import UnknownTargetError
from .model import PersuasionInstance, instance_from_json

BUILTIN_INSTANCES = ("judge", "example-1", "example-4-3")


def _read(name: str) -> str:
    ref = resources.files("persuasion_lab.data").joinpath(name)
    return ref.read_text(encoding="utf-8")


def builtin_instance(name: str) -> PersuasionInstance:
    if name not in BUILTIN_INSTANCES:
        raise UnknownTargetError(
            f"unknown instance {name!r}; available: {BUILTIN_INSTANCES}"
        )
    return instance_from_json(_read(f"{name}.json"))

