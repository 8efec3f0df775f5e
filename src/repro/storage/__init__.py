"""On-disk persistence for stores and index managers."""

from .faults import CrashPlan, FaultInjector, InjectedCrash, injected
from .format import FormatError
from .persist import (
    load_manager,
    load_store,
    manifest_epoch,
    read_manifest,
    save_manager,
)

__all__ = [
    "CrashPlan",
    "FaultInjector",
    "FormatError",
    "InjectedCrash",
    "injected",
    "load_manager",
    "load_store",
    "manifest_epoch",
    "read_manifest",
    "save_manager",
]
