"""The built-in checker suite — importing this module populates the registry."""

from repro.analysis.lint.checkers.determinism import (
    HashOrderedSumChecker,
    ReplayDeterminismChecker,
)
from repro.analysis.lint.checkers.errors import ErrorTransportChecker
from repro.analysis.lint.checkers.forksafety import ForkSafetyChecker
from repro.analysis.lint.checkers.locks import LockOrderChecker
from repro.analysis.lint.checkers.pickles import NoPickleChecker
from repro.analysis.lint.checkers.writes import AtomicWriteChecker, FsyncOrderingChecker

__all__ = [
    "AtomicWriteChecker",
    "ErrorTransportChecker",
    "ForkSafetyChecker",
    "FsyncOrderingChecker",
    "HashOrderedSumChecker",
    "LockOrderChecker",
    "NoPickleChecker",
    "ReplayDeterminismChecker",
]
