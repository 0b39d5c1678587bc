"""Exception taxonomy shared by every module.

The CLI reports a domain error as a JSON object on stderr whose "type" is
the exception's class name, so callers can tell errors apart without
matching messages.
"""

from __future__ import annotations


class RosetError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidArgumentError(RosetError):
    pass


class InfeasibleCalibrationError(RosetError):
    """Phase-2 sample too small for the requested (epsilon, delta).

    Carries the minimum admissible size so callers can report how much data
    is missing.
    """

    def __init__(self, message: str, required_min: int):
        super().__init__(message)
        self.required_min = required_min


class DegenerateDataError(RosetError):
    pass


class ClusterDegeneracyError(RosetError):
    pass


class TooFineGridError(RosetError):
    pass


class UnsupportedCombinationError(RosetError):
    pass


class InvalidScaleError(RosetError):
    pass


class ExportOnlyProgramError(RosetError):
    """Program contains PSD blocks; it can be exported but not solved here."""


class UnsupportedExportError(RosetError):
    pass
