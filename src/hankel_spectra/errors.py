"""Exception hierarchy.

Every exception carries a stable ``code`` string; the CLI emits it in
structured error reports so shell pipelines can branch on the failure class.
"""

import copyreg


class HankelSpectraError(Exception):
    code = "Internal"

    def __reduce__(self):
        # rebuilt by __new__ from the message, since a subclass's __init__ may
        # take other arguments; its attributes, such as index, come back too
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class EmptyInputError(HankelSpectraError):
    code = "EmptyInput"


class NegativeEntryError(HankelSpectraError):
    code = "NegativeEntry"

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"negative entry at index {index}")


class NonInterlacingError(HankelSpectraError):
    code = "NonInterlacing"

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"interlacing violated at index {index}")


class WeightRangeError(HankelSpectraError):
    """Weight product over- or underflows double precision."""

    code = "WeightRange"


class DegenerateSpectrumError(HankelSpectraError):
    code = "DegenerateSpectrum"


class DegenerateMeasureError(HankelSpectraError):
    code = "DegenerateMeasure"


class NonUnimodularPhaseError(HankelSpectraError):
    code = "NonUnimodularPhase"


class SupportNotCyclicError(HankelSpectraError):
    code = "SupportNotCyclic"


class SquareRootFailureError(HankelSpectraError):
    code = "SquareRootFailure"


class BundleInvariantError(HankelSpectraError):
    """An assembled operator tuple violates one of its defining identities."""

    code = "BundleInvariant"


class ClusterAmbiguityError(HankelSpectraError):
    code = "ClusterAmbiguity"


class TruncationTooSmallError(HankelSpectraError):
    code = "TruncationTooSmall"


class ThetaAtOriginNonzeroError(HankelSpectraError):
    code = "ThetaAtOriginNonzero"


class RootOffCircleError(HankelSpectraError):
    code = "RootOffCircle"


class SchemaError(HankelSpectraError):
    code = "Schema"
