"""Exception vocabulary shared across the package."""


class TripathsError(Exception):
    """Base class for all package-specific errors."""


class DegreeTooSmall(TripathsError):
    pass


class DegreeOutOfRange(TripathsError):
    pass


class DegreeMismatch(TripathsError):
    pass


class RankOutOfRange(TripathsError):
    pass


class InvalidPermutation(TripathsError):
    pass


class WrongFamily(TripathsError):
    pass


class SameCopy(TripathsError):
    pass


class DuplicateVertices(TripathsError):
    pass


class OracleScaleExceeded(TripathsError):
    pass


class InvalidStructure(TripathsError):
    pass


class ConstructionFailed(TripathsError):
    pass


class InsufficientConnectivity(TripathsError):
    """A flow request could not be met.

    Carries the paths that were found and, when computed, a witness
    vertex cut certifying the shortfall, read off the residual of the
    maximum flow: each arc with flow out of the part the start still
    reaches names the vertex it enters, or, for the arc from a fan
    target or a Y vertex into the flow's sink, the vertex it leaves.
    """

    def __init__(self, message, achieved=None, witness_cut=None):
        super().__init__(message)
        self.achieved = achieved
        self.witness_cut = witness_cut


class CertificateError(TripathsError):
    pass


class SchemaError(CertificateError):
    pass


class VersionMismatch(CertificateError):
    pass
