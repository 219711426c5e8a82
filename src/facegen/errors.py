"""Exception and warning types shared across the toolkit."""

from contextlib import contextmanager


class FacegenError(Exception):
    """Base class for all toolkit errors."""


class DataError(FacegenError):
    """Malformed or inconsistent input data (CLI exit code 2)."""


class NumericError(FacegenError):
    """Numerical failure during optimization or sampling (CLI exit code 3)."""


@contextmanager
def naming(source):
    """Prefix `source` (an input file, or None for none) to the message of a
    DataError raised inside, unless the message names it already; the
    error keeps its type."""
    try:
        yield
    except DataError as e:
        if source is not None and str(source) not in str(e):
            e.args = (f"{source}: {e}",)
        raise


# -- mesh ------------------------------------------------------------------

class NonManifoldEdge(DataError):
    pass


class DegenerateQuad(DataError):
    pass


class IsolatedVertex(DataError):
    pass


class TopologyMismatch(DataError):
    pass


# -- model -----------------------------------------------------------------

class DimensionMismatch(DataError):
    pass


class PoseLimitViolation(DataError):
    def __init__(self, joint: str, axis: int, value: float, lo: float, hi: float):
        self.joint = joint
        self.axis = axis
        super().__init__(
            f"pose angle for joint '{joint}' axis {axis} is {value:.6g}, "
            f"outside [{lo:.6g}, {hi:.6g}]"
        )


class InvalidParam(DataError):
    pass


class DegenerateProjection(DataError):
    pass


# -- learning --------------------------------------------------------------

class ShapeMismatch(DataError):
    pass


class Diverged(NumericError):
    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"loss became non-finite at iteration {iteration}")


# -- sampling --------------------------------------------------------------

class SingularComponent(NumericError):
    pass


class EmptyComponent(NumericError):
    pass


class EmptyLibrary(DataError):
    pass


class IndexOutOfRange(DataError):
    pass


class EmptyTable(DataError):
    pass


class NonNormalizedTable(DataError):
    pass


# -- appearance ------------------------------------------------------------

class NonFiniteInput(DataError):
    pass


class InvalidSigma(DataError):
    pass


# -- hair ------------------------------------------------------------------

class PointOutsideBbox(DataError):
    pass


class EmptyGroom(DataError):
    pass


class EmptyDensity(DataError):
    pass


# -- warnings --------------------------------------------------------------

class ZeroAreaFace(UserWarning):
    """Reported when a face normal has magnitude below 1e-15; its
    contribution to vertex normals is skipped."""


class RankDeficient(UserWarning):
    """Requested more PCA components than the data rank supports."""


class TableRenormalized(UserWarning):
    """Categorical table weights were off from 1 by less than 1e-6."""
