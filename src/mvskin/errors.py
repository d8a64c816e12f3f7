"""Exception types raised by the mvskin package.

Every failure mode that callers are expected to handle gets its own class;
plain ValueError is reserved for malformed arguments (wrong shapes, bad
enum values and the like).
"""


class MvskinError(Exception):
    """Base class for all package errors."""


# -- algebra ---------------------------------------------------------------

class SingularVersor(MvskinError):
    """Versor has (near-)zero scalar norm and cannot be inverted."""


class PointAtInfinity(MvskinError):
    """Conformal point has no finite Euclidean representative."""


class DegenerateBlend(MvskinError):
    """Quaternion nlerp collapsed to (near-)zero norm."""


class NonConformalMatrix(MvskinError):
    """4x4 matrix is not translation * rotation * uniform scale."""


# -- rig loading / validation ----------------------------------------------

class RigError(MvskinError):
    """Base class for rig document and model validation errors."""


class SchemaError(RigError):
    """Rig or script document violates the declared schema."""


class HierarchyError(RigError):
    """Bone parent ids do not form a tree with a single root."""


class WeightSumError(RigError):
    """Vertex influence weights are negative, too many, or do not sum to 1."""


class MeshError(RigError):
    """Faces are not an orientable triangle manifold with boundary."""


class OffsetError(RigError):
    """Bone offset is not the inverse of its global bind transform."""


# -- animation ---------------------------------------------------------------

class NumericalFailure(MvskinError):
    """Skinning produced a non-finite vertex position."""


# -- cutting -----------------------------------------------------------------

class NonManifoldCut(MvskinError):
    """A cut edge is shared by more than two faces."""


# -- tearing -----------------------------------------------------------------

class NoIntersection(MvskinError):
    """Scalpel segment does not cross the surface."""


class AmbiguousIntersection(MvskinError):
    """Scalpel segment crosses the surface more than once."""

    def __init__(self, message: str, count: int = 0):
        super().__init__(message)
        self.count = count


class DegenerateTearStep(MvskinError):
    """A scalpel's endpoints coincide, or a step is (near-)collinear; no segment or tear plane exists."""


class PathNotFound(MvskinError):
    """Surface walk along the tear plane never reached the target anchor."""


# -- CLI ---------------------------------------------------------------------

class ScriptError(MvskinError):
    """Animation script document is malformed or inconsistent with the model."""
