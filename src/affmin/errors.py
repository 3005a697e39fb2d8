"""Exception types shared by all affmin modules."""


class AffminError(Exception):
    """Base class for all errors raised by this package."""


class DomainTooSmall(AffminError):
    """A grid domain is too small for the requested stencil."""


class DomainMismatch(AffminError):
    """Two grids that must live on compatible domains do not."""


class NotHarmonic(AffminError):
    """A co-normal vertex grid fails the mixed-difference harmonicity test.

    Attributes:
        max_residual: worst |mixed difference| component over all faces.
        faces: (u, v) indices of the faces whose residual exceeds tolerance,
            the worst first, then in row-major order.
    """

    def __init__(self, max_residual, faces):
        self.max_residual = max_residual
        self.faces = list(faces)
        super().__init__(
            f"co-normal field is not harmonic: max residual {max_residual:.3e} "
            f"on {len(self.faces)} face(s), worst first: {self.faces[:4]}"
        )


class NonConvexFace(AffminError):
    """The area density F is not strictly positive on some face.

    Attributes:
        face: (u, v) index of the offending face (value stored at u+1/2, v+1/2).
        value: the offending F value.
    """

    def __init__(self, face, value, detail=""):
        self.face = face
        self.value = value
        msg = f"non-positive area density F={value:.6g} at face {face}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NonPositiveVolume(AffminError):
    """A face of an immersion has non-positive quadrangle volume M.

    Attributes:
        face: (u, v) index of the offending face.
        value: the offending M value.
    """

    def __init__(self, face, value):
        self.face = face
        self.value = value
        super().__init__(f"non-positive face volume M={value:.6g} at face {face}")


class IllDefinedForm(AffminError):
    """The cubic-form determinant disagrees across adjacent face choices.

    Attributes:
        vertex: (u, v) index of the vertex with the largest relative spread.
        spread: that spread, as ``max_spread_u`` or ``max_spread_v`` reports it.
    """

    def __init__(self, vertex, spread):
        self.vertex = vertex
        self.spread = spread
        super().__init__(
            f"cubic form ill-defined at vertex {vertex}: relative face-choice spread {spread:.3e}"
        )


class SeedDeterminantMismatch(AffminError):
    """A reconstruction seed violates the corner determinant condition.

    Attributes:
        expected: the required determinant (F squared on the first face).
        actual: the seed's determinant.
    """

    def __init__(self, expected, actual):
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"seed determinant {actual:.12g} does not match required F^2 = {expected:.12g}"
        )


class IncompatibleData(AffminError):
    """Fundamental data admits no surface: the co-normal marched from it misses it.

    Attributes:
        face: (u, v) grid index of the worst miss: a face for F, a vertex for A or B.
        gap: the co-normal's miss there, relative to the largest F.
    """

    def __init__(self, face, gap):
        self.face = face
        self.gap = gap
        super().__init__(
            f"incompatible fundamental data: the co-normal misses it by {gap:.3e} at {face}"
        )


class DegenerateQuadrangle(AffminError):
    """The corner quadrangle spans no volume, so no affine map is determined."""


class NotEquivalent(AffminError):
    """No affine map carries one immersion onto the other.

    Attributes:
        vertex: (u, v) index of the worst-matching vertex.
        gap: relative mismatch at that vertex.
    """

    def __init__(self, vertex, gap):
        self.vertex = vertex
        self.gap = gap
        super().__init__(
            f"surfaces are not affine equivalent: gap {gap:.3e} at vertex {vertex}"
        )
