"""Exception types shared across the benchmark harness."""


class GseeBenchError(Exception):
    """Base class for all harness-specific errors."""


# --- FCIDUMP I/O ---

class MissingHeaderField(GseeBenchError):
    """A required namelist field (NORB, NELEC) is absent."""


class MalformedLine(GseeBenchError):
    """A data line has the wrong token count or an unparsable token."""


class IndexOutOfRange(GseeBenchError):
    """An orbital index lies outside the declared basis."""


class ConflictingDuplicate(GseeBenchError):
    """Symmetry-equivalent integral entries disagree beyond tolerance."""


class InvalidFciDump(GseeBenchError):
    """Integral data violates a structural invariant (shape, symmetry, spin)."""


# --- instance catalog ---

class SchemaViolation(GseeBenchError):
    """A problem or solution file is missing a required field or has a wrong type."""


class DuplicateTaskUuid(GseeBenchError):
    """The same task identifier appears more than once."""


class TaskMismatch(GseeBenchError):
    """A solution entry was evaluated against the wrong task."""


# --- feature computation ---

class InvalidOccupation(GseeBenchError):
    """Electron counts exceed the available orbitals."""


class EigenFailure(GseeBenchError):
    """An eigendecomposition failed to converge."""


class InsufficientRows(GseeBenchError):
    """A table-level statistic needs more rows than were provided."""


# --- Pauli algebra / oracle ---

class TooLarge(GseeBenchError):
    """A dense or exact computation exceeds its configured size cap."""


class InconsistentBasis(GseeBenchError):
    """A determinant basis does not match the Hamiltonian it is paired with."""


# --- machine learning ---

class NonFiniteInput(GseeBenchError):
    """Input data contains NaN or infinity."""


class RankDeficient(GseeBenchError):
    """Latent fitting was asked for more components than the data supports."""


class SingleClass(GseeBenchError):
    """Classifier training data contains only one class."""


class TooFewSamples(GseeBenchError):
    """Not enough samples for the requested cross-validation split."""


class DimensionMismatch(GseeBenchError):
    """Query features do not match the trained model's dimensionality."""


class LengthMismatch(GseeBenchError):
    """Paired sequences have different lengths."""


# --- CLI / pipeline ---

class EmptyCatalog(GseeBenchError):
    """No problem instances were found under the catalog root."""


class InsufficientLabels(GseeBenchError):
    """Too few labeled outcomes to train a solvability model."""
