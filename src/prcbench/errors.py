"""Exception types shared across the toolkit, and the JSON file reader
that raises SchemaError for malformed documents."""

import json
from pathlib import Path


class PrcBenchError(Exception):
    """Base class for all toolkit errors."""


class InvalidDimensionError(PrcBenchError, ValueError):
    """Qubit count or depth outside the supported range."""


class CapacityError(PrcBenchError, ValueError):
    """Simulation request exceeds the statevector memory guard."""


class DecompositionError(PrcBenchError, ValueError):
    """Two-qubit decomposition failed (e.g. non-unitary input)."""


class NothingToOptimizeError(PrcBenchError, ValueError):
    """Circuit has no peaking layers, so there are no parameters to tune."""


class UndefinedMetricError(PrcBenchError, ValueError):
    """Metric is undefined for the given histogram (e.g. zero frequencies)."""


class DomainMismatchError(PrcBenchError, ValueError):
    """Two benchmark matrices do not share the same (n, d) grid."""


class SchemaError(PrcBenchError, ValueError):
    """Persisted document is malformed or has an unsupported schema version."""


def read_json(path):
    """The JSON document in a file; invalid JSON raises SchemaError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
