"""Dependency-free validation of telemetry artifacts.

The telemetry artifacts are a published interface: external tooling may
parse ``trace.jsonl`` and ``telemetry.json`` long after the toolchain
that wrote them is gone.  The interface is pinned by JSON schemas
checked in under ``docs/schemas/`` and enforced in CI; this module
implements the small subset of JSON Schema those files use (``type``,
``required``, ``properties``, ``items``, ``enum``, ``minimum``,
``additionalProperties``), so validation needs no third-party
``jsonschema`` package.

Run as a module to validate one experiment result folder::

    python -m repro.telemetry.schema <experiment folder>
"""

from __future__ import annotations

import functools
import json
import os
from typing import Any, List, Union

from repro.telemetry.artifacts import ArtifactFolder
from repro.telemetry.jsonl import read_jsonl

__all__ = [
    "SchemaError",
    "validate",
    "validate_experiment",
    "validate_history",
    "validate_study",
    "schema_dir",
]

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


class SchemaError(ValueError):
    """An instance does not conform to its schema."""


def _type_ok(value: Any, name: str) -> bool:
    expected = _TYPES[name]
    if name in ("integer", "number") and isinstance(value, bool):
        return False
    return isinstance(value, expected)


def validate(instance: Any, schema: dict, path: str = "$") -> None:
    """Validate ``instance`` against the supported JSON Schema subset."""
    declared = schema.get("type")
    if declared is not None:
        names = declared if isinstance(declared, list) else [declared]
        if not any(_type_ok(instance, name) for name in names):
            raise SchemaError(
                f"{path}: expected {' or '.join(names)}, "
                f"got {type(instance).__name__}"
            )
    if "enum" in schema and instance not in schema["enum"]:
        raise SchemaError(
            f"{path}: {instance!r} is not one of {schema['enum']!r}"
        )
    if "minimum" in schema and isinstance(instance, (int, float)) \
            and not isinstance(instance, bool):
        if instance < schema["minimum"]:
            raise SchemaError(
                f"{path}: {instance!r} is below minimum {schema['minimum']!r}"
            )
    if isinstance(instance, dict):
        for name in schema.get("required", []):
            if name not in instance:
                raise SchemaError(f"{path}: missing required key {name!r}")
        properties = schema.get("properties", {})
        for name, value in instance.items():
            if name in properties:
                validate(value, properties[name], f"{path}.{name}")
            elif schema.get("additionalProperties") is False:
                raise SchemaError(f"{path}: unexpected key {name!r}")
            elif isinstance(schema.get("additionalProperties"), dict):
                validate(
                    value, schema["additionalProperties"], f"{path}.{name}"
                )
    if isinstance(instance, list) and isinstance(schema.get("items"), dict):
        for position, value in enumerate(instance):
            validate(value, schema["items"], f"{path}[{position}]")


def schema_dir() -> str:
    """Location of the checked-in schema files (``docs/schemas/``)."""
    return os.path.normpath(
        os.path.join(
            os.path.dirname(__file__), "..", "..", "..", "docs", "schemas"
        )
    )


@functools.lru_cache(maxsize=None)
def _load_schema(name: str) -> dict:
    with open(
        os.path.join(schema_dir(), name), "r", encoding="utf-8"
    ) as handle:
        return json.load(handle)


def _check(instance: Any, schema_name: str, where: str) -> None:
    """:func:`validate` against a checked-in schema, naming ``where``."""
    try:
        validate(instance, _load_schema(schema_name))
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


#: Deterministic traces: strict, every line must parse.
_TRACES = (
    ("trace.jsonl", "trace.schema.json"),
    ("fleet-trace.jsonl", "fleet-trace.schema.json"),
)

#: Evidence sidecars: a torn tail (a crashed writer's last line) is
#: evidence, not a violation; complete records must conform.
_SIDECARS = (
    ("dispatch.jsonl", "dispatch.schema.json"),
    ("cache.jsonl", "cache.schema.json"),
)

#: JSON aggregates, each run's snapshots slotted in between.
_AGGREGATES = (
    ("telemetry.json", "telemetry.schema.json"),
    ("health.json", "health.schema.json"),
)
_RUN_SNAPSHOTS = (
    ("telemetry.json", "run-telemetry.schema.json"),
    ("health.json", "run-health.schema.json"),
)
# Comparative-analysis reports saved back into the tree (`pos diff
# --save`, `pos doctor --save`) are part of the published interface too.
_REPORTS = (
    ("diff.json", "diff.schema.json"),
    ("doctor.json", "doctor.schema.json"),
)


def validate_experiment(
    experiment: Union[str, ArtifactFolder],
) -> List[str]:
    """Validate every telemetry artifact in one result folder.

    ``experiment`` is a result folder or an already open tree (study
    audit shares one tree with ``pos doctor``).  Returns the list of
    validated files; raises :class:`SchemaError` (with the file and
    JSON path) on the first violation or unparsable file.
    """
    folder = (
        experiment if isinstance(experiment, ArtifactFolder)
        else ArtifactFolder(experiment, SchemaError)
    )
    root = folder.path
    validated: List[str] = []
    for name, schema_name in _TRACES:
        path = os.path.join(root, name)
        if not os.path.isfile(path):
            continue
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise SchemaError(
                        f"{path}:{number}: not valid JSON: {exc}"
                    ) from exc
                _check(record, schema_name, f"{path}:{number}")
        validated.append(path)

    for name, schema_name in _SIDECARS:
        path = os.path.join(root, name)
        records = folder.jsonl(name)
        if records is None:
            continue
        for number, record in enumerate(records, start=1):
            _check(record, schema_name, f"{path}:{number}")
        validated.append(path)

    runs = [
        (os.path.join(run, name), schema_name)
        for run in sorted(os.listdir(root)) if run.startswith("run-")
        for name, schema_name in _RUN_SNAPSHOTS
    ]
    for name, schema_name in [*_AGGREGATES, *runs, *_REPORTS]:
        try:
            payload = folder.json(name)
        except folder.error as exc:  # torn, in the folder's error class
            raise SchemaError(str(exc)) from exc
        if payload is None:
            continue
        path = os.path.join(root, name)
        _check(payload, schema_name, path)
        validated.append(path)
    return validated


def validate_history(history_dir: str) -> List[str]:
    """Validate a perf-history ledger (``history.jsonl``) record by record.

    The ledger is append-only with one flushed write per record, so —
    like the evidence sidecars — a torn final line is tolerated; every
    complete record must conform.
    """
    history_path = os.path.join(history_dir, "history.jsonl")
    if not os.path.isfile(history_path):
        raise SchemaError(f"no history.jsonl in {history_dir}")
    for number, record in enumerate(read_jsonl(history_path), start=1):
        _check(record, "perf-history.schema.json", f"{history_path}:{number}")
    return [history_path]


def validate_study(study_dir: str) -> List[str]:
    """Validate a study tree's own artifacts (aggregate + journal).

    The per-experiment artifacts below the replications are covered by
    :func:`validate_experiment`; this checks the study layer's two
    published files: ``study.json`` against its schema, and every
    complete ``study.jsonl`` record (the journal is append-only with
    one flushed write per record, so — like the evidence sidecars — a
    torn final line is tolerated).
    """
    validated: List[str] = []
    aggregate_path = os.path.join(study_dir, "study.json")
    if not os.path.isfile(aggregate_path):
        raise SchemaError(f"no study.json in {study_dir}")
    with open(aggregate_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    _check(payload, "study.schema.json", aggregate_path)
    validated.append(aggregate_path)

    journal_path = os.path.join(study_dir, "study.jsonl")
    if os.path.isfile(journal_path):
        for number, record in enumerate(read_jsonl(journal_path), start=1):
            _check(
                record, "study-journal.schema.json",
                f"{journal_path}:{number}",
            )
        validated.append(journal_path)
    return validated


def _main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m repro.telemetry.schema <experiment folder>")
        return 2
    try:
        validated = validate_experiment(argv[0])
    except SchemaError as exc:
        print(f"schema violation: {exc}")
        return 1
    if not validated:
        print(f"no telemetry artifacts found in {argv[0]}")
        return 1
    for path in validated:
        print(f"valid: {path}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(_main(sys.argv[1:]))
