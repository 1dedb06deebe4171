"""The one schema, data/runconfig.schema.json, and its checker. Its root is
the run config; its ``$defs`` give each spec dataclass's field types, enums
and single-field bounds, written nowhere else. A ``Spec`` holds its defaults
and the rules a schema cannot state, and checks itself when it is made."""

from __future__ import annotations

import copy
import functools
import json
import numbers
import operator
from contextlib import contextmanager
from importlib import resources

from .exceptions import ConfigurationError, FormatError


class SchemaError(ConfigurationError, FormatError):
    """A document breaks a rule of its schema or of its spec's code (so a bad
    spec file is both errors). ``pointer`` is the JSON pointer of the value
    at fault in the document checked, "" for the document itself."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer or '/'}: {message}")
        self.pointer, self.message = pointer, message


@contextmanager
def pointed(prefix: str):
    """Place the errors of a spec made inside at ``prefix``, where it sits in
    its document: a ``SchemaError``'s pointer goes after ``prefix``, and any
    other ``ConfigurationError`` becomes one at ``prefix``."""
    try:
        yield
    except SchemaError as err:
        raise SchemaError(prefix + err.pointer, err.message) from None
    except ConfigurationError as err:
        raise SchemaError(prefix, str(err)) from None


_JSON_TYPES = {"object": dict, "array": (list, tuple), "string": str, "boolean": bool,
               "integer": numbers.Integral, "number": numbers.Real, "null": type(None)}


@functools.cache
def run_config_schema() -> dict:
    """The published schema (data/runconfig.schema.json)."""
    return json.loads((resources.files("loglens") / "data" / "runconfig.schema.json")
                      .read_text(encoding="utf-8"))


def _resolve(ref: str) -> dict:
    """The node of ``run_config_schema()`` a local ``$ref`` names."""
    node = run_config_schema()
    for part in ref.removeprefix("#/").split("/"):
        node = node[part]
    return node


def schema_default(ref: str):
    """The ``default`` of the schema node ``ref`` names: where a Python
    parameter reads a run-config default, which only the schema writes."""
    return _resolve(ref)["default"]


def check_schema(doc, schema: dict, pointer: str = "") -> None:
    """Check ``doc`` against one schema node and fill in its defaults in
    place. Covers only the keywords the schema uses; a ``$ref`` points into
    ``run_config_schema()``, and of its siblings only the ``default`` its
    parent fills in is read. Booleans are never numbers, an integer is never
    a float such as 3.0, and a tuple is an array."""
    if "$ref" in schema:
        return check_schema(doc, _resolve(schema["$ref"]), pointer)
    kinds = schema.get("type", [])
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if kinds and not any(isinstance(doc, _JSON_TYPES[kind])
                         and isinstance(doc, bool) == (kind == "boolean")
                         for kind in kinds):
        got = "null" if doc is None else type(doc).__name__
        raise SchemaError(pointer, f"expected {' or '.join(kinds)}, got {got}")
    if "enum" in schema and doc not in schema["enum"]:
        raise SchemaError(pointer, f"must be one of {', '.join(schema['enum'])}")
    for key, holds, text in (("minimum", operator.ge, ">="),
                             ("exclusiveMinimum", operator.gt, ">"),
                             ("maximum", operator.le, "<="),
                             ("exclusiveMaximum", operator.lt, "<")):
        if (key in schema and isinstance(doc, numbers.Real)
                and not holds(doc, schema[key])):  # NaN holds none
            raise SchemaError(pointer, f"must be {text} {schema[key]}")
    if isinstance(doc, (list, tuple)):
        if len(doc) < schema.get("minItems", 0):
            raise SchemaError(pointer, f"needs at least {schema['minItems']} item(s)")
        for i, item in enumerate(doc):
            check_schema(item, schema.get("items", {}), f"{pointer}/{i}")
    if isinstance(doc, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in doc:
                raise SchemaError(f"{pointer}/{key}", "required key missing")
        for key, sub in properties.items():
            if key not in doc and "default" in sub:
                doc[key] = copy.deepcopy(sub["default"])
        for key, value in doc.items():
            if key in properties:
                check_schema(value, properties[key], f"{pointer}/{key}")
            elif schema.get("additionalProperties") is False:
                raise SchemaError(f"{pointer}/{key}", "unknown key")


class Spec:
    """Base of a dataclass whose fields the ``$defs`` entry named by its
    class attribute ``definition`` describes; making one checks them, then a
    subclass's ``__post_init__`` adds its own rules."""

    definition: str

    def __post_init__(self):
        check_schema(vars(self), {"$ref": f"#/$defs/{self.definition}"})

    @classmethod
    def from_json(cls, doc):
        """The spec a JSON object of the definition's keys describes. Only what
        would stop ``cls(**doc)`` is checked here; the values are checked once,
        when the spec is made."""
        node = run_config_schema()["$defs"][cls.definition]
        check_schema(doc, {"type": "object", "additionalProperties": False,
                           "required": node.get("required", []),
                           "properties": dict.fromkeys(node["properties"], {})})
        return cls(**doc)
