"""Program serialization.

Programs round-trip through a tagged JSON encoding: every AST node becomes
``{"node": <type>, "fields": {...}}``, tuples become ``{"seq": [...]}``, and
frozensets become ``{"set": [...]}`` in sorted order. Host UDF callables are
not serialized; on load they are reattached from the process-wide registry
by name.
"""

from __future__ import annotations

import dataclasses
import json

from . import ir
from .lattice import order_key

_NODE_TYPES = {
    cls.__name__: cls
    for cls in (
        ir.Lit, ir.Var, ir.Field, ir.Data, ir.Lookup, ir.BinOp, ir.Not,
        ir.In, ir.TupleOf, ir.Record, ir.MakeRow, ir.Gen, ir.Comp, ir.Fold,
        ir.Len, ir.RangeOf, ir.Index, ir.Slice,
        ir.TargetPath, ir.MergeMutation, ir.Assign, ir.Delete, ir.Send,
        ir.Return, ir.UdfCall, ir.ForEach,
        ir.ClassDecl, ir.DataDecl, ir.ConsistencySpec, ir.Handler,
        ir.QueryDef, ir.UdfDecl, ir.AvailSpec, ir.TargetSpec, ir.Program,
    )
}

_UDF_REGISTRY: dict = {}


def register_udf(name: str, fn):
    """Make a host callable available to loaded programs under `name`."""
    _UDF_REGISTRY[name] = fn


def encode_node(v):
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        fields = {}
        for f in dataclasses.fields(v):
            if isinstance(v, ir.UdfDecl) and f.name == "fn":
                continue  # host callables are reattached on load
            fields[f.name] = encode_node(getattr(v, f.name))
        return {"node": type(v).__name__, "fields": fields}
    if isinstance(v, tuple):
        return {"seq": [encode_node(x) for x in v]}
    if isinstance(v, frozenset):
        return {"set": [encode_node(x) for x in sorted(v, key=order_key)]}
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    raise TypeError(f"cannot encode {v!r}")


def decode_node(v):
    if isinstance(v, dict):
        if "node" in v:
            cls = _NODE_TYPES[v["node"]]
            kw = {k: decode_node(x) for k, x in v["fields"].items()}
            if cls is ir.UdfDecl:
                kw["fn"] = _UDF_REGISTRY.get(kw["name"])
            if cls is ir.TupleOf:  # variadic constructor
                return cls(*kw["items"])
            return cls(**kw)
        if "seq" in v:
            return tuple(decode_node(x) for x in v["seq"])
        if "set" in v:
            return frozenset(decode_node(x) for x in v["set"])
        raise ValueError(f"unknown tagged value: {v!r}")
    if isinstance(v, list):
        return tuple(decode_node(x) for x in v)
    return v


def program_to_json(p: ir.Program, indent=None) -> str:
    return json.dumps(encode_node(p), indent=indent, sort_keys=True)


def program_from_json(text: str) -> ir.Program:
    p = decode_node(json.loads(text))
    if not isinstance(p, ir.Program):
        raise ValueError("document does not describe a program")
    return p
