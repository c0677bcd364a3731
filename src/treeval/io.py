"""File loading for the CLI: trees with optional asset prices, cash
balances, family descriptors, and one-step pricing weights.

Every file is one JSON object; decimals parse to 64-bit floats and unknown
fields are rejected so typos fail loudly.  NaN, Infinity and integers
beyond the float range are rejected while parsing; decimals beyond it
parse to infinity, which the finiteness checks on numbers and probability
vectors reject.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError
from .families import (
    CRRAUtility,
    EntropicParams,
    ExponentialUtility,
    entropic_family,
    entropic_params,
    ui_family,
    ui_params,
    worst_case_family,
    worst_case_params,
)
from .market import Market, market
from .tree import CashBalance, NodeRecord, Tree, build_tree
from .valuation import ValuationFamily


def _load_object(path) -> dict:
    def reject(token: str):
        raise ValidationError(f"{path}: numbers must be finite, got {token}")

    def whole(token: str) -> int:
        if not math.isfinite(float(token)):
            reject(token)
        return int(token)

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_int=whole, parse_constant=reject)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path} must contain one JSON object")
    return data


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"unknown fields in {where}: {sorted(unknown)}")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValidationError(f"{where} must be a finite number, got {value!r}")
    return float(value)


@dataclass
class TreeDocument:
    tree: Tree
    market: Market | None


def load_tree_document(path) -> TreeDocument:
    data = _load_object(path)
    _reject_unknown(data, {"nodes", "assets"}, f"{path}")
    if "nodes" not in data or not isinstance(data["nodes"], list):
        raise ValidationError(f"{path} needs a 'nodes' array")
    records = []
    for entry in data["nodes"]:
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}: each node must be an object")
        _reject_unknown(entry, {"id", "parent", "weight"}, f"node entry of {path}")
        for field in ("id", "parent", "weight"):
            if field not in entry:
                raise ValidationError(f"{path}: node entry missing {field!r}")
        node_id = entry["id"]
        parent = entry["parent"]
        if parent is not None and not isinstance(parent, str):
            raise ValidationError(f"{path}: parent of {node_id!r} must be a string or null")
        records.append(NodeRecord(
            id=node_id if isinstance(node_id, str) else str(node_id),
            parent=parent,
            weight=_number(entry["weight"], f"weight of {node_id!r}"),
        ))
    tree = build_tree(records)

    mkt = None
    if "assets" in data:
        if not isinstance(data["assets"], list) or not data["assets"]:
            raise ValidationError(f"{path}: 'assets' must be a nonempty array")
        table = {}
        for entry in data["assets"]:
            if not isinstance(entry, dict):
                raise ValidationError(f"{path}: each asset must be an object")
            _reject_unknown(entry, {"name", "prices"}, f"asset entry of {path}")
            if "name" not in entry or "prices" not in entry or not isinstance(entry["prices"], dict):
                raise ValidationError(f"{path}: assets need 'name' and a 'prices' object")
            table[str(entry["name"])] = {
                node: _number(v, f"price of {entry['name']!r} at {node!r}")
                for node, v in entry["prices"].items()
            }
        mkt = market(tree, table)
    return TreeDocument(tree=tree, market=mkt)


def load_cash(path, tree: Tree) -> CashBalance:
    data = _load_object(path)
    return CashBalance.from_mapping(
        tree, {node: _number(v, f"cash at {node!r}") for node, v in data.items()})


@dataclass
class LoadedFamily:
    kind: str
    family: ValuationFamily
    entropic: EntropicParams | None
    descriptor: dict


def load_family(path, tree: Tree) -> LoadedFamily:
    data = _load_object(path)
    kind = data.get("family")
    if kind == "entropic":
        _reject_unknown(data, {"family", "gamma"}, f"{path}")
        if "gamma" not in data:
            raise ValidationError(f"{path}: entropic family needs 'gamma'")
        params = entropic_params(tree, _number(data["gamma"], "gamma"))
        return LoadedFamily("entropic", entropic_family(params), params, data)
    if kind == "worst":
        _reject_unknown(data, {"family", "alphas", "stopping"}, f"{path}")
        if not isinstance(data.get("alphas"), dict):
            raise ValidationError(f"{path}: worst-case family needs an 'alphas' object")
        stopping = data.get("stopping", True)
        if not isinstance(stopping, bool):
            raise ValidationError(f"{path}: 'stopping' must be a boolean")
        params = worst_case_params(tree, data["alphas"], stopping)
        return LoadedFamily("worst", worst_case_family(params), None, data)
    if kind == "ui":
        _reject_unknown(data, {"family", "utility", "R", "x0", "gamma"}, f"{path}")
        utility_tag = data.get("utility")
        if utility_tag == "crra":
            if "R" not in data or "x0" not in data:
                raise ValidationError(f"{path}: CRRA descriptor needs 'R' and 'x0'")
            utility = CRRAUtility(_number(data["R"], "R"))
            x0 = _number(data["x0"], "x0")
        elif utility_tag == "exponential":
            if "gamma" not in data:
                raise ValidationError(f"{path}: exponential descriptor needs 'gamma'")
            utility = ExponentialUtility(_number(data["gamma"], "gamma"))
            x0 = _number(data.get("x0", 0.0), "x0")
        else:
            raise ValidationError(f"{path}: utility must be 'crra' or 'exponential'")
        params = ui_params(tree, utility, x0)
        return LoadedFamily("ui", ui_family(params), None, data)
    raise ValidationError(f"{path}: family must be one of 'entropic', 'worst', 'ui'")


def load_prices(path, tree: Tree) -> dict[str, list[float]]:
    data = _load_object(path)
    _reject_unknown(data, {"one_step_prices"}, f"{path}")
    if not isinstance(data.get("one_step_prices"), dict):
        raise ValidationError(f"{path} needs a 'one_step_prices' object")
    out = {}
    for node, weights in data["one_step_prices"].items():
        if not isinstance(weights, list):
            raise ValidationError(f"{path}: weights at {node!r} must be an array")
        out[node] = [_number(w, f"weight at {node!r}") for w in weights]
    return out


def digest(path) -> str:
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
