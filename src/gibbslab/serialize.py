"""Deterministic JSON/CSV serialization and schema-checked loaders.

Numbers are rendered at fixed significant-digit counts: 17 in JSON (so
doubles round-trip exactly) and 12 in CSV (readability).  Output is a
pure function of the value tree, so two runs that compute the same
numbers produce byte-identical files.

Schemas:
  * distribution: {"alphabet": [...labels...], "weights": [...]}; a
    two-alphabet table flattens row-major with pair labels;
  * learning problem: {"samples": [...], "hypotheses": [...],
    "loss": [[...per-sample row per hypothesis...]], "prior": [...],
    "data": {"iid": [...]} or
    {"joint": {"tuples": [[...n labels...], ...], "weights": [...]}},
    "n": int}; joint tuples not listed get probability zero;
  * wells: [{"minimizer": [...], "hessian": [[...]], "weight": x}, ...].

Loaders raise ConfigInvalid carrying the JSON path of the offending
element.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Sequence

import numpy as np

from .asymptotics import WellSample
from .errors import ConfigInvalid, GibbsLabError
from .gibbs import IIDData, JointData, LearningProblem
from .probability import ProbVec

JSON_SIG = 17
CSV_SIG = 12


def format_float(value: float, sig: int = JSON_SIG) -> str:
    """Scientific notation with the given count of significant digits."""
    if not isinstance(value, (int, float)):
        raise ConfigInvalid(f"cannot format {type(value).__name__} as a float")
    value = float(value)
    if not np.isfinite(value):
        raise ConfigInvalid(f"non-finite value {value!r} cannot be serialized")
    return f"{value:.{sig - 1}e}"


def _render(obj: object, indent: int, sig: int) -> str:
    pad = " " * indent
    child = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj), sig)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ConfigInvalid(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{child}{json.dumps(key)}: {_render(value, indent + 2, sig)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{child}{_render(value, indent + 2, sig)}" for value in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise ConfigInvalid(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj: object, sig: int = JSON_SIG) -> str:
    """Deterministic JSON text with fixed-precision floats."""
    return _render(obj, 0, sig) + "\n"


def write_json(path: str, obj: object, sig: int = JSON_SIG) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_json(obj, sig))


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value), CSV_SIG)
    return str(value)


def dumps_csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV text with 12-significant-digit floats and a header row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_csv_cell(cell) for cell in row])
    return buffer.getvalue()


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(dumps_csv(header, rows))


def load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read {path}: {exc}", path="") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path} is not valid JSON: {exc}", path="") from exc


def _expect(obj: object, types: tuple, path: str, what: str):
    if not isinstance(obj, types):
        raise ConfigInvalid(
            f"expected {what}, got {type(obj).__name__}", path=path
        )
    return obj


def _float_list(obj: object, path: str) -> list[float]:
    seq = _expect(obj, (list,), path, "an array of numbers")
    values = []
    for i, item in enumerate(seq):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigInvalid(f"expected a number, got {item!r}", path=f"{path}[{i}]")
        values.append(float(item))
    return values


def _label_list(obj: object, path: str) -> list:
    seq = _expect(obj, (list,), path, "an array of labels")
    if not seq:
        raise ConfigInvalid("alphabet must be nonempty", path=path)
    labels = []
    for i, item in enumerate(seq):
        if isinstance(item, bool) or not isinstance(item, (str, int)):
            raise ConfigInvalid(
                f"labels must be strings or integers, got {item!r}", path=f"{path}[{i}]"
            )
        labels.append(item)
    if len(set(labels)) != len(labels):
        raise ConfigInvalid("labels must be unique", path=path)
    return labels


def probvec_to_obj(vec: ProbVec) -> dict:
    return {"alphabet": list(vec.alphabet), "weights": list(map(float, vec.weights))}


def probvec_from_obj(obj: object, path: str = "") -> ProbVec:
    body = _expect(obj, (dict,), path, "a distribution object")
    if set(body) != {"alphabet", "weights"}:
        raise ConfigInvalid(
            f"distribution needs exactly the keys alphabet and weights, got {sorted(body)}",
            path=path,
        )
    labels = _label_list(body["alphabet"], f"{path}.alphabet")
    weights = _float_list(body["weights"], f"{path}.weights")
    try:
        return ProbVec(np.array(weights), tuple(labels))
    except GibbsLabError as exc:
        raise ConfigInvalid(str(exc), path=path) from exc


def problem_to_obj(problem: LearningProblem) -> dict:
    if problem.is_iid():
        data = {"iid": list(map(float, problem.data_model.marginal.weights))}
    else:
        weights = problem.data_model.weights
        labels = problem.dataset_labels()
        tuples = []
        kept = []
        for k, w in enumerate(weights):
            if w > 0.0:
                tuples.append(list(labels[k]))
                kept.append(float(w))
        data = {"joint": {"tuples": tuples, "weights": kept}}
    return {
        "samples": list(problem.sample_alphabet),
        "hypotheses": list(problem.hypothesis_set),
        "loss": [list(map(float, row)) for row in problem.loss],
        "prior": list(map(float, problem.prior.weights)),
        "data": data,
        "n": problem.n,
    }


def problem_from_obj(obj: object, path: str = "") -> LearningProblem:
    body = _expect(obj, (dict,), path, "a learning problem object")
    required = {"samples", "hypotheses", "loss", "prior", "data", "n"}
    if set(body) != required:
        raise ConfigInvalid(
            f"learning problem needs exactly the keys {sorted(required)}, got {sorted(body)}",
            path=path,
        )
    samples = _label_list(body["samples"], f"{path}.samples")
    hypotheses = _label_list(body["hypotheses"], f"{path}.hypotheses")
    loss_obj = _expect(body["loss"], (list,), f"{path}.loss", "an array of loss rows")
    if len(loss_obj) != len(hypotheses):
        raise ConfigInvalid(
            f"loss has {len(loss_obj)} rows for {len(hypotheses)} hypotheses",
            path=f"{path}.loss",
        )
    loss = [_float_list(row, f"{path}.loss[{i}]") for i, row in enumerate(loss_obj)]
    for i, row in enumerate(loss):
        if len(row) != len(samples):
            raise ConfigInvalid(
                f"loss row has {len(row)} entries for {len(samples)} samples",
                path=f"{path}.loss[{i}]",
            )
    prior = _float_list(body["prior"], f"{path}.prior")
    n = body["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigInvalid(f"n must be a positive integer, got {n!r}", path=f"{path}.n")
    data = _expect(body["data"], (dict,), f"{path}.data", "a data model object")
    if set(data) == {"iid"}:
        marginal = _float_list(data["iid"], f"{path}.data.iid")
        if len(marginal) != len(samples):
            raise ConfigInvalid(
                f"iid law has {len(marginal)} weights for {len(samples)} samples",
                path=f"{path}.data.iid",
            )
        try:
            model: IIDData | JointData = IIDData(ProbVec(np.array(marginal), tuple(samples)))
        except GibbsLabError as exc:
            raise ConfigInvalid(str(exc), path=f"{path}.data.iid") from exc
    elif set(data) == {"joint"}:
        joint = _expect(data["joint"], (dict,), f"{path}.data.joint", "a joint law object")
        if set(joint) != {"tuples", "weights"}:
            raise ConfigInvalid(
                "joint law needs exactly the keys tuples and weights",
                path=f"{path}.data.joint",
            )
        tuples = _expect(
            joint["tuples"], (list,), f"{path}.data.joint.tuples", "an array of tuples"
        )
        weights = _float_list(joint["weights"], f"{path}.data.joint.weights")
        if len(tuples) != len(weights):
            raise ConfigInvalid(
                f"{len(tuples)} tuples but {len(weights)} weights",
                path=f"{path}.data.joint",
            )
        position = {label: k for k, label in enumerate(samples)}
        full = np.zeros(len(samples) ** n)
        seen = set()
        for t, entry in enumerate(tuples):
            here = f"{path}.data.joint.tuples[{t}]"
            labels = _expect(entry, (list,), here, "an array of sample labels")
            if len(labels) != n:
                raise ConfigInvalid(f"tuple has length {len(labels)}, expected n={n}", path=here)
            index = 0
            for label in labels:
                if isinstance(label, bool) or label not in position:
                    raise ConfigInvalid(f"unknown sample label {label!r}", path=here)
                index = index * len(samples) + position[label]
            if index in seen:
                raise ConfigInvalid("duplicate tuple", path=here)
            seen.add(index)
            full[index] = weights[t]
        try:
            model = JointData(full)
        except GibbsLabError as exc:
            raise ConfigInvalid(str(exc), path=f"{path}.data.joint") from exc
    else:
        raise ConfigInvalid(
            f"data must hold exactly one of the keys iid or joint, got {sorted(data)}",
            path=f"{path}.data",
        )
    try:
        return LearningProblem(
            sample_alphabet=tuple(samples),
            hypothesis_set=tuple(hypotheses),
            loss=np.array(loss),
            prior=ProbVec(np.array(prior), tuple(hypotheses)),
            data_model=model,
            n=n,
        )
    except GibbsLabError as exc:
        raise ConfigInvalid(str(exc), path=path) from exc


def wells_from_obj(obj: object, path: str = "") -> list[WellSample]:
    seq = _expect(obj, (list,), path, "an array of well samples")
    if not seq:
        raise ConfigInvalid("at least one well sample is required", path=path)
    wells = []
    for i, entry in enumerate(seq):
        here = f"{path}[{i}]"
        body = _expect(entry, (dict,), here, "a well sample object")
        if set(body) != {"minimizer", "hessian", "weight"}:
            raise ConfigInvalid(
                "well sample needs exactly the keys minimizer, hessian, weight",
                path=here,
            )
        minimizer = _float_list(body["minimizer"], f"{here}.minimizer")
        hessian_rows = _expect(
            body["hessian"], (list,), f"{here}.hessian", "an array of matrix rows"
        )
        hessian = [
            _float_list(row, f"{here}.hessian[{j}]") for j, row in enumerate(hessian_rows)
        ]
        weight = body["weight"]
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ConfigInvalid(f"weight must be a number, got {weight!r}", path=f"{here}.weight")
        try:
            wells.append(
                WellSample(
                    minimizer=np.array(minimizer),
                    hessian=np.array(hessian),
                    weight=float(weight),
                )
            )
        except (GibbsLabError, ValueError) as exc:
            # ragged hessian rows surface from numpy as a plain ValueError
            raise ConfigInvalid(str(exc), path=here) from exc
    return wells
