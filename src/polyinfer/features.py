"""Descriptor registry and feature vectors for monomer graphs.

The registry is derived deterministically from a training dataset: scalar
descriptors first, then per-key count families in sorted key order.  A
feature vector holds one real per descriptor; configurations that a graph
exhibits but the registry does not know go into an out-of-vocabulary
report instead of the vector.

A graph keeps its decomposition per rho (`twolayer.as_decomposition`),
so the registry and the feature matrix read one count profile per
dataset record.  `featurize` fills the vector through one column
index per registry (scalar columns, covariate columns, and per count
family a key -> column map) in one pass over the profile's count dicts,
which also collects the out-of-vocabulary keys.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .chemgraph import (
    ChemicalGraph,
    GraphError,
    parse_pmg,
    split_symbol,
)
from .twolayer import TwoLayeredDecomposition, as_decomposition

SCALAR_KINDS = ("n", "rank", "n_int", "ms_avg", "n_lnk")
FAMILY_KINDS = ("na", "ns_int", "ec_int", "ec_lnk", "ac_lf", "fc")  # count-profile families
# registry layout: scalars and families in this fixed order
KIND_ORDER = ("n", "rank", "n_int", "ms_avg", "na", "ns_int", "ec_int", "ec_lnk", "ac_lf", "fc", "n_lnk", "cov")
REAL_KINDS = {"ms_avg", "cov"}  # everything else is integer-valued


class FeatureError(ValueError):
    pass


@dataclass(frozen=True)
class Descriptor:
    kind: str
    key: str = ""

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.key}" if self.key else self.kind


class _Columns(NamedTuple):
    """Where each descriptor of a registry sits in its vectors."""

    scalars: tuple[tuple[int, str], ...]  # (column, kind)
    covariates: tuple[tuple[int, str], ...]  # (column, covariate name)
    families: dict[str, dict[str, int]]  # count family -> key -> column


@dataclass(frozen=True)
class DescriptorRegistry:
    rho: int
    descriptors: tuple[Descriptor, ...]

    def __len__(self) -> int:
        return len(self.descriptors)

    @property
    def names(self) -> list[str]:
        return [d.name for d in self.descriptors]

    def integer_indices(self) -> list[int]:
        return [j for j, d in enumerate(self.descriptors) if d.kind not in REAL_KINDS]

    def keys_of(self, kind: str) -> list[str]:
        return [d.key for d in self.descriptors if d.kind == kind]

    @cached_property
    def vocabulary(self) -> dict[str, frozenset[str]]:
        """Known keys per count family, built once per registry: the
        configurations the model has a descriptor for."""
        return {kind: frozenset(keys) for kind, keys in self.columns.families.items()}

    @cached_property
    def columns(self) -> _Columns:
        """The column of every descriptor, built once per registry; a key
        missing from its family's map is out of vocabulary."""
        scalars, covariates = [], []
        families: dict[str, dict[str, int]] = {kind: {} for kind in FAMILY_KINDS}
        for j, d in enumerate(self.descriptors):
            if d.kind in SCALAR_KINDS:
                scalars.append((j, d.kind))
            elif d.kind == "cov":
                covariates.append((j, d.key))
            elif d.kind in families and d.key not in families[d.kind]:
                families[d.kind][d.key] = j
            else:
                raise FeatureError(f"registry descriptor {d.name!r} is unknown or repeated")
        return _Columns(tuple(scalars), tuple(covariates), families)

    def to_json(self) -> str:
        payload = {
            "rho": self.rho,
            "descriptors": [{"kind": d.kind, "key": d.key} for d in self.descriptors],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "DescriptorRegistry":
        payload = json.loads(text)
        return cls(
            rho=int(payload["rho"]),
            descriptors=tuple(Descriptor(d["kind"], d["key"]) for d in payload["descriptors"]),
        )

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


@dataclass
class FeatureVector:
    values: np.ndarray
    oov: tuple[str, ...] = ()  # configurations unknown to the registry


# ---------------------------------------------------------------------------
# Dataset


@dataclass(frozen=True)
class DataRecord:
    """One training polymer: its graph, property value and covariates.
    The graph keeps its own decomposition per rho (`as_decomposition`), so
    the registry and the feature matrix decompose it once."""

    id: str
    graph: ChemicalGraph
    value: float
    covariates: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Dataset:
    records: tuple[DataRecord, ...]
    covariate_names: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.records], dtype=float)


@dataclass(frozen=True)
class EliminationReport:
    eliminated: tuple[tuple[str, str], ...]  # (id, reason)


def stage1_reason(g: ChemicalGraph) -> str | None:
    """Reason to drop a record, or None if it is usable."""
    for i, sym in g.atoms:
        if sym != "H" and g.heavy_neighbor_count(i) > 4:
            return f"atom {i} has {g.heavy_neighbor_count(i)} non-hydrogen neighbors"
    link_ends = {v for e in g.link_edges for v in e}
    if len(link_ends) < 2:
        return "fewer than two link-edge end-vertices"
    return None


def load_dataset(
    graph_dir: str | Path,
    values_csv: str | Path,
    max_abs_charge: int = 0,
) -> tuple[Dataset, EliminationReport]:
    """Read one PMG file per CSV id and apply the stage-1 elimination rules.

    CSV columns: id, value and optionally extra covariate columns (e.g. a
    measurement frequency).  Connectivity failures surface as parse errors
    and eliminate the record rather than aborting the load; max_abs_charge
    relaxes the neutral-molecule valence rule.  Each graph file is read
    once, with no check before it; a missing one is a FeatureError.
    """
    graph_dir = Path(graph_dir)
    rows: list[dict[str, str]] = []
    with open(values_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "id" not in reader.fieldnames or "value" not in reader.fieldnames:
            raise FeatureError("values CSV needs 'id' and 'value' columns")
        covariate_names = tuple(c for c in reader.fieldnames if c not in ("id", "value"))
        rows = list(reader)
    if not rows:
        raise FeatureError("values CSV has no records")

    records: list[DataRecord] = []
    eliminated: list[tuple[str, str]] = []
    for row in rows:
        rid = row["id"]
        path = graph_dir / f"{rid}.pmg"
        try:
            text = path.read_text()
        except FileNotFoundError:
            raise FeatureError(f"missing graph file {path}") from None
        try:
            value = float(row["value"])
            covs = {c: float(row[c]) for c in covariate_names}
        except (TypeError, ValueError) as exc:
            raise FeatureError(f"malformed CSV row for id {rid}: {exc}") from exc
        try:
            g = parse_pmg(text, max_abs_charge=max_abs_charge)
        except GraphError as exc:
            eliminated.append((rid, str(exc)))
            continue
        reason = stage1_reason(g)
        if reason is not None:
            eliminated.append((rid, reason))
            continue
        records.append(DataRecord(id=rid, graph=g, value=value, covariates=covs))
    if not records:
        raise FeatureError("no record survived stage-1 elimination")
    return Dataset(tuple(records), covariate_names), EliminationReport(tuple(eliminated))


# ---------------------------------------------------------------------------
# Registry construction and featurization


def _sorted_keys(kind: str, keys) -> list[str]:
    if kind == "na":
        return sorted(keys, key=split_symbol)
    return sorted(keys)


def build_registry(dataset: Dataset, rho: int) -> DescriptorRegistry:
    """Derive the descriptor catalog from a dataset, in fixed kind order
    with sorted keys, so equal datasets give byte-identical registries."""
    if not dataset.records:
        raise FeatureError("empty dataset")
    observed: dict[str, set[str]] = {k: set() for k in FAMILY_KINDS}
    for rec in dataset.records:
        profile = as_decomposition(rec.graph, rho).profile
        for kind, keys in observed.items():
            keys.update(getattr(profile, kind))

    descriptors: list[Descriptor] = []
    for kind in KIND_ORDER:
        if kind in SCALAR_KINDS:
            descriptors.append(Descriptor(kind))
        elif kind == "cov":
            descriptors.extend(Descriptor("cov", c) for c in dataset.covariate_names)
        else:
            descriptors.extend(
                Descriptor(kind, key) for key in _sorted_keys(kind, observed[kind])
            )
    return DescriptorRegistry(rho=rho, descriptors=tuple(descriptors))


def featurize(
    g: ChemicalGraph | TwoLayeredDecomposition,
    registry: DescriptorRegistry,
    covariates: dict[str, float] | None = None,
) -> FeatureVector:
    """Evaluate every registry descriptor on a graph or its decomposition.

    Configurations of g that the registry does not carry are reported as
    out-of-vocabulary rather than failing; their counts do not enter the
    vector.
    """
    dec = as_decomposition(g, registry.rho)
    profile = dec.profile
    columns = registry.columns
    values = np.zeros(len(registry), dtype=float)
    scalars = {
        "n": profile.n,
        "rank": profile.rank,
        "n_int": profile.n_int,
        "ms_avg": dec.suppressed.mass_average(),
        "n_lnk": profile.link_edges,  # link edges, not the spec's link vertices
    }
    for j, kind in columns.scalars:
        values[j] = scalars[kind]
    for j, key in columns.covariates:
        if covariates is None or key not in covariates:
            raise FeatureError(f"missing covariate {key!r}")
        values[j] = covariates[key]

    oov: list[str] = []
    for kind, index in columns.families.items():
        for key, count in getattr(profile, kind).items():
            j = index.get(key)
            if j is None:
                oov.append(f"{kind}:{key}")
            else:
                values[j] = count
    return FeatureVector(values=values, oov=tuple(sorted(oov)))


def feature_matrix(
    dataset: Dataset, registry: DescriptorRegistry
) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    rows = []
    oovs = []
    for rec in dataset.records:
        fv = featurize(rec.graph, registry, rec.covariates)
        rows.append(fv.values)
        oovs.append(fv.oov)
    return np.vstack(rows), oovs


# ---------------------------------------------------------------------------
# Min-max standardization


@dataclass(frozen=True)
class Standardizer:
    """Per-descriptor and property min/max maps onto [0, 1].

    Descriptors with max == min are flagged constant and map to 0; the
    MILP later pins their standardized variable instead of dividing by a
    zero range.
    """

    feature_min: np.ndarray
    feature_max: np.ndarray
    value_min: float
    value_max: float

    @property
    def constant_mask(self) -> np.ndarray:
        return self.feature_max <= self.feature_min

    def transform(self, x: np.ndarray) -> np.ndarray:
        span = np.where(self.constant_mask, 1.0, self.feature_max - self.feature_min)
        out = (np.asarray(x, dtype=float) - self.feature_min) / span
        return np.where(self.constant_mask, 0.0, out)

    def transform_value(self, a: float) -> float:
        if self.value_max <= self.value_min:
            raise FeatureError("property range is degenerate")
        return (a - self.value_min) / (self.value_max - self.value_min)

    def inverse_value(self, t: float) -> float:
        return self.value_min + t * (self.value_max - self.value_min)

    def to_json(self) -> str:
        return json.dumps(
            {
                "feature_min": self.feature_min.tolist(),
                "feature_max": self.feature_max.tolist(),
                "value_min": self.value_min,
                "value_max": self.value_max,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Standardizer":
        d = json.loads(text)
        return cls(
            feature_min=np.array(d["feature_min"], dtype=float),
            feature_max=np.array(d["feature_max"], dtype=float),
            value_min=float(d["value_min"]),
            value_max=float(d["value_max"]),
        )


def standardize(dataset: Dataset, registry: DescriptorRegistry) -> tuple[Standardizer, np.ndarray, np.ndarray]:
    """Fit the min-max maps on a dataset; returns (standardizer,
    standardized feature matrix, standardized property values)."""
    X, _ = feature_matrix(dataset, registry)
    a = dataset.values()
    std = Standardizer(
        feature_min=X.min(axis=0),
        feature_max=X.max(axis=0),
        value_min=float(a.min()),
        value_max=float(a.max()),
    )
    Xs = std.transform(X)
    ys = np.array([std.transform_value(v) for v in a])
    return std, Xs, ys
