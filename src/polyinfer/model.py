"""Trained model bundle: descriptor registry, min-max maps and hyperplane."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .chemgraph import ChemicalGraph
from .features import DescriptorRegistry, Standardizer, featurize
from .regress import Hyperplane, predict
from .twolayer import TwoLayeredDecomposition


@dataclass(frozen=True)
class ModelBundle:
    registry: DescriptorRegistry
    standardizer: Standardizer
    hyperplane: Hyperplane
    lam: float

    def predict_graph(
        self, g: ChemicalGraph | TwoLayeredDecomposition, covariates: dict[str, float] | None = None
    ) -> tuple[float, tuple[str, ...]]:
        """Original-unit prediction and any out-of-vocabulary configs.

        A non-empty OOV report marks the prediction unreliable: the
        hyperplane has no weight for those configurations.
        """
        fv = featurize(g, self.registry, covariates)
        xs = self.standardizer.transform(fv.values)
        y_std = predict(self.hyperplane, xs)
        return self.standardizer.inverse_value(y_std), fv.oov

    def to_json(self) -> str:
        h = self.hyperplane
        return json.dumps(
            {
                "registry_digest": self.registry.digest(),
                "registry": self.registry.to_dict(),
                "standardizer": self.standardizer.to_dict(),
                "w": h.w.tolist(),
                "b": h.b,
                "fit": {"steps": h.steps, "kkt": h.kkt, "converged": h.converged},
                "lambda": self.lam,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelBundle":
        """The bundle `to_json` wrote.  The file is parsed once; the
        registry and the min-max maps are read from their parsed objects.
        A file whose weights or min-max maps do not hold one value per
        registry descriptor is refused, naming the key and both lengths."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("model file is not a JSON object")
        registry = _model_value(d, "registry", DescriptorRegistry.from_dict)
        if d.get("registry_digest") not in (None, registry.digest()):
            raise ValueError("model file registry digest mismatch")
        fit = _model_value(d, "fit", _fit_record) if "fit" in d else {}  # absent from older files
        standardizer = _model_value(d, "standardizer", Standardizer.from_dict)
        w = _model_value(d, "w", lambda v: np.array(v, dtype=float))
        for key, values in (
            ("w", w),
            ("standardizer.feature_min", standardizer.feature_min),
            ("standardizer.feature_max", standardizer.feature_max),
        ):
            if values.shape != (len(registry),):
                held = f"{len(values)} values" if values.ndim == 1 else f"an array of shape {values.shape}"
                raise ValueError(f"model file key {key!r} holds {held}; "
                                 f"the registry has {len(registry)} descriptors")
        return cls(
            registry=registry,
            standardizer=standardizer,
            hyperplane=Hyperplane(w=w, b=_model_value(d, "b", float), **fit),
            lam=_model_value(d, "lambda", float),
        )


def _model_value(d: dict, key: str, convert):
    """`convert(d[key])`, with a missing key or a value of the wrong type or
    shape raised as a ValueError that names the key."""
    try:
        return convert(d[key])
    except KeyError as exc:
        missing = key if exc.args[0] == key else f"{key}.{exc.args[0]}"
        raise ValueError(f"model file lacks key {missing!r}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"model file key {key!r} has a malformed value: {exc}") from None


def _fit_record(fit: dict) -> dict:
    """The hyperplane's `kkt` and `steps` from the `"fit"` record; older
    model files may lack either.  Nothing else in the record is read:
    `converged` is read off `kkt`, and older files hold a key no longer
    written."""
    kkt = fit.get("kkt")
    return {"kkt": None if kkt is None else float(kkt), "steps": int(fit.get("steps", 0))}

