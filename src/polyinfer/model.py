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
                "registry": json.loads(self.registry.to_json()),
                "standardizer": json.loads(self.standardizer.to_json()),
                "w": h.w.tolist(),
                "b": h.b,
                "fit": {"steps": h.steps, "sweeps": h.sweeps, "kkt": h.kkt, "converged": h.converged},
                "lambda": self.lam,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelBundle":
        d = json.loads(text)
        try:
            registry = DescriptorRegistry.from_json(json.dumps(d["registry"]))
            if d.get("registry_digest") not in (None, registry.digest()):
                raise ValueError("model file registry digest mismatch")
            fit = d.get("fit", {})  # absent from model files written before fits reported
            return cls(
                registry=registry,
                standardizer=Standardizer.from_json(json.dumps(d["standardizer"])),
                hyperplane=Hyperplane(
                    w=np.array(d["w"], dtype=float),
                    b=float(d["b"]),
                    sweeps=int(fit.get("sweeps", 0)),
                    kkt=fit.get("kkt"),
                    converged=fit.get("converged"),
                    steps=int(fit.get("steps", 0)),  # absent from model files written before the path
                ),
                lam=float(d["lambda"]),
            )
        except KeyError as exc:
            raise ValueError(f"model file lacks key {exc.args[0]!r}") from None
