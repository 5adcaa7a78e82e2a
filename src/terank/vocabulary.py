"""The names the CLI offers as choices: metric ids, perturbation modes and
attract directions.

They live apart from `metrics` and `perturbation`, which import them from
here, so that `terank.cli` can build its option lists without loading the
scoring stack (`metrics`, `perturbation`, `reduction`); commands that do
not score, such as `synth`, never load it.
"""
from __future__ import annotations

from enum import Enum


class MetricId(str, Enum):
    LOGME = "logme"
    GBC = "gbc"
    NLEEP = "nleep"
    LDA = "lda"


class PerturbMode(str, Enum):
    RAW = "raw"
    NONE = "none"
    SPREAD = "spread"
    ATTRACT = "attract"
    SA = "sa"

    @property
    def spreads(self) -> bool:
        """spread and sa push each sample out from its class centroid."""
        return self in (PerturbMode.SPREAD, PerturbMode.SA)

    @property
    def attracts(self) -> bool:
        """attract and sa move each class by its gaps to the others."""
        return self in (PerturbMode.ATTRACT, PerturbMode.SA)

    @property
    def perturbed(self) -> bool:
        """The one baseline rule: raw (the input features) and none (their
        PCA reduction) move no feature; every other mode does."""
        return self.spreads or self.attracts


class AttractDirection(str, Enum):
    # TOWARD moves a class toward its neighbours whenever their centroid
    # gap exceeds the equilibrium separation (and away when they overlap),
    # shrinking inter-class margins. LITERAL keeps the opposite sign
    # convention for strict textual fidelity with the printed update rule.
    TOWARD = "toward"
    LITERAL = "literal"
