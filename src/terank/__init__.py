"""terank: score and rank pre-trained models for a target dataset from
their feature embeddings, with spread/attract feature perturbation.

The exported names are the library API that README's "Library API"
section lists; every other name is imported from its module. Each loads
its module on first use (PEP 562), so importing the package, as `import
terank.cli` does, loads none of them.
"""
import importlib

__version__ = "0.1.0"
# the one bulk stream-fill implementation (terank.rng). Nothing in the
# package reads it, but the benchmark's environment report does on every
# run (zoobench/bench.py), so it stays while that report names it
RNG_BACKEND = "numpy"

# exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(["EmbeddingSet", "load_emb1", "save_emb1", "load_csv"],
                    "embeddings"),
    **dict.fromkeys(["score_model", "score_logme", "score_gbc", "score_nleep",
                     "score_lda"], "metrics"),
    "PerturbConfig": "perturbation",
    **dict.fromkeys(["rank_cells", "improvement_summary", "weighted_kendall_tau",
                     "load_truth", "load_bundled_truth"], "evaluation"),
    **dict.fromkeys(["gen_zoo_model", "ZooConfig"], "synth"),
}

__all__ = ["RNG_BACKEND", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
