"""Synthetic generation: stream order, blob statistics, zoo oracle truth."""
import json
import re
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from terank import EmbeddingSet, ZooConfig, save_emb1, synth
from terank.cli import main
from terank.errors import DataError, NumericError
from terank.rng import SplitMix64
from terank.synth import (
    _sq_distances,
    gen_zoo_model,
    nearest_centroid_accuracy,
    zoo_truth,
)
from class_gaussians import gen_class_gaussians
from test_prepare_bits import old_draw_points


def zoo_config(**overrides):
    base = dict(
        classes=3,
        per_class=50,
        dim=6,
        rhos=(1.0, 2.0, 3.0, 4.0),
        noises=(1.0, 1.0, 1.0, 1.0),
        seed=17,
    )
    base.update(overrides)
    return ZooConfig(**base)


def class_means(ds):
    """A set's oracle centroids: the float64 mean of each class's
    `class_rows` block, cast on its own, as `synth.draw_zoo_model` takes
    each class block's mean."""
    return np.stack([np.asarray(rows, dtype=np.float64).mean(axis=0)
                     for rows in ds.class_rows()])


def test_stream_first_output():
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_generation_order_is_class_major_dimension_minor():
    # reconstruct the expected layout from the raw stream by hand
    classes, per_class, dim, rho, noise, seed = 2, 3, 2, 1.5, 0.5, 23
    rng = SplitMix64(seed)
    cents = (rho * rng.gaussians(classes * dim)).reshape(classes, dim)
    flat = rng.gaussians(classes * per_class * dim)
    expected = np.repeat(cents, per_class, axis=0) + noise * flat.reshape(-1, dim)
    ds = gen_class_gaussians(classes, per_class, dim, rho, noise, seed)
    np.testing.assert_array_equal(ds.features, expected.astype(np.float32))
    assert ds.labels.tolist() == [0, 0, 0, 1, 1, 1]


def test_near_zero_noise_collapses_to_centroids():
    ds = gen_class_gaussians(3, 20, 4, rho=1.0, noise=1e-9, seed=2)
    x = ds.features.astype(np.float64)
    for c in range(3):
        pts = x[ds.labels == c]
        assert np.abs(pts - pts.mean(axis=0)).max() < 1e-6


def test_rms_radius_matches_chi_statistics():
    # per-class RMS distance to the centroid concentrates at noise*sqrt(dim)
    dim, noise = 10, 0.7
    ds = gen_class_gaussians(3, 1000, dim, rho=5.0, noise=noise, seed=3)
    x = ds.features.astype(np.float64)
    for c in range(3):
        pts = x[ds.labels == c]
        rms = np.sqrt(np.mean(np.sum((pts - pts.mean(axis=0)) ** 2, axis=1)))
        assert rms == pytest.approx(noise * np.sqrt(dim), rel=0.05)


def test_same_seed_byte_identical_emb1(tmp_path):
    a, b = tmp_path / "a.emb1", tmp_path / "b.emb1"
    save_emb1(gen_class_gaussians(3, 30, 5, rho=2.0, noise=1.0, seed=9), a)
    save_emb1(gen_class_gaussians(3, 30, 5, rho=2.0, noise=1.0, seed=9), b)
    assert a.read_bytes() == b.read_bytes()


def test_zoo_is_deterministic():
    cfg = zoo_config()
    zoo_a = [gen_zoo_model(cfg, m) for m in range(len(cfg.rhos))]
    zoo_b = [gen_zoo_model(cfg, m) for m in range(len(cfg.rhos))]
    for (a, _), (b, _) in zip(zoo_a, zoo_b):
        assert a.features.tobytes() == b.features.tobytes()
    truth_a = zoo_truth((ds.model_id, acc) for ds, acc in zoo_a)
    truth_b = zoo_truth((ds.model_id, acc) for ds, acc in zoo_b)
    assert truth_a.records == truth_b.records


def test_zoo_training_set_matches_standalone_generator():
    # the zoo's training draw is the prefix of the per-model stream, so it
    # equals gen_class_gaussians for the same parameters
    cfg = zoo_config()
    for m in range(len(cfg.rhos)):
        ds, _ = gen_zoo_model(cfg, m)
        solo = gen_class_gaussians(
            cfg.classes, cfg.per_class, cfg.dim, cfg.rhos[m], cfg.noises[m],
            cfg.seed ^ m,
        )
        assert ds.features.tobytes() == solo.features.tobytes()


def test_high_separation_model_scores_above_99():
    cfg = zoo_config(rhos=(100.0, 100.0, 1.0, 1.0), noises=(1.0, 1.0, 1.0, 1.0))
    _, acc = gen_zoo_model(cfg, 0)
    assert acc > 99.0


def test_identical_geometry_identical_accuracy():
    cfg = zoo_config(rhos=(2.0, 2.0, 2.0, 2.0))
    zoo = [gen_zoo_model(cfg, m) for m in range(len(cfg.rhos))]
    truth = zoo_truth((ds.model_id, acc) for ds, acc in zoo)
    # models share geometry parameters but not seeds, so accuracies are
    # close yet generally distinct; rerunning the same config must
    # reproduce them exactly
    zoo = [gen_zoo_model(cfg, m) for m in range(len(cfg.rhos))]
    truth2 = zoo_truth((ds.model_id, acc) for ds, acc in zoo)
    assert truth.records == truth2.records


def test_accuracy_monotone_in_separation_at_fixed_seed():
    # scaling rho with everything else fixed (same seed) scales the
    # centroids linearly, so margins grow and the oracle cannot get worse
    classes, per_class, dim, noise, seed = 4, 80, 8, 1.0, 31
    accs = []
    for rho in (0.2, 0.4, 0.8, 1.6, 3.2):
        rng = SplitMix64(seed)
        cents = rho * rng.gaussians(classes * dim).reshape(classes, dim)
        labels = np.repeat(np.arange(classes), per_class)

        def draw(rng_):
            g = rng_.gaussians(classes * per_class * dim)
            return np.repeat(cents, per_class, axis=0) + noise * g.reshape(-1, dim)

        train = EmbeddingSet(features=draw(rng), labels=labels)
        test = draw(rng)
        accs.append(nearest_centroid_accuracy(class_means(train), [(test, labels)]))
    assert all(b >= a for a, b in zip(accs, accs[1:]))


def test_oracle_without_held_out_points_is_a_data_error():
    centroids = np.eye(2)
    for held_out in ([], [(np.empty((0, 2), np.float32), np.empty(0, np.int64))]):
        with pytest.raises(DataError, match="no held-out points"):
            nearest_centroid_accuracy(centroids, held_out)


def test_oracle_accuracy_bounded_by_chance_and_one():
    for seed in range(5):
        cfg = zoo_config(seed=seed, rhos=(0.01, 0.5, 1.0, 10.0))
        zoo = [gen_zoo_model(cfg, m) for m in range(len(cfg.rhos))]
        truth = zoo_truth((ds.model_id, acc) for ds, acc in zoo)
        for acc in truth.records.values():
            assert 100.0 / cfg.classes * 0.5 <= acc <= 100.0


def test_config_validation():
    with pytest.raises(DataError, match="need models >= 2"):
        zoo_config(rhos=(1.0,), noises=(1.0,))
    with pytest.raises(DataError, match="one value per model"):
        zoo_config(rhos=(1.0, 2.0))  # wrong length
    with pytest.raises(DataError, match="values must be > 0"):
        zoo_config(noises=(0.0, 1.0, 1.0, 1.0))


@pytest.mark.parametrize("field, values, named", [
    ("rhos", (float("nan"), 2.0, 3.0, 4.0), "rhos[0] = nan"),
    ("noises", (1.0, 1.0, float("inf"), 1.0), "noises[2] = inf"),
])
def test_config_refuses_a_non_finite_rho_or_noise(field, values, named):
    with pytest.raises(DataError, match=re.escape(f"must be > 0 and finite, got {named}")):
        zoo_config(**{field: values})


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_64_bits_is_refused(seed):
    # SplitMix64 holds one 64-bit state, so -1 would draw the zoo of 2^64 - 1
    cfg = zoo_config(seed=seed)
    with pytest.raises(DataError, match=re.escape(f"seed must lie in [0, 2^64), got {seed}")):
        gen_zoo_model(cfg, 0)
    with pytest.raises(DataError, match="seed must lie in"):
        SplitMix64(seed)
    assert SplitMix64(2**64 - 1).next_u64() == SplitMix64(2**64 - 1).next_u64()


def test_config_rejects_a_model_no_float64_array_holds():
    # a model draws classes*dim centroids plus two sets of classes*per_class*dim
    # points; 2^60 - 1 float64s is the most whose byte size fits an intp
    limit = np.iinfo(np.intp).max // 8
    assert limit % 15 == 0  # so classes 3 x (1 + 2 x per_class 2) hits it exactly
    zoo_config(classes=3, per_class=2, dim=limit // 15)
    with pytest.raises(DataError, match="needs .* draws; a float64 array holds"):
        zoo_config(classes=3, per_class=2, dim=limit // 15 + 1)


# The oracle formula the memory-bounded one replaced, kept as the bit
# reference: whole-set float64 copies for the distances. old_draw_points
# is the draw formula's reference.
def reference_predictions(train, train_labels, test, class_count):
    tr = np.asarray(train, dtype=np.float64)
    te = np.asarray(test, dtype=np.float64)
    centroids = np.stack(
        [tr[train_labels == c].mean(axis=0) for c in range(class_count)]
    )
    d2 = (
        np.sum(te * te, axis=1)[:, None]
        - 2.0 * te @ centroids.T
        + np.sum(centroids * centroids, axis=1)
    )
    return np.argmin(d2, axis=1)


sizes = dict(classes=st.integers(2, 4), per_class=st.integers(2, 5),
             dim=st.integers(2, 5), rho=st.floats(0.01, 100.0),
             noise=st.floats(0.01, 100.0), seed=st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 1), **sizes)
def test_zoo_model_keeps_the_reference_bits(m, classes, per_class, dim, rho,
                                            noise, seed):
    # odd per_class * dim carries a Box-Muller spare from class to class
    cfg = ZooConfig(classes=classes, per_class=per_class, dim=dim,
                    rhos=(rho, rho), noises=(noise, noise), seed=seed)
    rng = SplitMix64(seed ^ m)
    cents = rho * rng.gaussians(classes * dim).reshape(classes, dim)
    train = old_draw_points(rng, cents, per_class, noise)
    test = old_draw_points(rng, cents, per_class, noise)
    labels = np.repeat(np.arange(classes), per_class)
    acc = np.mean(reference_predictions(train, labels, test, classes) == labels)

    ds, got = gen_zoo_model(cfg, m)
    assert ds.features.dtype == np.float32
    assert ds.features.tobytes() == train.tobytes()
    assert got == 100.0 * acc
    solo = gen_class_gaussians(classes, per_class, dim, rho, noise, seed ^ m)
    assert solo.features.tobytes() == train.tobytes()


@settings(max_examples=100, deadline=None)
@given(classes=st.integers(2, 4), per_class=st.integers(1, 5),
       dim=st.integers(1, 4), rows=st.integers(1, 12),
       dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
def test_nearest_centroid_accuracy_keeps_the_reference_bits(
        classes, per_class, dim, rows, dtype, data):
    # few distinct values make exact ties common, and midpoints of two
    # centroids make near ties that rounding decides; either goes the
    # reference's way only if every distance keeps its bits
    values = st.sampled_from([-3.0, -1.5, -1.0, -0.1, 0.0, 0.1, 1.0, 2.5])
    train = data.draw(arrays(dtype, (classes * per_class, dim), elements=values))
    train_labels = np.repeat(np.arange(classes), per_class)
    cents = np.stack([train[train_labels == c].astype(np.float64).mean(axis=0)
                      for c in range(classes)])
    pairs = data.draw(st.lists(st.tuples(st.integers(0, classes - 1),
                                         st.integers(0, classes - 1)), max_size=4))
    mids = np.array([(cents[a] + cents[b]) / 2 for a, b in pairs]).reshape(-1, dim)
    test = np.vstack([data.draw(arrays(dtype, (rows, dim), elements=values)),
                      mids.astype(dtype)])
    test_labels = data.draw(arrays(np.int64, len(test),
                                   elements=st.integers(0, classes - 1)))
    pred = reference_predictions(train, train_labels, test, classes)
    before = train.tobytes(), test.tobytes()
    train_set = EmbeddingSet(features=train, labels=train_labels)

    assert nearest_centroid_accuracy(class_means(train_set), [(test, pred)]) == 1.0
    assert nearest_centroid_accuracy(
        class_means(train_set), [(test, test_labels)]) == np.mean(pred == test_labels)
    assert (train.tobytes(), test.tobytes()) == before


def traced_model_peak(tmp_path) -> float:
    """tracemalloc's peak while model 0 of a zoo at zoobench's shape is
    generated and saved, in units of its float32 training set: N = 10
    classes x 200 = 2000 rows of D = 128 dims, N*D*4 = 1,024,000 bytes."""
    cfg = ZooConfig(classes=10, per_class=200, dim=128,
                    rhos=(0.25, 1.0), noises=(1.0, 1.0), seed=0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ds, _ = gen_zoo_model(cfg, 0)
        save_emb1(ds, tmp_path / "model-00.emb1")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (cfg.classes * cfg.per_class * cfg.dim * 4)


def test_zoo_model_working_set_is_under_five_training_sets(tmp_path):
    # At the peak a model holds its float32 training set, one class of
    # float64 draws with the RNG's temporaries, and one held-out class
    # with its distances: 1.8x N*D*4. Holding the whole held-out set in
    # float32 and its float64 doubled copy peaked at 4.4x; drawing each
    # set whole in float64, copying both sets to float64 for the oracle
    # and joining the EMB1 file from two copies peaked at 8.2x.
    ratio = traced_model_peak(tmp_path)
    assert ratio <= 5, f"{ratio:.2f}x N*D*4"


def test_held_out_set_is_never_whole(tmp_path):
    # the whole held-out set in float32 beside the training set would
    # already be 2x, before any draw or distance; with its float64 doubled
    # copy it was 4.4x
    ratio = traced_model_peak(tmp_path)
    assert ratio <= 2.5, f"{ratio:.2f}x N*D*4"


@pytest.mark.parametrize("classes,per_class,dim", [(10, 200, 128), (20, 100, 1024)])
def test_distance_rows_do_not_depend_on_their_block(classes, per_class, dim):
    # the oracle takes the held-out set one class at a time, so its
    # predictions keep their bits only if the BLAS gives a row the same
    # ||t||^2 and 2 t @ mu.T whichever other rows share its call
    ds = gen_class_gaussians(classes, per_class, dim, rho=1.0, noise=1.0, seed=0)
    x = ds.features
    cents = np.stack([x[ds.labels == c].astype(np.float64).mean(axis=0)
                      for c in range(classes)])
    whole_sq = np.sum(np.square(x, dtype=np.float64), axis=1)
    whole_gemm = np.multiply(x, 2.0, dtype=np.float64) @ cents.T
    whole_d2 = _sq_distances(x, cents)
    for c in range(classes):
        rows = slice(c * per_class, (c + 1) * per_class)
        block = x[rows]
        sq = np.sum(np.square(block, dtype=np.float64), axis=1)
        gemm = np.multiply(block, 2.0, dtype=np.float64) @ cents.T
        assert sq.tobytes() == whole_sq[rows].tobytes(), f"||t||^2, class {c}"
        assert gemm.tobytes() == whole_gemm[rows].tobytes(), f"2 t @ mu.T, class {c}"
        assert _sq_distances(block, cents).tobytes() == whole_d2[rows].tobytes()


def held_out_overflow(held_out_class: int, classes: int):
    """A SplitMix64 whose draws for one held-out class are 1e39, past
    float32's range. A model draws its centroids, then `classes` training
    classes, then the held-out classes, one gaussians call each."""
    poisoned = 2 + classes + held_out_class

    class Stream(SplitMix64):
        __slots__ = ("calls",)

        def __init__(self, seed):
            super().__init__(seed)
            self.calls = 0

        def gaussians(self, count):
            self.calls += 1
            g = super().gaussians(count)
            if self.calls == poisoned:
                g[:] = 1e39
            return g

    return Stream


def test_held_out_overflow_names_its_model(monkeypatch):
    # a held-out class that overflows float32 is found while it is drawn,
    # after a finite training set, and fails like a training overflow
    cfg = zoo_config()
    monkeypatch.setattr(synth, "SplitMix64",
                        held_out_overflow(held_out_class=1, classes=cfg.classes))
    message = r"^model-01: generated features are not finite in float32 \(rho 2, "
    with np.errstate(over="ignore"), pytest.raises(NumericError, match=message):
        gen_zoo_model(cfg, 1)


# synth writes each training block to its model's EMB1 file as it is
# drawn: the files and accuracies are those of gen_zoo_model and save_emb1

def run_synth(out, cfg, jobs=1):
    """`terank synth` of `cfg`'s zoo into `out`, in this process."""
    (rho_a, rho_b), (noise_a, noise_b) = cfg.rhos, cfg.noises
    return CliRunner().invoke(main, [
        "synth", "--models", "2", "--classes", str(cfg.classes),
        "--per-class", str(cfg.per_class), "--dim", str(cfg.dim),
        "--rho-range", f"{rho_a!r}:{rho_b!r}", "--noise-range", f"{noise_a!r}:{noise_b!r}",
        "--seed", str(cfg.seed), "--jobs", str(jobs), "--format", "json",
        "--out", str(out)])


@settings(max_examples=25, deadline=None)
@given(classes=st.integers(2, 3),
       per_class=st.integers(2, 5) | st.just(2051),
       dim=st.integers(2, 5),
       rhos=st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)),
       noise=st.floats(0.25, 4.0),
       seed=st.integers(0, 2**64 - 1),
       jobs=st.sampled_from([1, 2]))
# 2 classes of 2051 x 5 = 10255 draws: odd, so a Box-Muller spare carries
# from one class block into the next, and past one 8192-draw fill block
@example(classes=2, per_class=2051, dim=5, rhos=(0.5, 2.0), noise=1.0, seed=3, jobs=1)
@example(classes=2, per_class=3, dim=3, rhos=(0.05, 5.0), noise=0.25, seed=0, jobs=2)
# model-01's oracle gets none of its 4 held-out points right
@example(classes=2, per_class=2, dim=5, rhos=(1.0, 0.125), noise=1.0, seed=2255607336,
         jobs=1)
def test_synth_writes_the_bytes_of_gen_zoo_model_and_save_emb1(
        tmp_path_factory, classes, per_class, dim, rhos, noise, seed, jobs):
    cfg = ZooConfig(classes=classes, per_class=per_class, dim=dim, rhos=rhos,
                    noises=(noise, noise), seed=seed)
    out = tmp_path_factory.mktemp("zoo")
    result = run_synth(out, cfg, jobs)
    expected = [gen_zoo_model(cfg, m) for m in range(len(cfg.model_ids))]
    refused = [m for m, (_, acc) in enumerate(expected) if not 0 < acc <= 100]
    if refused:
        # a drawn model whose oracle gets no held-out point right has no
        # valid truth row, so synth refuses the zoo, naming the first such
        # model, and leaves --out as it found it
        line = f"{cfg.model_ids[refused[0]]!r}, 'synthetic', 'synthetic', 'synthetic'"
        assert result.exit_code == 3, result.output
        assert line in result.stderr and "outside (0, 100]" in result.stderr
        assert list(out.iterdir()) == []
        return
    assert result.exit_code == 0, result.output
    models = json.loads(result.stdout)["models"]
    for m, model_id in enumerate(cfg.model_ids):
        ds, acc = expected[m]
        save_emb1(ds, out / "expected.emb1")
        assert (out / f"{model_id}.emb1").read_bytes() == (
            out / "expected.emb1").read_bytes()
        assert models[m]["model"] == model_id and models[m]["oracle_accuracy"] == acc


def test_synth_held_out_overflow_after_a_written_file_leaves_out_as_found(
        tmp_path, monkeypatch):
    # model 0's training blocks are in its staged file when its last
    # held-out class, which spans two fill blocks, overflows float32: the
    # run exits 4 naming the model, and the file an earlier run left in
    # --out keeps its bytes
    cfg = zoo_config(classes=2, per_class=2051, dim=5, rhos=(0.5, 2.0),
                     noises=(1.0, 1.0))
    out = tmp_path / "zoo"
    assert run_synth(out, cfg).exit_code == 0
    found = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(synth, "SplitMix64",
                        held_out_overflow(held_out_class=1, classes=cfg.classes))
    result = run_synth(out, zoo_config(classes=2, per_class=2051, dim=5,
                                       rhos=(0.5, 2.0), noises=(1.0, 1.0), seed=4))
    assert result.exit_code == 4, result.output
    assert result.stderr.startswith("numeric failure: model-00: generated features "
                                    "are not finite in float32"), result.stderr
    assert {p.name: p.read_bytes() for p in out.iterdir()} == found


@pytest.mark.parametrize("classes,per_class,dim,bound", [
    (10, 200, 128, 1.0),   # zoobench's shape
    (20, 100, 1024, 0.5),  # near a paper-width extractor
])
def test_synth_model_working_set_is_below_its_training_set(tmp_path, classes, per_class,
                                                           dim, bound):
    # synth draws, scores and writes each model on the command's thread at
    # --jobs 1: the training blocks go to the file as they are drawn, so
    # beside the class means a model holds one class of draws and their
    # distances. Holding the training set until it was saved, as
    # gen_zoo_model does, peaked at 1.60x and 1.27x N*D*4 on these shapes.
    cfg = ZooConfig(classes=classes, per_class=per_class, dim=dim,
                    rhos=(0.25, 1.0), noises=(1.0, 1.0), seed=0)
    assert run_synth(tmp_path / "warm", cfg).exit_code == 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run_synth(tmp_path / "zoo", cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    ratio = peak / (classes * per_class * dim * 4)
    assert ratio <= bound, f"{ratio:.2f}x N*D*4"
