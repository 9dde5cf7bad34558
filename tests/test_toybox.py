"""Preset mixtures, exact draws, sample-file round trips."""

import math
import os
import re

import numpy as np
import pytest

from driftlab import (
    ConfigError,
    DomainError,
    PRESET_NAMES,
    ToyDataset,
    draw,
    get_preset,
    read_samples,
    write_samples,
)

from driftlab.toybox import atomic_write_text
from helpers import mixture_stats_1d


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def test_preset_registry():
    assert set(PRESET_NAMES) == {"two-gauss-1d", "grid-9", "ring-8",
                                 "two-moons-gmm"}
    for name in PRESET_NAMES:
        gmm = get_preset(name)
        assert np.isclose(gmm.weights.sum(), 1.0)


def test_unknown_preset_lists_choices():
    with pytest.raises(ConfigError) as excinfo:
        get_preset("nope")
    message = str(excinfo.value)
    for name in PRESET_NAMES:
        assert name in message


def test_two_gauss_structure():
    gmm = get_preset("two-gauss-1d")
    assert gmm.dimension == 1 and gmm.n_components == 2
    assert sorted(gmm.means[:, 0].tolist()) == [-2.0, 2.0]
    assert np.allclose(gmm.weights, 0.5)


def test_grid9_structure():
    gmm = get_preset("grid-9")
    assert gmm.dimension == 2 and gmm.n_components == 9
    coords = sorted(map(tuple, gmm.means.tolist()))
    expected = sorted((float(x), float(y))
                      for x in (-4.0, 0.0, 4.0) for y in (-4.0, 0.0, 4.0))
    assert coords == expected
    assert np.allclose(gmm.covariances, 0.09 * np.eye(2))


def test_ring8_structure():
    gmm = get_preset("ring-8")
    assert gmm.dimension == 2 and gmm.n_components == 8
    radii = np.linalg.norm(gmm.means, axis=1)
    assert np.allclose(radii, 4.0, atol=1e-12)


def test_two_moons_structure():
    gmm = get_preset("two-moons-gmm")
    assert gmm.dimension == 2 and gmm.n_components == 12


# ---------------------------------------------------------------------------
# Exact draws
# ---------------------------------------------------------------------------


def test_draw_is_deterministic():
    gmm = get_preset("two-gauss-1d")
    a, la = draw(gmm, 100, seed=42)
    b, lb = draw(gmm, 100, seed=42)
    c, _ = draw(gmm, 100, seed=43)
    assert np.array_equal(a, b) and np.array_equal(la, lb)
    assert not np.array_equal(a, c)


def test_draw_labels_match_components():
    gmm = get_preset("grid-9")
    samples, labels = draw(gmm, 5000, seed=7)
    assert labels.shape == (5000,)
    assert labels.min() >= 0 and labels.max() <= 8
    # Component stddev is 0.3; every sample sits well within its own mode.
    distances = np.linalg.norm(samples - gmm.means[labels], axis=1)
    assert distances.max() < 0.3 * 8


def test_draw_moments_match_binomial_and_gaussian_oracles():
    gmm = get_preset("two-gauss-1d")
    n = 100_000
    samples, labels = draw(gmm, n, seed=11)
    # Component frequencies: binomial with p = 1/2.
    frac = np.mean(labels == 0)
    assert abs(frac - 0.5) < 3.0 * math.sqrt(0.25 / n)
    # Mean and variance of the mixture itself.
    mean, variance = mixture_stats_1d([0.5, 0.5], [-2.0, 2.0], [1.0, 1.0])
    assert abs(samples.mean() - mean) < 3.0 * math.sqrt(variance / n)
    fourth = np.mean((samples - mean) ** 4)
    var_of_sq = fourth - variance**2
    assert abs(samples.var() - variance) < 3.0 * math.sqrt(var_of_sq / n)


def test_draw_without_labels_matches_labeled_values():
    gmm = get_preset("two-gauss-1d")
    with_labels, _ = draw(gmm, 50, seed=3, with_labels=True)
    without, labels = draw(gmm, 50, seed=3, with_labels=False)
    assert labels is None
    assert np.array_equal(with_labels, without)


def test_draw_validation():
    gmm = get_preset("two-gauss-1d")
    with pytest.raises(DomainError):
        draw(gmm, 0, seed=1)


# ---------------------------------------------------------------------------
# Sample files
# ---------------------------------------------------------------------------


def test_write_read_round_trip(tmp_path):
    path = str(tmp_path / "samples.txt")
    samples = np.array([[1.0 / 3.0, -2.5e-17], [math.pi, 1e300]])
    write_samples(path, samples, seed=9, nfe=500)
    back, labels, meta = read_samples(path)
    assert np.array_equal(back, samples)  # repr round trip is exact
    assert labels is None
    assert meta["d"] == 2 and meta["n"] == 2
    assert meta["seed"] == 9 and meta["nfe"] == 500


def test_write_read_with_labels(tmp_path):
    path = str(tmp_path / "labeled.txt")
    samples = np.array([[0.5], [1.5], [-0.25]])
    labels = np.array([0, 2, 1])
    write_samples(path, samples, seed=4, labels=labels)
    back, labels_back, meta = read_samples(path)
    assert np.array_equal(back, samples)
    assert np.array_equal(labels_back, labels)
    assert meta.get("labels") == 1
    assert "nfe" not in meta


def test_header_format(tmp_path):
    path = str(tmp_path / "h.txt")
    write_samples(path, np.array([[1.0]]), seed=12, nfe=64)
    with open(path) as handle:
        first = handle.readline().rstrip("\n")
    assert first == "# d=1 n=1 seed=12 nfe=64"


def test_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "clean.txt")
    write_samples(path, np.array([[1.0]]), seed=0)
    assert sorted(os.listdir(tmp_path)) == ["clean.txt"]


def test_failed_write_keeps_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "kept.txt"
    path.write_text("old\n")

    def pieces():
        yield "new "
        raise RuntimeError("piece failed")

    with pytest.raises(RuntimeError, match="piece failed"):
        atomic_write_text(str(path), pieces())
    assert path.read_text() == "old\n"
    assert sorted(os.listdir(tmp_path)) == ["kept.txt"]


def test_read_missing_file_names_path(tmp_path):
    missing = str(tmp_path / "nothere.txt")
    with pytest.raises(ConfigError) as excinfo:
        read_samples(missing)
    assert "nothere.txt" in str(excinfo.value)


def test_read_rejects_malformed(tmp_path):
    bad_header = tmp_path / "bad1.txt"
    bad_header.write_text("1.0 2.0\n")
    with pytest.raises(ConfigError):
        read_samples(str(bad_header))
    bad_width = tmp_path / "bad2.txt"
    bad_width.write_text("# d=2 n=1 seed=0\n1.0\n")
    with pytest.raises(ConfigError):
        read_samples(str(bad_width))
    bad_count = tmp_path / "bad3.txt"
    bad_count.write_text("# d=1 n=2 seed=0\n1.0\n")
    with pytest.raises(ConfigError):
        read_samples(str(bad_count))


# ---------------------------------------------------------------------------
# ToyDataset
# ---------------------------------------------------------------------------


def test_dataset_requires_exactly_one_source():
    gmm = get_preset("two-gauss-1d")
    with pytest.raises(ConfigError):
        ToyDataset()
    with pytest.raises(ConfigError):
        ToyDataset(gmm=gmm, samples=np.zeros((3, 1)))


def test_dataset_refuses_no_samples_and_negative_labels():
    with pytest.raises(DomainError):
        ToyDataset(samples=np.zeros((0, 1)))
    with pytest.raises(DomainError):
        ToyDataset(samples=np.zeros((0, 1)), labels=np.zeros(0, dtype=np.int64))
    dataset = ToyDataset(samples=np.zeros((2, 1)), labels=np.array([0, -1]))
    with pytest.raises(DomainError):
        dataset.num_classes


UNUSABLE_SAMPLE_ARRAYS = {
    "one-d": (np.zeros(3), None, "(n, d)"),
    "non-finite": (np.array([[0.0], [np.inf]]), None, "finite"),
    "labels-too-short": (np.zeros((3, 1)), np.array([0, 1]), "one integer per sample"),
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_SAMPLE_ARRAYS))
def test_dataset_refuses_unusable_sample_arrays(case):
    samples, labels, message = UNUSABLE_SAMPLE_ARRAYS[case]
    with pytest.raises(DomainError, match=re.escape(message)):
        ToyDataset(samples=samples, labels=labels)


@pytest.mark.parametrize("samples, labels", [(np.zeros(3), None),
                                              (np.zeros((3, 1)), np.array([0, 1]))])
def test_write_samples_refuses_a_flat_array_or_mismatched_labels(tmp_path, samples, labels):
    path = tmp_path / "samples.txt"
    with pytest.raises(DomainError):
        write_samples(str(path), samples, seed=0, labels=labels)
    assert not path.exists()


NOT_WHOLE_LABELS = {
    "fractions": [0.5, 1.5],  # conditional training would truncate them
    "nan": [0.0, np.nan],
    "infinity": [0.0, np.inf],
    "beyond-int64": [0.0, 1e20],  # the cast would wrap it to a negative id
    "strings": ["a", "b"],
}


@pytest.mark.parametrize("case", sorted(NOT_WHOLE_LABELS))
def test_dataset_refuses_labels_that_are_not_whole_numbers(case):
    # The rule of Conditioning.validate, checked when the class count is read.
    dataset = ToyDataset(samples=np.zeros((2, 1)), labels=np.array(NOT_WHOLE_LABELS[case]))
    with pytest.raises(DomainError, match="whole numbers"):
        dataset.num_classes


def test_dataset_counts_the_classes_of_whole_float_labels():
    assert ToyDataset(samples=np.zeros((2, 1)), labels=np.array([0.0, 2.0])).num_classes == 3


def test_dataset_from_mixture_resamples_fresh_draws():
    dataset = ToyDataset(gmm=get_preset("two-gauss-1d"))
    assert dataset.dimension == 1
    assert dataset.num_classes == 2
    rng = np.random.default_rng(5)
    x, labels = dataset.resample(rng, 64)
    assert x.shape == (64, 1) and labels.shape == (64,)


def test_dataset_from_samples_bootstraps_rows():
    base = np.array([[1.0], [2.0], [3.0]])
    dataset = ToyDataset(samples=base)
    assert dataset.num_classes is None
    rng = np.random.default_rng(5)
    x, labels = dataset.resample(rng, 100)
    assert labels is None
    assert set(np.unique(x[:, 0])).issubset({1.0, 2.0, 3.0})


def test_dataset_with_labels_keeps_pairing():
    base = np.array([[10.0], [20.0]])
    labels = np.array([0, 1])
    dataset = ToyDataset(samples=base, labels=labels)
    assert dataset.num_classes == 2
    rng = np.random.default_rng(5)
    x, y = dataset.resample(rng, 200)
    assert np.all((x[:, 0] == 10.0) == (y == 0))
