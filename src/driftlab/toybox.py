"""Ground-truth toy distributions, exact samplers, and sample-file I/O.

The presets are Gaussian mixtures with well-separated modes so that mode
coverage is countable:

``two-gauss-1d``
    1-D, two equal-weight unit-variance components at means -2 and +2.
``grid-9``
    2-D, nine equal-weight components on a 3x3 grid with spacing 4
    (means in {-4, 0, 4}^2), isotropic component standard deviation 0.3.
``ring-8``
    2-D, eight equal-weight components on a circle of radius 4, isotropic
    component standard deviation 0.2.
``two-moons-gmm``
    2-D mixture tracing two interleaved half-circles (six components per
    moon): the upper moon on a unit circle centered at the origin, the lower
    moon on a unit circle centered at (1, 0.5) reflected downward, isotropic
    component standard deviation 0.15.

Classes are mixture components throughout ("class = component"), which keeps
conditional — and therefore guided — ground truth exact.

Sample files are plain text: a header line ``# d=<dim> n=<count> seed=<seed>``
(optionally extended with ``nfe=<evals>`` and ``labels=1``), then one sample
per row as space-separated full-precision decimal floats, with a trailing
integer label column when labels are declared.  Writes are atomic
(temp file + rename), and identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, DomainError, _class_ids, _count, _rng
from .field import GaussianMixture

__all__ = [
    "PRESET_NAMES",
    "get_preset",
    "draw",
    "ToyDataset",
    "write_samples",
    "read_samples",
    "read_json",
]


def _ring_8_means() -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    return np.stack([4.0 * np.cos(angles), 4.0 * np.sin(angles)], axis=1)


def _two_moons_means() -> np.ndarray:
    angles = np.pi * (np.arange(6) + 0.5) / 6
    upper = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    lower = np.stack([1.0 - np.cos(angles), 0.5 - np.sin(angles)], axis=1)
    return np.concatenate([upper, lower])


#: Each preset's component means and isotropic component standard deviation;
#: its components weigh equally.  The means are built on use, so importing the
#: package runs no trigonometry: that cost every process about 0.3 MB of RSS.
_PRESETS = {
    "two-gauss-1d": (lambda: [[-2.0], [2.0]], 1.0),
    "grid-9": (lambda: [[cx, cy] for cy in (-4.0, 0.0, 4.0) for cx in (-4.0, 0.0, 4.0)], 0.3),
    "ring-8": (_ring_8_means, 0.2),
    "two-moons-gmm": (_two_moons_means, 0.15),
}

#: Names accepted wherever a dataset preset is expected.
PRESET_NAMES = tuple(sorted(_PRESETS))


def get_preset(name: str) -> GaussianMixture:
    """Build a named preset mixture."""
    try:
        build_means, std = _PRESETS[str(name)]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    means = build_means()
    k = len(means)
    return GaussianMixture(np.full(k, 1.0 / k), means, np.full(k, std ** 2))


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write a text file atomically: a temp file in the same directory, then
    a rename, so readers never see a partial file.  ``text`` is one string
    or an iterable of pieces written in order."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _ancestral(gmm: GaussianMixture, rng: np.random.Generator, n: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Component labels by weight, then one Gaussian draw per label."""
    labels = rng.choice(gmm.n_components, size=n, p=gmm.weights)
    z = rng.standard_normal((n, gmm.dimension))
    samples = gmm.means[labels] + np.einsum(
        "nde,ne->nd", gmm.cholesky_factors[labels], z)
    return samples, labels


def draw(gmm: GaussianMixture, n: int, seed: int,
         with_labels: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact ancestral draws from a mixture.

    Picks components by their categorical weights, then draws from the chosen
    Gaussian.  Returns ``(samples (n, d), labels (n,) or None)``.
    """
    n = _count("n", n, error=DomainError)
    samples, labels = _ancestral(gmm, _rng(seed), n)
    return samples, (labels if with_labels else None)


@dataclass
class ToyDataset:
    """A finite data source: either an exact mixture or a fixed sample array.

    ``resample(rng, count)`` yields training batches — fresh exact draws when
    backed by a mixture, draws with replacement when backed by a file.
    """

    samples: np.ndarray | None = None
    labels: np.ndarray | None = None
    gmm: GaussianMixture | None = None

    def __post_init__(self) -> None:
        if (self.gmm is None) == (self.samples is None):
            raise ConfigError("ToyDataset needs exactly one of gmm or samples")
        if self.samples is not None:
            self.samples = np.asarray(self.samples, dtype=np.float64)
            if self.samples.ndim != 2:
                raise DomainError("dataset samples must be an (n, d) array")
            if self.samples.shape[0] == 0:
                raise DomainError("dataset has no samples")
            if not np.all(np.isfinite(self.samples)):
                raise DomainError("dataset samples must be finite")
            if self.labels is not None:
                self.labels = np.asarray(self.labels)
                if self.labels.shape != (self.samples.shape[0],):
                    raise DomainError("labels must be one integer per sample")

    @property
    def dimension(self) -> int:
        if self.gmm is not None:
            return self.gmm.dimension
        return self.samples.shape[1]

    @property
    def num_classes(self) -> int | None:
        """Class count when labels exist (components for mixtures), else None."""
        if self.gmm is not None:
            return self.gmm.n_components
        if self.labels is not None:
            labels = _class_ids(self.labels)
            if (labels < 0).any():
                raise DomainError("class labels must be nonnegative ids")
            return int(labels.max()) + 1
        return None

    def resample(self, rng: np.random.Generator, count: int
                 ) -> tuple[np.ndarray, np.ndarray | None]:
        if self.gmm is not None:
            return _ancestral(self.gmm, rng, count)
        idx = rng.integers(0, self.samples.shape[0], size=count)
        lab = self.labels[idx] if self.labels is not None else None
        return self.samples[idx], lab


def as_dataset(data) -> ToyDataset:
    """A :class:`ToyDataset` from a dataset or a mixture."""
    if isinstance(data, ToyDataset):
        return data
    if isinstance(data, GaussianMixture):
        return ToyDataset(gmm=data)
    raise ConfigError("data must be a GaussianMixture or ToyDataset")


# ---------------------------------------------------------------------------
# Tabular sample files
# ---------------------------------------------------------------------------


def write_samples(path: str, samples: np.ndarray, seed: int,
                  nfe: int | None = None,
                  labels: np.ndarray | None = None) -> None:
    """Write samples in the tabular text format, atomically.

    Floats are written with ``repr`` (shortest round-trip), so re-reading
    reproduces the array bit-for-bit and identical inputs produce
    byte-identical files.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2:
        raise DomainError(f"samples must be (n, d), got shape {arr.shape}")
    header = f"# d={arr.shape[1]} n={arr.shape[0]} seed={_count('seed', seed, minimum=0)}"
    if nfe is not None:
        header += f" nfe={_count('nfe', nfe, minimum=0)}"
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (arr.shape[0],):
            raise DomainError("labels must be one integer per sample row")
        header += " labels=1"
    rows = (" ".join(map(repr, row)) for row in arr.tolist())
    if labels is not None:
        rows = (f"{row} {int(lab)}" for row, lab in zip(rows, labels.tolist()))
    atomic_write_text(path, "\n".join([header, *rows]) + "\n")


def _read_table(path: str, what: str, tag: str, malformed: str):
    """Yield a text table's header, the ``[key, value]`` pairs of the tokens
    after ``# <tag>`` on its first line, then ``(line, fields)`` for each
    non-blank line, one at a time.  A missing file, a first line not so
    started (``malformed``) or a token without ``=`` is a ConfigError.
    Undecodable bytes become U+FFFD, which no number parses."""
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    start = f"# {tag}" if tag else "#"
    with open(path, "r", errors="replace") as handle:
        first = handle.readline().strip()
        if not first.startswith(start):
            raise ConfigError(f"{path}: {malformed}")
        tokens = first[len(start):].split()
        for token in tokens:
            if "=" not in token:
                raise ConfigError(f"{path}: malformed header token {token!r}")
        yield [token.split("=", 1) for token in tokens]
        for line in handle:
            fields = line.split()
            if fields:
                yield line.strip(), fields


def read_samples(path: str) -> tuple[np.ndarray, np.ndarray | None, dict]:
    """Read a tabular sample file.

    Returns ``(samples (n, d), labels (n,) or None, header metadata dict)``.
    """
    table = _read_table(path, "sample file", "", "missing '# d=... n=... seed=...' header")
    meta = {}
    for k, v in next(table):
        try:
            meta[k] = int(v)
        except ValueError:
            raise ConfigError(f"{path}: header value {k + '=' + v!r} is not an integer") from None
    for key in ("d", "n", "seed"):
        if key not in meta:
            raise ConfigError(f"{path}: header lacks {key}=...")
    if meta["d"] < 1:
        raise ConfigError(f"{path}: header says d={meta['d']}, need d >= 1")
    has_labels = meta.get("labels", 0) == 1
    rows, labels = [], []
    for line, fields in table:
        label = fields.pop() if has_labels else None
        if len(fields) != meta["d"]:
            raise ConfigError(f"{path}: row has {len(fields)} values, header says d={meta['d']}")
        try:
            rows.append([float(v) for v in fields])
            if label is not None:
                labels.append(int(label))
        except ValueError:
            raise ConfigError(f"{path}: row is not numeric: {line!r}") from None
    samples = np.asarray(rows, dtype=np.float64).reshape(len(rows), meta["d"])
    if samples.shape[0] != meta["n"]:
        raise ConfigError(f"{path}: {samples.shape[0]} rows, header says n={meta['n']}")
    if not np.all(np.isfinite(samples)):
        raise ConfigError(f"{path}: samples must be finite")
    try:
        label_ids = np.asarray(labels, dtype=np.int64) if has_labels else None
    except OverflowError:
        raise ConfigError(f"{path}: a label does not fit a 64-bit integer") from None
    return samples, label_ids, meta


def read_json(path: str, what: str) -> dict:
    """The JSON object of a UTF-8 file.  A missing file, undecodable bytes,
    invalid JSON or a value that is not an object is a :class:`ConfigError`
    naming ``what`` and the path."""
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON {what}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    return payload
