"""The benchmark's three workloads: the CLI argv each one runs, the input
files it generates, and the checks on the outputs it leaves behind.

Every input derives from the benchmark seed, so one seed gives one set of
argv lists and files.  The checks recompute what they can without the
package (sample-file parsing, nearest-mean occupancy, energy distances
from full distance matrices, the closed-form exact-draw floor of the 1-D
target), so a faster program that writes wrong numbers fails them.

Sizes are the issue's starting point scaled down uniformly within each
workload, so one cycle takes 1-7 s on two cores, a run holds several
cycles, and each command is short enough for the calibrations around it
(``calibrate.py``) to follow the host's speed:

* ``oracle-grid9``: n 4096 -> 2048, steps unchanged;
* ``learned-1d``: train steps 1500 -> 750 and sample n 4096 -> 2048 (both / 2);
* ``sweep-grid9``: n 512 -> 128, permutations and steps unchanged.  Its one
  command is the whole cycle; at n 256 it took 5 s, and its scaled time
  spread as much as the measured one.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: grid-9 component means, written out here so the occupancy check does not
#: depend on the package's preset table.
GRID9_MEANS = np.array([[x, y] for y in (-4.0, 0.0, 4.0) for x in (-4.0, 0.0, 4.0)])

ORACLE_N = 2048
ORACLE_RUNS = (  # (output name, sampler flags, steps, expected NFE)
    ("em", ["--sampler", "em", "--w", "sigma"], 250, 251),
    ("heun", ["--sampler", "heun"], 125, 250),
    ("guided", ["--sampler", "em", "--w", "sigma", "--zeta", "4", "--label", "0"], 100, 202),
)
#: An unguided mode may hold 1/9 +- this share of the samples: about five
#: binomial standard errors at n = 2048 (one error is 0.0069).
ORACLE_OCCUPANCY_TOL = 0.035
#: Guidance at zeta = 4 toward class 0 must put at least this share there.
GUIDED_OCCUPANCY_FLOOR = 0.9
#: Largest per-axis KS statistic accepted against exact draws at n = 2048.
KS_MAX = 0.08

LEARNED_TRAIN_STEPS = 750
LEARNED_BATCH = 256
LEARNED_N = 2048
LEARNED_SAMPLE_STEPS = 100
LEARNED_PERMUTATIONS = 200
#: Energy distance to exact draws must stay below this multiple of the
#: exact-draw floor.  750 steps leave the model short of the 5000-step c09
#: models: twelve training seeds gave 7-12x and upper-mode shares within
#: 0.026 of 0.5, while an untrained network gives about 200x.
LEARNED_FLOOR_MULTIPLE = 30.0

SWEEP_N = 128
SWEEP_STEPS = 50
SWEEP_PERMUTATIONS = 200
SWEEP_NFE = {"heun": 2 * SWEEP_STEPS, "em": SWEEP_STEPS + 1}

#: Absolute tolerance between a reported energy distance and the benchmark's
#: own recomputation; the distances are O(1) sums, so this is far above
#: rounding and far below any real error.
ENERGY_ATOL = 1e-10


@dataclass(frozen=True)
class Workload:
    """One workload: how to make its inputs and how to check its outputs."""

    name: str
    #: (workdir, seed) -> list of CLI argv lists, in run order.
    prepare: Callable[[str, int], list[list[str]]]
    #: (workdir, seed) -> list of (check name, passed, detail).
    check: Callable[[str, int], list[tuple[str, bool, str]]]
    #: Training steps run by the workload's ``train`` commands.
    train_steps: int = 0
    #: Sum over ``sample`` commands of n x steps.
    traj_steps: int = 0
    #: The kernel of ``calibrate.py`` timed between commands: the one doing
    #: the same kind of arithmetic as the workload's dominant layer.
    calibration: str = ""


def cli_seeds(seed: int, count: int) -> list[int]:
    """The CLI seeds for one benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(int(seed)).generate_state(count)]


# ---------------------------------------------------------------------------
# Independent recomputations
# ---------------------------------------------------------------------------


def read_sample_file(path: str) -> tuple[dict, np.ndarray]:
    """Header fields and the (n, d) rows of a sample file, parsed here."""
    with open(path, "r") as handle:
        header = handle.readline()
        meta = dict(token.split("=", 1) for token in header[1:].split())
        rows = np.loadtxt(handle, dtype=np.float64, ndmin=2)
    return {key: int(value) for key, value in meta.items()}, rows


def energy_distance_direct(a: np.ndarray, b: np.ndarray) -> float:
    """V-statistic energy distance from the full pairwise distance matrices."""

    def mean_distance(p: np.ndarray, q: np.ndarray) -> float:
        diff = p[:, None, :] - q[None, :, :]
        return float(np.sqrt(np.sum(diff * diff, axis=2)).mean())

    return 2.0 * mean_distance(a, b) - mean_distance(a, a) - mean_distance(b, b)


def nearest_mean_share(samples: np.ndarray, means: np.ndarray) -> np.ndarray:
    diff = samples[:, None, :] - means[None, :, :]
    nearest = np.argmin(np.sum(diff * diff, axis=2), axis=1)
    return np.bincount(nearest, minlength=means.shape[0]) / samples.shape[0]


def on_permutation_grid(p_value: float, permutations: int) -> bool:
    """True when p = (1 + k) / (P + 1) for an integer 0 <= k <= P."""
    k = p_value * (permutations + 1) - 1.0
    return abs(k - round(k)) < 1e-6 and 0 <= round(k) <= permutations


def _read_json(path: str) -> dict:
    with open(path, "r") as handle:
        return json.load(handle)


def _guarded(name: str, fn) -> tuple[str, bool, str]:
    """Run one check; a missing or malformed output fails it."""
    try:
        ok, detail = fn()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return name, False, f"{type(exc).__name__}: {exc}"
    return name, bool(ok), detail


# ---------------------------------------------------------------------------
# oracle-grid9
# ---------------------------------------------------------------------------


def _oracle_prepare(workdir: str, seed: int) -> list[list[str]]:
    seeds = cli_seeds(seed, len(ORACLE_RUNS) + 2)
    commands = []
    for (name, flags, steps, _), s in zip(ORACLE_RUNS, seeds):
        commands.append(["sample", "--analytic", "grid-9", "--prediction", "score",
                         "--n", str(ORACLE_N), "--steps", str(steps), *flags,
                         "--seed", str(s), "--out", os.path.join(workdir, name)])
    for name, s in zip(("em", "heun"), seeds[len(ORACLE_RUNS):]):
        commands.append(["eval", "--samples", os.path.join(workdir, name, "samples.txt"),
                         "--metrics", "ks,occupancy", "--reference", "grid-9",
                         "--seed", str(s), "--out", os.path.join(workdir, f"eval-{name}")])
    return commands


def _oracle_check(workdir: str, seed: int) -> list[tuple[str, bool, str]]:
    results = []
    for name, _, _, nfe in ORACLE_RUNS:
        path = os.path.join(workdir, name, "samples.txt")

        def samples_ok(path=path, nfe=nfe):
            meta, rows = read_sample_file(path)
            ok = (meta.get("nfe") == nfe and rows.shape == (ORACLE_N, 2)
                  and bool(np.all(np.isfinite(rows))))
            return ok, f"nfe={meta.get('nfe')} (want {nfe}) shape={rows.shape}"

        results.append(_guarded(f"{name}.samples", samples_ok))

        def occupancy_ok(path=path, name=name):
            share = nearest_mean_share(read_sample_file(path)[1], GRID9_MEANS)
            if name == "guided":
                return share[0] >= GUIDED_OCCUPANCY_FLOOR, f"class-0 share {share[0]:.4f}"
            worst = float(np.max(np.abs(share - 1.0 / 9.0)))
            return worst <= ORACLE_OCCUPANCY_TOL, f"max |share - 1/9| = {worst:.4f}"

        results.append(_guarded(f"{name}.occupancy", occupancy_ok))
    for name in ("em", "heun"):

        def report_ok(name=name):
            report = _read_json(os.path.join(workdir, f"eval-{name}", "report.json"))
            rows = read_sample_file(os.path.join(workdir, name, "samples.txt"))[1]
            own = nearest_mean_share(rows, GRID9_MEANS)
            ks = np.asarray(report["ks"])
            ok = (np.array_equal(np.asarray(report["occupancy"]), own)
                  and ks.shape == (2,) and bool(np.all((ks >= 0) & (ks <= KS_MAX))))
            return ok, f"ks={ks.tolist()} occupancy matches={np.array_equal(report['occupancy'], own)}"

        results.append(_guarded(f"eval-{name}.report", report_ok))
    return results


# ---------------------------------------------------------------------------
# learned-1d
# ---------------------------------------------------------------------------


def two_gauss_floor(n: int) -> float:
    """Expected energy distance between two independent n-draws of two-gauss-1d.

    For the V-statistic, E = 2 E|X - X'| / n.  X - X' is N(0, 2) with
    probability 1/2 and N(+-4, 2) otherwise, and
    E|N(mu, s^2)| = s sqrt(2/pi) exp(-mu^2 / 2s^2) + mu (1 - 2 Phi(-mu/s)).
    """
    s = math.sqrt(2.0)

    def mean_abs(mu: float) -> float:
        phi = 0.5 * (1.0 + math.erf(-mu / s / math.sqrt(2.0)))
        return s * math.sqrt(2.0 / math.pi) * math.exp(-mu * mu / (2 * s * s)) + mu * (1 - 2 * phi)

    return 2.0 * (0.5 * mean_abs(0.0) + 0.5 * mean_abs(4.0)) / n


def _learned_prepare(workdir: str, seed: int) -> list[list[str]]:
    s_train, s_sample, s_eval = cli_seeds(seed, 3)
    train_out = os.path.join(workdir, "train")
    sample_out = os.path.join(workdir, "sample")
    return [
        ["train", "--dataset", "two-gauss-1d", "--objective", "velocity",
         "--steps", str(LEARNED_TRAIN_STEPS), "--batch", str(LEARNED_BATCH),
         "--seed", str(s_train), "--out", train_out],
        ["sample", "--checkpoint", os.path.join(train_out, "checkpoint.json"),
         "--sampler", "heun", "--steps", str(LEARNED_SAMPLE_STEPS),
         "--n", str(LEARNED_N), "--seed", str(s_sample), "--out", sample_out],
        ["eval", "--samples", os.path.join(sample_out, "samples.txt"),
         "--reference", "two-gauss-1d", "--permutations", str(LEARNED_PERMUTATIONS),
         "--seed", str(s_eval), "--out", os.path.join(workdir, "eval")],
    ]


def _learned_check(workdir: str, seed: int) -> list[tuple[str, bool, str]]:
    samples_path = os.path.join(workdir, "sample", "samples.txt")

    def train_ok():
        checkpoint = _read_json(os.path.join(workdir, "train", "checkpoint.json"))
        curve = np.loadtxt(os.path.join(workdir, "train", "curve.txt"), ndmin=2)
        ok = (checkpoint["architecture"]["widths"] == [128, 128, 128]
              and curve.shape == (LEARNED_TRAIN_STEPS, 2)
              and bool(np.all(np.isfinite(curve)))
              and os.path.getsize(os.path.join(workdir, "train", "profile.txt")) > 0)
        return ok, f"curve {curve.shape}, final loss {curve[-1, 1]:.4f}"

    def samples_ok():
        meta, rows = read_sample_file(samples_path)
        nfe = 2 * LEARNED_SAMPLE_STEPS
        ok = (meta.get("nfe") == nfe and rows.shape == (LEARNED_N, 1)
              and bool(np.all(np.isfinite(rows))))
        return ok, f"nfe={meta.get('nfe')} (want {nfe}) shape={rows.shape}"

    def occupancy_ok():
        rows = read_sample_file(samples_path)[1]
        share = float(np.mean(rows[:, 0] > 0.0))
        return abs(share - 0.5) <= 0.05, f"upper-mode share {share:.4f}"

    def energy_ok():
        report = _read_json(os.path.join(workdir, "eval", "report.json"))
        rows = read_sample_file(samples_path)[1]
        from driftlab.toybox import draw, get_preset

        s_eval = cli_seeds(seed, 3)[2]
        reference, _ = draw(get_preset("two-gauss-1d"), LEARNED_N, seed=s_eval,
                            with_labels=False)
        own = energy_distance_direct(rows, reference)
        floor = two_gauss_floor(LEARNED_N)
        reported = float(report["energy_distance"])
        ok = (abs(reported - own) <= ENERGY_ATOL
              and reported < LEARNED_FLOOR_MULTIPLE * floor
              and on_permutation_grid(float(report["energy_p_value"]), LEARNED_PERMUTATIONS))
        return ok, (f"energy {reported:.6f} (own {own:.6f}), "
                    f"{reported / floor:.2f}x floor {floor:.6f}")

    return [_guarded("train.outputs", train_ok), _guarded("sample.samples", samples_ok),
            _guarded("sample.occupancy", occupancy_ok), _guarded("eval.energy", energy_ok)]


# ---------------------------------------------------------------------------
# sweep-grid9
# ---------------------------------------------------------------------------


def _sweep_prepare(workdir: str, seed: int) -> list[list[str]]:
    config = {"dataset": "grid-9", "samplers": ["heun", "em"], "coefficients": ["sigma"],
              "steps": [SWEEP_STEPS], "n": SWEEP_N, "permutations": SWEEP_PERMUTATIONS,
              "seed": cli_seeds(seed, 1)[0]}
    path = os.path.join(workdir, "sweep.json")
    with open(path, "w") as handle:
        json.dump(config, handle)
    return [["sweep", "--config", path, "--out", os.path.join(workdir, "sweep")]]


def _sweep_cell_samples(sampler: str, cell_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Samples and reference of one sweep cell, rebuilt through the package API."""
    from driftlab.field import AnalyticMixtureField
    from driftlab.sampler import (SamplerSpec, default_window, euler_maruyama_sample,
                                  heun_sample)
    from driftlab.schedule import make_schedule, parse_coefficient
    from driftlab.toybox import draw, get_preset

    gmm = get_preset("grid-9")
    schedule = make_schedule("linear")
    model = AnalyticMixtureField(gmm, schedule, prediction="score", conditional=True)
    t_start, t_end, last = default_window(schedule, "score", sampler)
    if sampler == "heun":
        spec = SamplerSpec(kind="heun", t_start=t_start, t_end=t_end,
                           steps=SWEEP_STEPS, seed=cell_seed)
        samples = heun_sample(model, spec, SWEEP_N).samples
    else:
        spec = SamplerSpec(kind="em", t_start=t_start, t_end=t_end, steps=SWEEP_STEPS,
                           diffusion=parse_coefficient("sigma", schedule),
                           last_step_to=last, seed=cell_seed)
        samples = euler_maruyama_sample(model, spec, SWEEP_N).samples
    reference, _ = draw(gmm, SWEEP_N, seed=cell_seed + 1, with_labels=False)
    return samples, reference


def _sweep_check(workdir: str, seed: int) -> list[tuple[str, bool, str]]:
    cells_dir = os.path.join(workdir, "sweep", "cells")
    results = []
    for sampler, key in (("heun", f"linear_heun_-_n{SWEEP_STEPS}"),
                         ("em", f"linear_em_sigma_n{SWEEP_STEPS}")):

        def cell_ok(sampler=sampler, key=key):
            cell = _read_json(os.path.join(cells_dir, f"{key}.json"))
            ok = (cell["status"] == "ok" and cell["nfe"] == SWEEP_NFE[sampler]
                  and on_permutation_grid(float(cell["energy_p_value"]), SWEEP_PERMUTATIONS))
            return ok, f"status={cell['status']} nfe={cell['nfe']} p={cell['energy_p_value']}"

        def statistic_ok(key=key, sampler=sampler):
            cell = _read_json(os.path.join(cells_dir, f"{key}.json"))
            own = energy_distance_direct(*_sweep_cell_samples(sampler, int(cell["seed"])))
            reported = float(cell["energy_distance"])
            return abs(reported - own) <= ENERGY_ATOL, f"energy {reported!r} own {own!r}"

        results.append(_guarded(f"{key}.cell", cell_ok))
        results.append(_guarded(f"{key}.statistic", statistic_ok))

    def summary_ok():
        with open(os.path.join(workdir, "sweep", "summary.txt")) as handle:
            ok_lines = sum(" status=ok " in line for line in handle)
        return ok_lines == 2, f"{ok_lines} of 2 cells ok in summary.txt"

    results.append(_guarded("summary", summary_ok))
    return results


WORKLOADS = {
    "oracle-grid9": Workload(
        "oracle-grid9", _oracle_prepare, _oracle_check,
        traj_steps=sum(ORACLE_N * steps for _, _, steps, _ in ORACLE_RUNS),
        calibration="small_solves"),
    "learned-1d": Workload(
        "learned-1d", _learned_prepare, _learned_check,
        train_steps=LEARNED_TRAIN_STEPS, traj_steps=LEARNED_N * LEARNED_SAMPLE_STEPS,
        calibration="matmul"),
    "sweep-grid9": Workload("sweep-grid9", _sweep_prepare, _sweep_check,
                            calibration="pairwise"),
}
