"""Command-line interface: ``train``, ``sample``, ``eval``, ``sweep``, ``info``.

Conventions shared by every subcommand:

* Configuration may come from a JSON file (``--config``); any flag given on
  the command line overrides the corresponding config key.  The effective
  merged configuration is echoed into the output directory as
  ``config.echo.json`` so a run can be reproduced from its outputs alone.
* The default output directory is ``<root>/<command>-out`` where ``<root>``
  is ``$DRIFTLAB_OUTPUT_ROOT`` (falling back to the working directory);
  ``--out`` overrides it.
* All files are written atomically (temp file + rename) and contain no
  timestamps or environment-dependent content, so re-running a command with
  identical config and seed reproduces every output byte for byte.
* Exit codes: 0 success; 2 usage or configuration problems; 3 numerical
  failure (a refused singular time, or a non-finite state — the message
  carries the failing step index).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from .errors import (
    ConfigError,
    DriftlabError,
    NonFiniteError,
    SingularityError,
)
from .field import AnalyticMixtureField, Prediction
from .learner import (
    LossProfile,
    TrainConfig,
    TrainObjective,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .metrics import (
    MetricReport,
    energy_distance,
    energy_distance_permutation_test,
    ks_per_axis,
    mode_occupancy,
)
from .sampler import (
    SamplerKind,
    SamplerSpec,
    default_window,
    euler_maruyama_sample,
    heun_sample,
)
from .schedule import (
    SCHEDULE_NAMES,
    COEFFICIENT_FORMS,
    make_schedule,
    parse_coefficient,
)
from .toybox import (
    PRESET_NAMES,
    ToyDataset,
    atomic_write_text,
    draw,
    get_preset,
    read_samples,
    write_samples,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON config: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return payload


def _typed(kind, merged: dict, key: str):
    """``kind(merged[key])``; a value that ``kind`` refuses (a config-file
    value of the wrong type) is a :class:`ConfigError` naming the key."""
    try:
        return kind(merged[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value for {key!r}: {merged[key]!r} ({exc})") from None


def _merge(defaults: dict, config: dict, args: argparse.Namespace) -> dict:
    """defaults < config file < explicitly-passed CLI flags."""
    merged = dict(defaults)
    unknown = set(config) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown config keys: {', '.join(sorted(unknown))}"
        )
    merged.update(config)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _resolve_out(merged: dict, command: str) -> str:
    out = merged.get("out")
    if not out:
        root = os.environ.get("DRIFTLAB_OUTPUT_ROOT", ".")
        out = os.path.join(root, f"{command}-out")
    merged["out"] = out
    return out


def _echo_config(out: str, merged: dict) -> None:
    atomic_write_text(os.path.join(out, "config.echo.json"),
                      json.dumps(merged, sort_keys=True, indent=2) + "\n")


def _resolve_dataset(spec_text: str) -> ToyDataset:
    if spec_text in PRESET_NAMES:
        return ToyDataset(gmm=get_preset(spec_text))
    if os.path.exists(spec_text):
        samples, labels, _ = read_samples(spec_text)
        return ToyDataset(samples=samples, labels=labels)
    raise ConfigError(
        f"dataset not found: {spec_text!r} is neither a preset "
        f"({', '.join(PRESET_NAMES)}) nor an existing file"
    )


def _build_schedule(merged: dict):
    kwargs = {}
    for key in ("beta_min", "beta_max"):
        if merged.get(key) is not None:
            kwargs[key] = _typed(float, merged, key)
    return make_schedule(merged["schedule"], **kwargs)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_TRAIN_DEFAULTS = {
    "out": None,
    "dataset": "two-gauss-1d",
    "objective": "velocity",
    "schedule": "linear",
    "beta_min": None,
    "beta_max": None,
    "steps": 5000,
    "batch": 256,
    "lr": 1e-4,
    "label_dropout": 0.1,
    "conditional": False,
    "seed": 0,
    "t_lo": None,
    "t_hi": None,
    "profile_bins": 50,
    "profile_draws": 2000,
}


def _cmd_train(args: argparse.Namespace) -> int:
    merged = _merge(_TRAIN_DEFAULTS, _load_config_file(args.config), args)
    out = _resolve_out(merged, "train")
    dataset = _resolve_dataset(merged["dataset"])
    schedule = _build_schedule(merged)
    config = TrainConfig(
        objective=_typed(TrainObjective, merged, "objective"),
        schedule=schedule,
        steps=_typed(int, merged, "steps"),
        batch=_typed(int, merged, "batch"),
        learning_rate=_typed(float, merged, "lr"),
        label_dropout=_typed(float, merged, "label_dropout"),
        t_lo=None if merged["t_lo"] is None else _typed(float, merged, "t_lo"),
        t_hi=None if merged["t_hi"] is None else _typed(float, merged, "t_hi"),
        seed=_typed(int, merged, "seed"),
        conditional=bool(merged["conditional"]),
        profile_bins=_typed(int, merged, "profile_bins"),
        profile_draws=_typed(int, merged, "profile_draws"),
    )
    result = train(config, dataset)
    _echo_config(out, merged)
    save_checkpoint(result.model, os.path.join(out, "checkpoint.json"))
    result.profile.save(os.path.join(out, "profile.txt"))
    curve_lines = [f"{int(step)} {float(loss)!r}" for step, loss in result.curve]
    atomic_write_text(os.path.join(out, "curve.txt"),
                      "\n".join(curve_lines) + "\n")
    print(f"wrote {out}/checkpoint.json, profile.txt, curve.txt "
          f"(final loss {float(result.curve[-1, 1])!r})")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

_SAMPLE_DEFAULTS = {
    "out": None,
    "checkpoint": None,
    "analytic": None,
    "prediction": "score",
    "schedule": "linear",
    "beta_min": None,
    "beta_max": None,
    "sampler": "heun",
    "steps": 250,
    "n": 10000,
    "seed": 0,
    "w": None,
    "zeta": None,
    "label": None,
    "t_start": None,
    "t_end": None,
    "last_step_to": None,
    "profile": None,
}


def _build_field(merged: dict):
    """Returns (model, schedule) from either --checkpoint or --analytic."""
    checkpoint = merged.get("checkpoint")
    analytic = merged.get("analytic")
    if (checkpoint is None) == (analytic is None):
        raise ConfigError("exactly one of --checkpoint or --analytic is required")
    if checkpoint is not None:
        model = load_checkpoint(checkpoint)
        return model, model.schedule
    schedule = _build_schedule(merged)
    gmm = get_preset(analytic)
    model = AnalyticMixtureField(
        gmm, schedule,
        prediction=_typed(Prediction, merged, "prediction"),
        conditional=True,
    )
    return model, schedule


def _build_sampler_spec(merged: dict, model, schedule) -> SamplerSpec:
    kind = _typed(SamplerKind, merged, "sampler")
    # The exact velocity is the exact score converted pointwise, so it needs
    # the score's window, clear of the conversion's singularity at alpha = 0.
    prediction = (Prediction.SCORE if isinstance(model, AnalyticMixtureField)
                  else model.prediction)
    t_start, t_end, last_step_to = default_window(schedule, prediction, kind)
    if merged.get("t_start") is not None:
        t_start = _typed(float, merged, "t_start")
    if merged.get("t_end") is not None:
        t_end = _typed(float, merged, "t_end")
    if merged.get("last_step_to") is not None:
        last_step_to = _typed(float, merged, "last_step_to")
    diffusion = None
    if kind is SamplerKind.EULER_MARUYAMA_SDE:
        profile = None
        if merged.get("profile") is not None:
            profile = LossProfile.load(merged["profile"])
        w_text = merged.get("w") or "sigma"
        diffusion = parse_coefficient(w_text, schedule, loss_profile=profile)
    elif merged.get("w") is not None:
        raise ConfigError("--w applies only to the em sampler "
                          "(the probability-flow sampler is noiseless)")
    return SamplerSpec(
        kind=kind,
        t_start=t_start,
        t_end=t_end,
        steps=_typed(int, merged, "steps"),
        diffusion=diffusion,
        last_step_to=last_step_to if kind is SamplerKind.EULER_MARUYAMA_SDE else None,
        guidance_zeta=(None if merged.get("zeta") is None
                       else _typed(float, merged, "zeta")),
        seed=_typed(int, merged, "seed"),
    )


def _run_sampler(model, spec: SamplerSpec, n: int, label):
    y = None if label is None else int(label)
    if spec.guidance_zeta is not None and y is None:
        raise ConfigError("--zeta requires --label (the class to guide toward)")
    if spec.kind is SamplerKind.HEUN_ODE:
        return heun_sample(model, spec, n, y=y)
    return euler_maruyama_sample(model, spec, n, y=y)


def _cmd_sample(args: argparse.Namespace) -> int:
    merged = _merge(_SAMPLE_DEFAULTS, _load_config_file(args.config), args)
    out = _resolve_out(merged, "sample")
    model, schedule = _build_field(merged)
    spec = _build_sampler_spec(merged, model, schedule)
    label = None if merged.get("label") is None else _typed(int, merged, "label")
    result = _run_sampler(model, spec, _typed(int, merged, "n"), label)
    # Echo the resolved window so the run is reproducible from outputs alone.
    merged["t_start"] = spec.t_start
    merged["t_end"] = spec.t_end
    merged["last_step_to"] = spec.last_step_to
    _echo_config(out, merged)
    path = os.path.join(out, "samples.txt")
    write_samples(path, result.samples, seed=spec.seed, nfe=result.nfe)
    print(f"wrote {path} (n={result.samples.shape[0]}, nfe={result.nfe})")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_EVAL_DEFAULTS = {
    "out": None,
    "samples": None,
    "reference": None,
    "n_reference": None,
    "seed": 0,
    "metrics": "energy,ks,occupancy",
    "permutations": 0,
}


def _score(report: MetricReport, wanted, samples: np.ndarray, reference: np.ndarray,
           gmm, permutations: int, seed: int) -> None:
    """Add the wanted metrics of samples against a reference to a report."""
    if "energy" in wanted:
        if permutations > 0:
            stat, p_value = energy_distance_permutation_test(
                samples, reference, n_permutations=permutations, seed=seed)
            report.set("energy_distance", stat)
            report.set("energy_p_value", p_value)
        else:
            report.set("energy_distance", energy_distance(samples, reference))
    if "ks" in wanted:
        report.set("ks", ks_per_axis(samples, reference))
    if "occupancy" in wanted:
        if gmm is None:
            raise ConfigError(
                "occupancy requires a preset reference (needs component means)"
            )
        report.set("occupancy", mode_occupancy(samples, gmm))


def _cmd_eval(args: argparse.Namespace) -> int:
    merged = _merge(_EVAL_DEFAULTS, _load_config_file(args.config), args)
    out = _resolve_out(merged, "eval")
    if not merged.get("samples"):
        raise ConfigError("--samples is required")
    if not merged.get("reference"):
        raise ConfigError("--reference is required (preset name or samples file)")
    seed = _typed(int, merged, "seed")
    permutations = _typed(int, merged, "permutations")
    samples, _, meta = read_samples(merged["samples"])
    reference_spec = merged["reference"]
    gmm = None
    if reference_spec in PRESET_NAMES:
        gmm = get_preset(reference_spec)
        n_ref = (_typed(int, merged, "n_reference") if merged.get("n_reference")
                 else samples.shape[0])
        reference, _ = draw(gmm, n_ref, seed=seed, with_labels=False)
    elif os.path.exists(reference_spec):
        reference, _, _ = read_samples(reference_spec)
    else:
        raise ConfigError(f"reference not found: {reference_spec!r}")
    wanted = [m.strip() for m in str(merged["metrics"]).split(",") if m.strip()]
    known = {"energy", "ks", "occupancy"}
    bad = set(wanted) - known
    if bad:
        raise ConfigError(f"unknown metrics: {', '.join(sorted(bad))} "
                          f"(choose from {', '.join(sorted(known))})")
    report = MetricReport()
    report.set("n_samples", samples.shape[0])
    report.set("n_reference", reference.shape[0])
    report.set("seed", seed)
    if "nfe" in meta:
        report.set("nfe", int(meta["nfe"]))
    _score(report, wanted, samples, reference, gmm, permutations, seed)
    _echo_config(out, merged)
    atomic_write_text(os.path.join(out, "report.txt"), report.to_text())
    atomic_write_text(os.path.join(out, "report.json"), report.to_json())
    sys.stdout.write(report.to_text())
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_DEFAULTS = {
    "out": None,
    "dataset": "two-gauss-1d",
    "prediction": "score",
    "schedules": ["linear"],
    "samplers": ["heun", "em"],
    "coefficients": ["sigma"],
    "zetas": [],
    "steps": [250],
    "n": 4096,
    "seed": 0,
    "beta_min": None,
    "beta_max": None,
    "t_start": None,
    "t_end": None,
    "last_step_to": None,
    "permutations": 0,
}


def _cell_seed(master_seed: int, key: str) -> int:
    digest = hashlib.sha256(f"{master_seed}|{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def _cell_key(schedule: str, sampler: str, w: str, steps: int, zeta) -> str:
    parts = [schedule, sampler, w.replace(":", "-"), f"n{steps}"]
    if zeta is not None:
        parts.append(f"z{zeta}")
    return "_".join(parts)


def _run_cell(config: dict, key: str, schedule_name: str, sampler_name: str,
              w_text: str | None, steps: int, zeta) -> MetricReport:
    """Sample one cell with the exact field of the dataset and score it.

    Reads only the sweep-level ``config`` (see :func:`_cell_config`) and the
    cell's own axes, so the config stored with a cell identifies its result.
    """
    cell_seed = _cell_seed(config["seed"], key)
    cell = dict(config, analytic=config["dataset"], schedule=schedule_name,
                sampler=sampler_name, w=w_text, steps=steps, zeta=zeta,
                seed=cell_seed)
    model, schedule = _build_field(cell)
    spec = _build_sampler_spec(cell, model, schedule)
    result = _run_sampler(model, spec, config["n"], 0 if zeta is not None else None)
    reference, _ = draw(model.gmm, config["n"], seed=cell_seed + 1, with_labels=False)
    report = MetricReport()
    report.set("cell", key)
    report.set("status", "ok")
    report.set("seed", cell_seed)
    report.set("nfe", result.nfe)
    _score(report, ("energy", "ks", "occupancy"), result.samples, reference,
           model.gmm, config["permutations"], cell_seed)
    return report


def _cell_config(merged: dict) -> dict:
    """The sweep-level settings every cell result depends on.

    Stored in each cell file; a rerun reuses a cell only when they match.
    """
    config = {name: merged[name] for name in (
        "dataset", "prediction", "t_start", "t_end", "last_step_to",
        "beta_min", "beta_max")}
    for name in ("t_start", "t_end", "last_step_to", "beta_min", "beta_max"):
        if config[name] is not None:
            _typed(float, config, name)
    config.update(n=_typed(int, merged, "n"), seed=_typed(int, merged, "seed"),
                  permutations=_typed(lambda value: int(value or 0), merged,
                                      "permutations"))
    return config


def _reusable_cell(path: str, config: dict) -> dict | None:
    """A stored cell computed under ``config``, or None."""
    try:
        with open(path, "r") as handle:
            payload = json.load(handle)
    except (FileNotFoundError, ValueError):
        return None
    if isinstance(payload, dict) and payload.get("config") == config:
        return payload
    return None


def _cmd_sweep(args: argparse.Namespace) -> int:
    merged = _merge(_SWEEP_DEFAULTS, _load_config_file(args.config), args)
    out = _resolve_out(merged, "sweep")
    schedules, samplers, coefficients, zetas = (
        _typed(list, merged, name)
        for name in ("schedules", "samplers", "coefficients", "zetas"))
    steps_axis = _typed(lambda values: [int(steps) for steps in values], merged, "steps")
    plan = [(schedule_name, sampler_name, w_text, steps, zeta)
            for schedule_name in schedules
            for sampler_name in samplers
            for w_text in (coefficients if sampler_name == "em" else [None])
            for steps in steps_axis
            for zeta in zetas or [None]]
    config = _cell_config(merged)
    cells_dir = os.path.join(out, "cells")
    os.makedirs(cells_dir, exist_ok=True)
    _echo_config(out, merged)
    summary_rows = []
    n_skipped = 0
    for schedule_name, sampler_name, w_text, steps, zeta in plan:
        key = _cell_key(schedule_name, sampler_name, w_text or "-", steps, zeta)
        cell_path = os.path.join(cells_dir, f"{key}.json")
        payload = _reusable_cell(cell_path, config)
        if payload is not None:
            n_skipped += 1
        else:
            try:
                report = _run_cell(config, key, schedule_name, sampler_name,
                                   w_text, steps, zeta)
                payload = json.loads(report.to_json())
            except DriftlabError as exc:
                payload = {
                    "cell": key,
                    "status": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                }
            payload["config"] = config
            atomic_write_text(cell_path,
                              json.dumps(payload, sort_keys=True, indent=2) + "\n")
        summary_rows.append(payload)
    lines = []
    for payload in sorted(summary_rows, key=lambda p: p["cell"]):
        fields = [payload["cell"], f"status={payload['status']}"]
        if payload["status"] == "ok":
            fields.append(f"nfe={payload['nfe']}")
            fields.append(f"energy_distance={payload['energy_distance']!r}")
            if "energy_p_value" in payload:
                fields.append(f"energy_p_value={payload['energy_p_value']!r}")
        else:
            fields.append(f"error={payload['error']}")
        lines.append(" ".join(fields))
    atomic_write_text(os.path.join(out, "summary.txt"), "\n".join(lines) + "\n")
    print(f"sweep complete: {len(plan)} cells ({n_skipped} reused), "
          f"summary at {out}/summary.txt")
    return 0


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------

_INFO_DEFAULTS = {
    "out": None,
    "schedule": "linear",
    "beta_min": None,
    "beta_max": None,
    "w": None,
    "t_start": 0.0,
    "t_end": 1.0,
    "points": 11,
}


def _cmd_info(args: argparse.Namespace) -> int:
    merged = _merge(_INFO_DEFAULTS, _load_config_file(args.config), args)
    schedule = _build_schedule(merged)
    coefficient = None
    if merged.get("w") is not None:
        coefficient = parse_coefficient(merged["w"], schedule)
    grid = np.linspace(_typed(float, merged, "t_start"), _typed(float, merged, "t_end"),
                       _typed(int, merged, "points"))
    columns = ["t", "alpha", "sigma", "alpha_dot", "sigma_dot", "lambda", "w_kl"]
    if coefficient is not None:
        columns.append("w")
    print(" ".join(columns))
    for t in grid:
        t = float(t)
        row = [f"{t:.6g}"]
        for fn in (schedule.alpha, schedule.sigma, schedule.alpha_dot,
                   schedule.sigma_dot, schedule.lambda_weight, schedule.w_kl):
            try:
                row.append(f"{float(fn(t)):.10g}")
            except SingularityError:
                row.append("singular")
        if coefficient is not None:
            try:
                row.append(f"{float(coefficient(t)):.10g}")
            except SingularityError:
                row.append("singular")
        print(" ".join(row))
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description=("Interpolant-based generative modeling on toy mixtures: "
                     "train field networks, sample with deterministic or "
                     "stochastic integrators, evaluate, and sweep."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None,
                       help="JSON config file; flags override its keys")
        p.add_argument("--out", default=None, help="output directory")

    p_train = sub.add_parser("train", help="train a field network")
    add_common(p_train)
    p_train.add_argument("--dataset", default=None,
                         help=f"preset ({', '.join(PRESET_NAMES)}) or samples file")
    p_train.add_argument("--objective", default=None,
                         choices=[o.value for o in TrainObjective])
    p_train.add_argument("--schedule", default=None, choices=list(SCHEDULE_NAMES))
    p_train.add_argument("--beta-min", dest="beta_min", type=float, default=None)
    p_train.add_argument("--beta-max", dest="beta_max", type=float, default=None)
    p_train.add_argument("--steps", type=int, default=None)
    p_train.add_argument("--batch", type=int, default=None)
    p_train.add_argument("--lr", type=float, default=None)
    p_train.add_argument("--label-dropout", dest="label_dropout", type=float,
                         default=None)
    p_train.add_argument("--conditional", action="store_const", const=True,
                         default=None, help="train a class-conditional model")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--t-lo", dest="t_lo", type=float, default=None)
    p_train.add_argument("--t-hi", dest="t_hi", type=float, default=None)
    p_train.add_argument("--profile-bins", dest="profile_bins", type=int,
                         default=None)
    p_train.add_argument("--profile-draws", dest="profile_draws", type=int,
                         default=None)
    p_train.set_defaults(func=_cmd_train)

    p_sample = sub.add_parser("sample", help="draw samples from a model")
    add_common(p_sample)
    p_sample.add_argument("--checkpoint", default=None,
                          help="trained-model checkpoint file")
    p_sample.add_argument("--analytic", default=None, metavar="PRESET",
                          help="use the exact mixture field of a preset instead "
                               "of a checkpoint")
    p_sample.add_argument("--prediction", default=None,
                          choices=[p.value for p in Prediction],
                          help="field type for --analytic (default score)")
    p_sample.add_argument("--schedule", default=None, choices=list(SCHEDULE_NAMES))
    p_sample.add_argument("--beta-min", dest="beta_min", type=float, default=None)
    p_sample.add_argument("--beta-max", dest="beta_max", type=float, default=None)
    p_sample.add_argument("--sampler", default=None, choices=["heun", "em"])
    p_sample.add_argument("--steps", type=int, default=None)
    p_sample.add_argument("--n", type=int, default=None)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--w", default=None,
                          help=f"diffusion coefficient for em: {COEFFICIENT_FORMS}")
    p_sample.add_argument("--zeta", type=float, default=None,
                          help="guidance strength (needs --label)")
    p_sample.add_argument("--label", type=int, default=None,
                          help="class label to condition/guide on")
    p_sample.add_argument("--t-start", dest="t_start", type=float, default=None)
    p_sample.add_argument("--t-end", dest="t_end", type=float, default=None)
    p_sample.add_argument("--last-step-to", dest="last_step_to", type=float,
                          default=None)
    p_sample.add_argument("--profile", default=None,
                          help="loss-profile file (required by --w kl-eta:<eta>)")
    p_sample.set_defaults(func=_cmd_sample)

    p_eval = sub.add_parser("eval", help="compare samples against a reference")
    add_common(p_eval)
    p_eval.add_argument("--samples", default=None, help="samples file to evaluate")
    p_eval.add_argument("--reference", default=None,
                        help="preset name (exact draws) or samples file")
    p_eval.add_argument("--n-reference", dest="n_reference", type=int,
                        default=None)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--metrics", default=None,
                        help="comma list: energy,ks,occupancy")
    p_eval.add_argument("--permutations", type=int, default=None,
                        help="permutation count for the energy-distance test")
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="grid of sample+eval cells")
    add_common(p_sweep)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--n", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_info = sub.add_parser("info", help="print schedule/coefficient values")
    add_common(p_info)
    p_info.add_argument("--schedule", default=None, choices=list(SCHEDULE_NAMES))
    p_info.add_argument("--beta-min", dest="beta_min", type=float, default=None)
    p_info.add_argument("--beta-max", dest="beta_max", type=float, default=None)
    p_info.add_argument("--w", default=None)
    p_info.add_argument("--t-start", dest="t_start", type=float, default=None)
    p_info.add_argument("--t-end", dest="t_end", type=float, default=None)
    p_info.add_argument("--points", type=int, default=None)
    p_info.set_defaults(func=_cmd_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SingularityError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DriftlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
