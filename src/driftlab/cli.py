"""Command-line interface: ``train``, ``sample``, ``eval``, ``sweep``, ``info``.

Conventions shared by every subcommand:

* Configuration may come from a JSON file (``--config``); any flag given on
  the command line overrides the corresponding config key.  Each key is
  declared once, in its command's options table, with its default and the
  kind that every value of it goes through, from a flag or from the file.
  The effective merged configuration is echoed into the output directory as
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
# Options
#
# Each command declares its keys once, as ``key: (default, kind[, help])``.
# The flag is ``--key-with-dashes``.  ``kind`` is a tuple of allowed names
# (argparse ``choices``), ``_flag`` (a ``store_const`` flag) or a converter
# that raises TypeError or ValueError on a value it refuses.  Flag strings
# and config-file values both go through it, once, in :func:`_merge`.
# ---------------------------------------------------------------------------


def _text(value):
    """A JSON string."""
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _flag(value):
    """A bool written as JSON ``true`` or ``false``; ``"no"`` is refused."""
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _count(value):
    """A non-negative integer."""
    count = int(value)
    if count < 0:
        raise ValueError("must not be negative")
    return count


def _real(value):
    """A real number.  A JSON number is kept as written, so the echoed config
    and the sweep cell keys (``z{zeta}``) spell it as the file did."""
    if isinstance(value, bool):
        raise TypeError("expected a number")
    if isinstance(value, (int, float)):
        return value
    return float(value)


def _list_of(kind):
    """A JSON list whose every item goes through ``kind``."""
    def convert(values):
        if not isinstance(values, list):
            raise TypeError("expected a list")
        return [_convert(kind, value) for value in values]
    return convert


def _convert(kind, value):
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"choose from {', '.join(kind)}")
        return value
    return kind(value)


_PREDICTIONS = tuple(p.value for p in Prediction)
_SAMPLERS = tuple(k.value for k in SamplerKind)

_OUT = {"out": (None, _text, "output directory")}
_BETA = {"beta_min": (None, _real), "beta_max": (None, _real)}
_SCHEDULE = {"schedule": ("linear", SCHEDULE_NAMES), **_BETA}
#: Overrides of the sampler's default ``(t_start, t_end, last_step_to)``.
_WINDOW = {"t_start": (None, _real), "t_end": (None, _real),
           "last_step_to": (None, _real)}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON config: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return payload


def _merge(options: dict, config: dict, args: argparse.Namespace) -> dict:
    """defaults < config file < explicitly-passed CLI flags, each value
    through its key's kind.  ``null`` is kept only where the default is."""
    unknown = set(config) - set(options)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = {}
    for key, (default, kind, *_) in options.items():
        flag = getattr(args, key, None)
        value = config.get(key, default) if flag is None else flag
        if value is None and default is None:
            merged[key] = None
            continue
        try:
            merged[key] = _convert(kind, value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid value for {key!r}: {value!r} ({exc})") from None
    return merged


def _resolve_out(merged: dict, command: str) -> str:
    out = merged["out"]
    if not out:
        root = os.environ.get("DRIFTLAB_OUTPUT_ROOT", ".")
        out = os.path.join(root, f"{command}-out")
    if os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(f"output path exists and is not a directory: {out}")
    merged["out"] = out
    return out


def _echo_config(out: str, merged: dict) -> None:
    atomic_write_text(os.path.join(out, "config.echo.json"),
                      json.dumps(merged, sort_keys=True, indent=2) + "\n")


def _resolve_dataset(spec_text: str) -> ToyDataset:
    """The dataset named by ``--dataset`` or ``--reference``: a preset or a samples file."""
    if spec_text in PRESET_NAMES:
        return ToyDataset(gmm=get_preset(spec_text))
    if os.path.isfile(spec_text):
        samples, labels, _ = read_samples(spec_text)
        return ToyDataset(samples=samples, labels=labels)
    raise ConfigError(
        f"dataset not found: {spec_text!r} is neither a preset "
        f"({', '.join(PRESET_NAMES)}) nor an existing file"
    )


def _build_schedule(merged: dict):
    betas = {key: merged[key] for key in _BETA if merged[key] is not None}
    return make_schedule(merged["schedule"], **betas)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_TRAIN_OPTIONS = {
    **_OUT,
    "dataset": ("two-gauss-1d", _text,
                f"preset ({', '.join(PRESET_NAMES)}) or samples file"),
    "objective": ("velocity", tuple(o.value for o in TrainObjective)),
    **_SCHEDULE,
    "steps": (5000, int),
    "batch": (256, int),
    "lr": (1e-4, _real),
    "label_dropout": (0.1, _real),
    "conditional": (False, _flag, "train a class-conditional model"),
    "seed": (0, _count),
    "t_lo": (None, _real),
    "t_hi": (None, _real),
    "profile_bins": (50, int),
    "profile_draws": (2000, int),
}


def _cmd_train(merged: dict) -> int:
    out = _resolve_out(merged, "train")
    dataset = _resolve_dataset(merged["dataset"])
    config = TrainConfig(
        objective=merged["objective"],
        schedule=_build_schedule(merged),
        steps=merged["steps"],
        batch=merged["batch"],
        learning_rate=merged["lr"],
        label_dropout=merged["label_dropout"],
        t_lo=merged["t_lo"],
        t_hi=merged["t_hi"],
        seed=merged["seed"],
        conditional=merged["conditional"],
        profile_bins=merged["profile_bins"],
        profile_draws=merged["profile_draws"],
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

_SAMPLE_OPTIONS = {
    **_OUT,
    "checkpoint": (None, _text, "trained-model checkpoint file"),
    "analytic": (None, _text,
                 "use the exact mixture field of a preset instead of a checkpoint"),
    "prediction": ("score", _PREDICTIONS, "field type for --analytic (default score)"),
    **_SCHEDULE,
    "sampler": ("heun", _SAMPLERS),
    "steps": (250, int),
    "n": (10000, int),
    "seed": (0, _count),
    "w": (None, _text, f"diffusion coefficient for em: {COEFFICIENT_FORMS}"),
    "zeta": (None, _real, "guidance strength (needs --label)"),
    "label": (None, int, "class label to condition/guide on"),
    **_WINDOW,
    "profile": (None, _text, "loss-profile file (required by --w kl-eta:<eta>)"),
}


def _build_field(merged: dict):
    """Returns (model, schedule) from either --checkpoint or --analytic."""
    checkpoint = merged["checkpoint"]
    analytic = merged["analytic"]
    if (checkpoint is None) == (analytic is None):
        raise ConfigError("exactly one of --checkpoint or --analytic is required")
    if checkpoint is not None:
        model = load_checkpoint(checkpoint)
        return model, model.schedule
    schedule = _build_schedule(merged)
    gmm = get_preset(analytic)
    model = AnalyticMixtureField(gmm, schedule, prediction=merged["prediction"],
                                 conditional=True)
    return model, schedule


def _build_sampler_spec(merged: dict, model, schedule) -> SamplerSpec:
    stochastic = merged["sampler"] == "em"
    # The exact velocity is the exact score converted pointwise, so it needs
    # the score's window, clear of the conversion's singularity at alpha = 0.
    prediction = (Prediction.SCORE if isinstance(model, AnalyticMixtureField)
                  else model.prediction)
    defaults = default_window(schedule, prediction, merged["sampler"])
    t_start, t_end, last_step_to = (default if merged[key] is None else merged[key]
                                    for key, default in zip(_WINDOW, defaults))
    diffusion = None
    if stochastic:
        profile = None if merged["profile"] is None else LossProfile.load(merged["profile"])
        diffusion = parse_coefficient(merged["w"] or "sigma", schedule, loss_profile=profile)
    elif merged["w"] is not None:
        raise ConfigError("--w applies only to the em sampler "
                          "(the probability-flow sampler is noiseless)")
    return SamplerSpec(
        kind=merged["sampler"],
        t_start=t_start,
        t_end=t_end,
        steps=merged["steps"],
        diffusion=diffusion,
        last_step_to=last_step_to if stochastic else None,
        guidance_zeta=merged["zeta"],
        seed=merged["seed"],
    )


def _run_sampler(model, spec: SamplerSpec, n: int, y: int | None):
    if spec.guidance_zeta is not None and y is None:
        raise ConfigError("--zeta requires --label (the class to guide toward)")
    if spec.kind is SamplerKind.HEUN_ODE:
        return heun_sample(model, spec, n, y=y)
    return euler_maruyama_sample(model, spec, n, y=y)


def _cmd_sample(merged: dict) -> int:
    out = _resolve_out(merged, "sample")
    model, schedule = _build_field(merged)
    spec = _build_sampler_spec(merged, model, schedule)
    result = _run_sampler(model, spec, merged["n"], merged["label"])
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

#: The metrics eval may name and every sweep cell reports, in report order.
_METRICS = ("energy", "ks", "occupancy")

_EVAL_OPTIONS = {
    **_OUT,
    "samples": (None, _text, "samples file to evaluate"),
    "reference": (None, _text, "preset name (exact draws) or samples file"),
    "n_reference": (None, int),
    "seed": (0, _count),
    "metrics": (",".join(_METRICS), _text, f"comma list: {','.join(_METRICS)}"),
    "permutations": (0, _count, "permutation count for the energy-distance test"),
}


def _score(report: MetricReport, wanted, samples: np.ndarray, reference: np.ndarray,
           gmm, permutations: int, seed: int) -> None:
    """Add the wanted metrics of samples against a reference to a report."""
    energy, ks, occupancy = (name in wanted for name in _METRICS)
    if energy:
        if permutations > 0:
            stat, p_value = energy_distance_permutation_test(
                samples, reference, n_permutations=permutations, seed=seed)
            report.set("energy_distance", stat)
            report.set("energy_p_value", p_value)
        else:
            report.set("energy_distance", energy_distance(samples, reference))
    if ks:
        report.set("ks", ks_per_axis(samples, reference))
    if occupancy:
        if gmm is None:
            raise ConfigError(
                "occupancy requires a preset reference (needs component means)"
            )
        report.set("occupancy", mode_occupancy(samples, gmm))


def _cmd_eval(merged: dict) -> int:
    out = _resolve_out(merged, "eval")
    if not merged["samples"]:
        raise ConfigError("--samples is required")
    if not merged["reference"]:
        raise ConfigError("--reference is required (preset name or samples file)")
    seed = merged["seed"]
    samples, _, meta = read_samples(merged["samples"])
    dataset = _resolve_dataset(merged["reference"])
    gmm, reference = dataset.gmm, dataset.samples
    if gmm is not None:
        n_ref = merged["n_reference"] or samples.shape[0]
        reference, _ = draw(gmm, n_ref, seed=seed, with_labels=False)
    wanted = [m.strip() for m in merged["metrics"].split(",") if m.strip()]
    bad = set(wanted) - set(_METRICS)
    if bad:
        raise ConfigError(f"unknown metrics: {', '.join(sorted(bad))} "
                          f"(choose from {', '.join(_METRICS)})")
    report = MetricReport()
    report.set("n_samples", samples.shape[0])
    report.set("n_reference", reference.shape[0])
    report.set("seed", seed)
    if "nfe" in meta:
        report.set("nfe", int(meta["nfe"]))
    _score(report, wanted, samples, reference, gmm, merged["permutations"], seed)
    _echo_config(out, merged)
    atomic_write_text(os.path.join(out, "report.txt"), report.to_text())
    atomic_write_text(os.path.join(out, "report.json"), report.to_json())
    sys.stdout.write(report.to_text())
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_OPTIONS = {
    **_OUT,
    "dataset": ("two-gauss-1d", _text),
    "prediction": ("score", _PREDICTIONS),
    "schedules": (["linear"], _list_of(SCHEDULE_NAMES)),
    "samplers": (["heun", "em"], _list_of(_SAMPLERS)),
    # Checked per cell: a kl-eta coefficient fails there for want of a profile.
    "coefficients": (["sigma"], _list_of(_text)),
    "zetas": ([], _list_of(_real)),
    "steps": ([250], _list_of(int)),
    "n": (4096, int),
    "seed": (0, int),
    **_BETA,
    **_WINDOW,
    "permutations": (0, _count),
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
    cell = dict(config, checkpoint=None, analytic=config["dataset"], profile=None,
                schedule=schedule_name, sampler=sampler_name, w=w_text, steps=steps,
                zeta=zeta, seed=cell_seed)
    if schedule_name != "sbdm-vp":  # the sweep's betas shape only the VP schedule
        cell.update(beta_min=None, beta_max=None)
    model, schedule = _build_field(cell)
    spec = _build_sampler_spec(cell, model, schedule)
    result = _run_sampler(model, spec, config["n"], 0 if zeta is not None else None)
    reference, _ = draw(model.gmm, config["n"], seed=cell_seed + 1, with_labels=False)
    report = MetricReport()
    report.set("cell", key)
    report.set("status", "ok")
    report.set("seed", cell_seed)
    report.set("nfe", result.nfe)
    _score(report, _METRICS, result.samples, reference,
           model.gmm, config["permutations"], cell_seed)
    return report


def _cell_config(merged: dict) -> dict:
    """The sweep-level settings every cell result depends on.

    Stored in each cell file; a rerun reuses a cell only when they match.
    """
    return {name: merged[name] for name in (
        "dataset", "prediction", "t_start", "t_end", "last_step_to",
        "beta_min", "beta_max", "n", "seed", "permutations")}


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


def _cmd_sweep(merged: dict) -> int:
    out = _resolve_out(merged, "sweep")
    plan = [(schedule_name, sampler_name, w_text, steps, zeta)
            for schedule_name in merged["schedules"]
            for sampler_name in merged["samplers"]
            for w_text in (merged["coefficients"] if sampler_name == "em" else [None])
            for steps in merged["steps"]
            for zeta in merged["zetas"] or [None]]
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

_INFO_OPTIONS = {
    **_SCHEDULE,
    "w": (None, _text),
    "t_start": (0.0, _real),
    "t_end": (1.0, _real),
    "points": (11, _count),
}


def _cmd_info(merged: dict) -> int:
    schedule = _build_schedule(merged)
    coefficient = None if merged["w"] is None else parse_coefficient(merged["w"], schedule)
    grid = np.linspace(merged["t_start"], merged["t_end"], merged["points"])
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

#: command -> (body, help, options table, keys that get a flag, None for all).
#: A sweep takes its axes and its other keys from its config file only.
_COMMANDS = {
    "train": (_cmd_train, "train a field network", _TRAIN_OPTIONS, None),
    "sample": (_cmd_sample, "draw samples from a model", _SAMPLE_OPTIONS, None),
    "eval": (_cmd_eval, "compare samples against a reference", _EVAL_OPTIONS, None),
    "sweep": (_cmd_sweep, "grid of sample+eval cells", _SWEEP_OPTIONS,
              ("out", "seed", "n")),
    "info": (_cmd_info, "print schedule/coefficient values", _INFO_OPTIONS, None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description=("Interpolant-based generative modeling on toy mixtures: "
                     "train field networks, sample with deterministic or "
                     "stochastic integrators, evaluate, and sweep."),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, options, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", default=None,
                       help="JSON config file; flags override its keys")
        for key in flags or options:
            _, kind, *help_text = options[key]
            extra = ({"action": "store_const", "const": True} if kind is _flag
                     else {"choices": kind} if isinstance(kind, tuple) else {})
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                           help=help_text[0] if help_text else None, **extra)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    body, _, options, _ = _COMMANDS[args.command]
    try:
        return body(_merge(options, _load_config_file(args.config), args))
    except (SingularityError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DriftlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
