"""End-to-end command-line behavior: artifacts, determinism, exit codes."""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from driftlab import (
    LossProfile,
    MLPField,
    default_window,
    load_checkpoint,
    make_schedule,
    read_samples,
    save_checkpoint,
    write_samples,
)
from driftlab.cli import main


@pytest.fixture(autouse=True)
def output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTLAB_OUTPUT_ROOT", str(tmp_path))
    return tmp_path


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


TRAIN_FAST = ["--steps", "30", "--batch", "32",
              "--profile-bins", "3", "--profile-draws", "50"]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_reproducible_artifacts(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["train", "--out", str(out_a), *TRAIN_FAST]) == 0
    assert "checkpoint.json" in capsys.readouterr().out
    for name in ("checkpoint.json", "profile.txt", "curve.txt",
                 "config.echo.json"):
        assert (out_a / name).exists()
    curve_lines = (out_a / "curve.txt").read_text().splitlines()
    assert len(curve_lines) == 30
    step, loss = curve_lines[0].split()
    assert step == "0" and float(loss) > 0.0
    model = load_checkpoint(str(out_a / "checkpoint.json"))
    assert model.dimension == 1
    echo = json.loads((out_a / "config.echo.json").read_text())
    assert echo["steps"] == 30
    assert echo["dataset"] == "two-gauss-1d"
    assert main(["train", "--out", str(out_b), *TRAIN_FAST]) == 0
    for name in ("checkpoint.json", "profile.txt", "curve.txt"):
        assert read_bytes(out_a / name) == read_bytes(out_b / name)


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"steps": 3, "batch": 16,
                                  "profile_bins": 2, "profile_draws": 20}))
    out = tmp_path / "t"
    assert main(["train", "--config", str(config), "--out", str(out),
                 "--steps", "2"]) == 0
    assert len((out / "curve.txt").read_text().splitlines()) == 2
    echo = json.loads((out / "config.echo.json").read_text())
    assert echo["steps"] == 2  # flag wins
    assert echo["batch"] == 16  # config wins over default


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"stepz": 3}))
    assert main(["train", "--config", str(config)]) == 2
    assert "stepz" in capsys.readouterr().err


def test_missing_dataset_names_both_options(tmp_path, capsys):
    assert main(["train", "--dataset", str(tmp_path / "no-such-file.txt")]) == 2
    err = capsys.readouterr().err
    assert "no-such-file.txt" in err
    assert "two-gauss-1d" in err  # lists the presets


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_header_reports_deterministic_evaluation_count(tmp_path):
    out = tmp_path / "s"
    assert main(["sample", "--analytic", "two-gauss-1d", "--out", str(out),
                 "--steps", "10", "--n", "8", "--seed", "5"]) == 0
    first_line = (out / "samples.txt").read_text().splitlines()[0]
    assert first_line == "# d=1 n=8 seed=5 nfe=20"  # Heun: 2 per step
    samples, labels, meta = read_samples(str(out / "samples.txt"))
    assert samples.shape == (8, 1)
    assert labels is None
    assert meta["nfe"] == 20
    echo = json.loads((out / "config.echo.json").read_text())
    assert echo["t_start"] == 1.0 - 1e-5  # resolved default window is echoed
    assert echo["t_end"] == 0.0
    assert echo["last_step_to"] is None


def test_sample_em_and_guidance_evaluation_counts(tmp_path):
    out_em = tmp_path / "em"
    assert main(["sample", "--analytic", "two-gauss-1d", "--sampler", "em",
                 "--out", str(out_em), "--steps", "10", "--n", "4"]) == 0
    _, _, meta = read_samples(str(out_em / "samples.txt"))
    assert meta["nfe"] == 11  # 10 steps + final noiseless step
    out_guided = tmp_path / "guided"
    assert main(["sample", "--analytic", "two-gauss-1d", "--sampler", "em",
                 "--out", str(out_guided), "--steps", "10", "--n", "4",
                 "--zeta", "2.0", "--label", "0"]) == 0
    _, _, meta = read_samples(str(out_guided / "samples.txt"))
    assert meta["nfe"] == 22


def test_sample_rerun_is_byte_identical(tmp_path):
    args = ["sample", "--analytic", "two-gauss-1d", "--steps", "12",
            "--n", "16", "--seed", "9"]
    out_a = tmp_path / "r1"
    out_b = tmp_path / "r2"
    assert main([*args, "--out", str(out_a)]) == 0
    assert main([*args, "--out", str(out_b)]) == 0
    assert read_bytes(out_a / "samples.txt") == read_bytes(out_b / "samples.txt")


def test_sample_validates_exclusive_model_source(tmp_path, capsys):
    assert main(["sample", "--analytic", "two-gauss-1d",
                 "--checkpoint", "x.json"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(["sample"]) == 2


def test_w_flag_is_rejected_for_the_deterministic_sampler(capsys):
    assert main(["sample", "--analytic", "two-gauss-1d", "--sampler", "heun",
                 "--w", "sigma", "--steps", "5", "--n", "4"]) == 2
    assert "em" in capsys.readouterr().err


def test_cost_aware_coefficient_requires_a_profile(capsys):
    assert main(["sample", "--analytic", "two-gauss-1d", "--sampler", "em",
                 "--w", "kl-eta:0.5", "--steps", "5", "--n", "4"]) == 2
    assert "profile" in capsys.readouterr().err


def test_singular_window_exits_with_numerical_failure_code(capsys):
    code = main(["sample", "--analytic", "two-gauss-1d", "--sampler", "em",
                 "--w", "kl", "--t-start", "1.0", "--steps", "5", "--n", "4"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_sample_from_trained_checkpoint(tmp_path):
    out_train = tmp_path / "t"
    assert main(["train", "--out", str(out_train), *TRAIN_FAST]) == 0
    out_sample = tmp_path / "s"
    assert main(["sample", "--checkpoint", str(out_train / "checkpoint.json"),
                 "--out", str(out_sample), "--steps", "8", "--n", "6"]) == 0
    samples, _, meta = read_samples(str(out_sample / "samples.txt"))
    assert samples.shape == (6, 1)
    assert meta["nfe"] == 16


def test_profile_backed_coefficient_runs_end_to_end(tmp_path):
    out_train = tmp_path / "t"
    assert main(["train", "--out", str(out_train), *TRAIN_FAST]) == 0
    out_sample = tmp_path / "s"
    assert main(["sample", "--analytic", "two-gauss-1d", "--sampler", "em",
                 "--w", "kl-eta:0.5", "--profile",
                 str(out_train / "profile.txt"),
                 "--out", str(out_sample), "--steps", "10", "--n", "4"]) == 0
    _, _, meta = read_samples(str(out_sample / "samples.txt"))
    assert meta["nfe"] == 11


@pytest.mark.parametrize("sampler", ["heun", "em"])
@pytest.mark.parametrize("schedule", ["linear", "gvp"])
def test_analytic_velocity_field_gets_the_score_window(tmp_path, schedule, sampler):
    # The exact velocity is the converted exact score, singular where
    # alpha(t) = 0, so its default window must be the score's.
    runs = {}
    for prediction in ("velocity", "score"):
        out = tmp_path / prediction
        assert main(["sample", "--analytic", "two-gauss-1d", "--prediction", prediction,
                     "--schedule", schedule, "--sampler", sampler,
                     "--steps", "10", "--n", "8", "--out", str(out)]) == 0
        echo = json.loads((out / "config.echo.json").read_text())
        runs[prediction] = (read_bytes(out / "samples.txt"),
                            (echo["t_start"], echo["t_end"], echo["last_step_to"]))
    assert runs["velocity"][1] == runs["score"][1] == default_window(schedule, "score", sampler)
    if sampler == "heun":  # both integrate the same converted score
        assert runs["velocity"][0] == runs["score"][0]


MALFORMED_FILES = {
    "header-value": ("samples", b"# d=x n=1 seed=0\n0.5\n"),
    "row": ("samples", b"# d=1 n=1 seed=0\nabc\n"),
    "row-bytes": ("samples", b"# d=1 n=1 seed=0\n\xff\xfe\n"),
    "profile-line": ("profile", b"# loss-profile bins=2 t_lo=0.0 t_hi=1.0\n"
                                b"0.0 0.5 1.0\n0.5 1.0\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_input_files_exit_with_usage_code(tmp_path, capsys, case):
    kind, content = MALFORMED_FILES[case]
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    if kind == "samples":
        argv = ["eval", "--samples", str(path), "--reference", "two-gauss-1d"]
    else:
        argv = ["sample", "--analytic", "two-gauss-1d", "--sampler", "em",
                "--w", "kl-eta:0.5", "--profile", str(path), "--steps", "5", "--n", "4"]
    assert main(argv) == 2
    assert str(path) in capsys.readouterr().err


BROKEN_CHECKPOINTS = {
    "no-architecture": lambda payload: payload.pop("architecture"),
    "no-parameters": lambda payload: payload.pop("parameters"),
    "no-widths": lambda payload: payload["architecture"].pop("widths"),
    "widths-not-a-list": lambda payload: payload["architecture"].update(widths=4),
    "unknown-prediction": lambda payload: payload["architecture"].update(prediction="noise"),
    "architecture-not-an-object": lambda payload: payload.update(architecture="mlp"),
    "non-numeric-parameters": lambda payload: payload.update(parameters=["a"]),
}


@pytest.mark.parametrize("case", sorted(BROKEN_CHECKPOINTS))
def test_checkpoint_with_missing_or_ill_typed_keys_exits_with_usage_code(
        tmp_path, capsys, case):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(MLPField(1, make_schedule("linear"), widths=(4,)), str(path))
    payload = json.loads(path.read_text())
    BROKEN_CHECKPOINTS[case](payload)
    path.write_text(json.dumps(payload))
    assert main(["sample", "--checkpoint", str(path), "--steps", "4", "--n", "2"]) == 2
    assert str(path) in capsys.readouterr().err


BAD_CONFIGS = {
    "sample-n-not-a-number": ("sample", b'{"n": "abc"}', "'n'"),
    "sample-zeta-not-a-number": ("sample", b'{"zeta": "strong", "label": 0}', "'zeta'"),
    "sample-unknown-sampler": ("sample", b'{"sampler": "rk4"}', "'sampler'"),
    "sample-not-utf8": ("sample", b'{"n": 5\xff}', None),
    "sweep-n-not-a-number": ("sweep", b'{"n": "abc"}', "'n'"),
    "sweep-steps-not-numbers": ("sweep", b'{"steps": ["many"]}', "'steps'"),
    "sweep-not-utf8": ("sweep", b'\xfe{"n": 5}', None),
    "train-lr-not-a-number": ("train", b'{"lr": "fast"}', "'lr'"),
    "info-points-not-a-number": ("info", b'{"points": [3]}', "'points'"),
    "train-conditional-not-a-bool": ("train", b'{"conditional": "no"}', "'conditional'"),
    "sweep-schedules-not-a-list": ("sweep", b'{"schedules": "linear"}', "'schedules'"),
    "sweep-unknown-sampler": ("sweep", b'{"samplers": ["rk4"]}', "'samplers'"),
    "sample-n-null": ("sample", b'{"n": null}', "'n'"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_config_values_of_the_wrong_type_exit_with_usage_code(tmp_path, capsys, case):
    command, content, named = BAD_CONFIGS[case]
    path = tmp_path / "config.json"
    path.write_bytes(content)
    argv = [command, "--config", str(path)]
    if command == "sample":
        argv += ["--analytic", "two-gauss-1d", "--steps", "4"]
    assert main(argv) == 2
    assert (named or str(path)) in capsys.readouterr().err
    assert not (tmp_path / f"{command}-out").exists()


UNUSABLE_DATASETS = {
    "header-only": ("# d=1 n=0 seed=0\n", []),
    "header-only-labeled": ("# d=1 n=0 seed=0 labels=1\n", ["--conditional"]),
    "all-labels-negative": ("# d=1 n=2 seed=0 labels=1\n0.5 -1\n-0.5 -1\n",
                            ["--conditional"]),
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_DATASETS))
def test_sample_files_train_cannot_use_exit_with_usage_code(tmp_path, capsys, case):
    content, flags = UNUSABLE_DATASETS[case]
    path = tmp_path / "data.txt"
    path.write_text(content)
    assert main(["train", "--dataset", str(path), *flags, *TRAIN_FAST]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_unconditional_training_ignores_the_labels_of_a_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("# d=1 n=2 seed=0 labels=1\n0.5 -1\n-0.5 -1\n")
    assert main(["train", "--dataset", str(path), "--out", str(tmp_path / "t"),
                 *TRAIN_FAST]) == 0


def test_checkpoint_with_other_time_features_exits_with_usage_code(tmp_path, capsys):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(MLPField(1, make_schedule("linear"), widths=(4,)), str(path))
    payload = json.loads(path.read_text())
    payload["architecture"]["time_features"]["freq_max"] = 500.0
    path.write_text(json.dumps(payload))
    assert main(["sample", "--checkpoint", str(path), "--n", "2", "--steps", "3",
                 "--out", str(tmp_path / "s")]) == 2
    assert "time features" in capsys.readouterr().err


TINY_SAMPLES = "# d=1 n=2 seed=0\n0.5\n-0.5\n"

NOT_A_FILE = {
    "config": ["sample", "--config", "{dir}", "--analytic", "two-gauss-1d",
               "--steps", "4", "--n", "2"],
    "checkpoint": ["sample", "--checkpoint", "{dir}", "--steps", "4", "--n", "2"],
    "samples": ["eval", "--samples", "{dir}", "--reference", "two-gauss-1d"],
    "reference": ["eval", "--samples", "{file}", "--reference", "{dir}"],
    "dataset": ["train", "--dataset", "{dir}", *TRAIN_FAST],
    "profile": ["sample", "--analytic", "two-gauss-1d", "--sampler", "em", "--w", "kl-eta:0.5",
                "--profile", "{dir}", "--steps", "4", "--n", "2"],
    "out": ["sample", "--analytic", "two-gauss-1d", "--steps", "4", "--n", "2",
            "--out", "{file}"],
}


@pytest.mark.parametrize("case", sorted(NOT_A_FILE))
def test_paths_that_are_not_files_exit_with_usage_code(tmp_path, capsys, case):
    # A directory where a file is read, or a file where the output directory goes.
    directory = tmp_path / "a-directory"
    directory.mkdir()
    samples = tmp_path / "samples.txt"
    samples.write_text(TINY_SAMPLES)
    argv = [arg.format(dir=directory, file=samples) for arg in NOT_A_FILE[case]]
    assert main(argv) == 2
    assert str(directory if case != "out" else samples) in capsys.readouterr().err


NEGATIVE_COUNTS = {
    "info-points": (["info", "--points", "-1"], None, "'points'"),
    "eval-permutations": (["eval", "--samples", "{file}", "--reference", "two-gauss-1d",
                           "--permutations", "-3"], None, "'permutations'"),
    "sweep-permutations": (["sweep", "--config", "{config}"],
                           {"permutations": -2, "samplers": ["heun"], "steps": [4], "n": 8},
                           "'permutations'"),
    "sample-seed": (["sample", "--analytic", "two-gauss-1d", "--steps", "4", "--n", "2",
                     "--seed", "-1"], None, "'seed'"),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_COUNTS))
def test_negative_counts_exit_with_usage_code(tmp_path, capsys, case):
    template, config, named = NEGATIVE_COUNTS[case]
    samples = tmp_path / "samples.txt"
    samples.write_text(TINY_SAMPLES)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    argv = [arg.format(file=samples, config=config_path) for arg in template]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / f"{argv[0]}-out").exists()


@pytest.fixture(scope="module")
def intact_artifacts(tmp_path_factory):
    """One small valid artifact per input kind, and the command that reads it."""
    root = tmp_path_factory.mktemp("artifacts")
    small = ["--n", "4", "--steps", "3"]  # flags, so no damage can enlarge the run
    config = root / "config.json"
    config.write_text(json.dumps({"analytic": "two-gauss-1d", "sampler": "em", "w": "sigma",
                                  "schedule": "gvp", "prediction": "score", "seed": 7, "label": 1,
                                  "zeta": 1.5}))
    samples = root / "samples.txt"
    write_samples(str(samples), np.linspace(-2.0, 2.0, 16)[:, None], seed=3, nfe=8)
    checkpoint = root / "checkpoint.json"
    save_checkpoint(MLPField(1, make_schedule("linear"), widths=(4,)), str(checkpoint))
    profile = root / "profile.txt"
    LossProfile(np.array([0.0, 0.5, 1.0]), np.array([0.25, 0.5])).save(str(profile))
    artifacts = {
        "config": (config, ["sample", "--config", "{path}", *small]),
        "samples": (samples, ["eval", "--samples", "{path}", "--reference", "two-gauss-1d"]),
        "checkpoint": (checkpoint, ["sample", "--checkpoint", "{path}", *small]),
        "profile": (profile, ["sample", "--analytic", "two-gauss-1d", "--sampler", "em",
                              "--w", "kl-eta:0.5", "--profile", "{path}", *small]),
    }
    for kind, (path, template) in artifacts.items():
        argv = [arg.format(path=path) for arg in template]
        assert main([*argv, "--out", str(root / f"{kind}-out")]) == 0
    return artifacts


@pytest.mark.parametrize("kind", ["config", "samples", "checkpoint", "profile"])
# Every example rewrites the same damaged file and output directory, so the
# function-scoped fixtures may be shared between examples.
@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_artifacts_exit_with_a_documented_code(tmp_path, capsys, intact_artifacts,
                                                       kind, data):
    source, template = intact_artifacts[kind]
    intact = source.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        damaged = intact[:data.draw(st.integers(0, len(intact) - 1), label="length")]
    else:
        damaged = bytearray(intact)
        # Half the new bytes come from the artifact itself, so more damaged
        # files still parse and reach the checks past the parser.
        new_byte = st.one_of(st.integers(0, 255), st.sampled_from(sorted(set(intact))))
        edits = st.tuples(st.integers(0, len(intact) - 1), new_byte)
        for position, byte in data.draw(st.lists(edits, min_size=1, max_size=2), label="edits"):
            damaged[position] = byte
    path = tmp_path / f"damaged-{source.name}"
    path.write_bytes(bytes(damaged))
    argv = [arg.format(path=path) for arg in template]
    assert main([*argv, "--out", str(tmp_path / "out")]) in (0, 2, 3)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _make_samples(tmp_path, name="s", n=64, seed=3):
    out = tmp_path / name
    assert main(["sample", "--analytic", "two-gauss-1d", "--out", str(out),
                 "--steps", "25", "--n", str(n), "--seed", str(seed)]) == 0
    return str(out / "samples.txt")


def test_eval_report_files_agree_with_stdout(tmp_path, capsys):
    samples = _make_samples(tmp_path)
    capsys.readouterr()  # drop the sample command's own output
    out = tmp_path / "e"
    assert main(["eval", "--samples", samples, "--reference", "two-gauss-1d",
                 "--out", str(out), "--seed", "1"]) == 0
    stdout = capsys.readouterr().out
    text = (out / "report.txt").read_text()
    assert stdout == text
    assert text.splitlines()[0].startswith("note ")
    payload = json.loads((out / "report.json").read_text())
    for line in text.splitlines()[1:]:
        name, _, value = line.partition(" ")
        if name in ("energy_distance",):
            assert payload[name] == float(value)
    assert payload["n_samples"] == 64
    assert payload["nfe"] == 50
    assert len(payload["occupancy"]) == 2
    out2 = tmp_path / "e2"
    assert main(["eval", "--samples", samples, "--reference", "two-gauss-1d",
                 "--out", str(out2), "--seed", "1"]) == 0
    capsys.readouterr()
    assert read_bytes(out / "report.txt") == read_bytes(out2 / "report.txt")
    assert read_bytes(out / "report.json") == read_bytes(out2 / "report.json")


def test_eval_with_permutation_test(tmp_path, capsys):
    samples = _make_samples(tmp_path, n=48)
    out = tmp_path / "e"
    assert main(["eval", "--samples", samples, "--reference", "two-gauss-1d",
                 "--out", str(out), "--permutations", "19",
                 "--metrics", "energy"]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert 0.0 < payload["energy_p_value"] <= 1.0
    capsys.readouterr()


def test_eval_against_a_samples_file_reference(tmp_path, capsys):
    a = _make_samples(tmp_path, name="a", seed=1)
    b = _make_samples(tmp_path, name="b", seed=2)
    out = tmp_path / "e"
    assert main(["eval", "--samples", a, "--reference", b, "--out", str(out),
                 "--metrics", "energy,ks"]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert "energy_distance" in payload
    capsys.readouterr()


def test_eval_error_paths(tmp_path, capsys):
    samples = _make_samples(tmp_path)
    assert main(["eval", "--reference", "two-gauss-1d"]) == 2
    assert main(["eval", "--samples", samples]) == 2
    # d=1 samples against the d=2 grid preset
    assert main(["eval", "--samples", samples, "--reference", "grid-9"]) == 2
    err = capsys.readouterr().err
    assert "dimension" in err
    # occupancy needs exact component means, so a file reference cannot serve
    other = _make_samples(tmp_path, name="o", seed=8)
    assert main(["eval", "--samples", samples, "--reference", other,
                 "--metrics", "occupancy"]) == 2
    assert main(["eval", "--samples", samples, "--reference", "two-gauss-1d",
                 "--metrics", "energy,nope"]) == 2
    assert "nope" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_runs_cells_resumes_and_records_errors(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "schedules": ["linear"],
        "samplers": ["heun", "em"],
        "coefficients": ["sigma", "kl-eta:0.5"],
        "steps": [8],
        "n": 64,
    }))
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "3 cells (0 reused)" in stdout
    cells = sorted(os.listdir(out / "cells"))
    assert cells == ["linear_em_kl-eta-0.5_n8.json", "linear_em_sigma_n8.json",
                     "linear_heun_-_n8.json"]
    summary = (out / "summary.txt").read_text().splitlines()
    assert len(summary) == 3
    assert summary == sorted(summary)
    by_cell = {}
    for name in cells:
        payload = json.loads((out / "cells" / name).read_text())
        by_cell[payload["cell"]] = payload
    # the cost-aware coefficient cannot be built without a loss profile
    assert by_cell["linear_em_kl-eta-0.5_n8"]["status"] == "error"
    assert "profile" in by_cell["linear_em_kl-eta-0.5_n8"]["error"]
    assert by_cell["linear_em_sigma_n8"]["status"] == "ok"
    assert by_cell["linear_em_sigma_n8"]["nfe"] == 9
    assert by_cell["linear_heun_-_n8"]["status"] == "ok"
    assert by_cell["linear_heun_-_n8"]["nfe"] == 16
    summary_before = read_bytes(out / "summary.txt")
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert "(3 reused)" in capsys.readouterr().out
    assert read_bytes(out / "summary.txt") == summary_before


def test_sweep_guided_cells_carry_the_guidance_tag(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "schedules": ["linear"],
        "samplers": ["heun"],
        "zetas": [2.0],
        "steps": [6],
        "n": 32,
        "dataset": "grid-9",
    }))
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    cells = os.listdir(out / "cells")
    assert cells == ["linear_heun_-_n6_z2.0.json"]
    payload = json.loads((out / "cells" / cells[0]).read_text())
    assert payload["status"] == "ok"
    assert payload["nfe"] == 24  # guidance doubles 2-per-step


def test_sweep_recomputes_cells_stored_under_another_config(tmp_path, capsys):
    base = {"schedules": ["linear"], "samplers": ["heun"], "steps": [6]}
    first = tmp_path / "first.json"
    first.write_text(json.dumps({**base, "dataset": "two-gauss-1d", "n": 32}))
    second = tmp_path / "second.json"
    second.write_text(json.dumps({**base, "dataset": "grid-9", "n": 64}))
    out = tmp_path / "sw"
    cell = out / "cells" / "linear_heun_-_n6.json"
    assert main(["sweep", "--config", str(first), "--out", str(out)]) == 0
    assert main(["sweep", "--config", str(second), "--out", str(out)]) == 0
    assert "1 cells (0 reused)" in capsys.readouterr().out.splitlines()[-1]
    payload = json.loads(cell.read_text())
    assert len(payload["occupancy"]) == 9  # grid-9, not the stale 1-D cell
    assert payload["config"]["dataset"] == "grid-9"
    assert payload["config"]["n"] == 64
    fresh = read_bytes(cell)
    cell.write_text("{not json")  # a damaged cell is computed again too
    assert main(["sweep", "--config", str(second), "--out", str(out)]) == 0
    assert "(0 reused)" in capsys.readouterr().out
    assert read_bytes(cell) == fresh


def test_sweep_betas_reach_only_the_vp_schedule(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "schedules": ["linear", "gvp", "sbdm-vp"],
        "samplers": ["heun"],
        "steps": [6],
        "n": 32,
        "beta_max": 12,
    }))
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    payloads = [json.loads((out / "cells" / name).read_text())
                for name in sorted(os.listdir(out / "cells"))]
    assert [p["cell"] for p in payloads] == [
        "gvp_heun_-_n6", "linear_heun_-_n6", "sbdm-vp_heun_-_n6"]
    assert [p["status"] for p in payloads] == ["ok", "ok", "ok"]
    assert all(p["config"]["beta_max"] == 12 for p in payloads)
    default_vp = tmp_path / "default-vp.json"
    default_vp.write_text(json.dumps({"schedules": ["sbdm-vp"], "samplers": ["heun"],
                                      "steps": [6], "n": 32}))
    assert main(["sweep", "--config", str(default_vp), "--out", str(tmp_path / "vp")]) == 0
    default_cell = json.loads(
        (tmp_path / "vp" / "cells" / "sbdm-vp_heun_-_n6.json").read_text())
    assert default_cell["energy_distance"] != payloads[2]["energy_distance"]


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------


def test_info_prints_schedule_table(capsys):
    assert main(["info", "--schedule", "linear", "--points", "3",
                 "--w", "const:2.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t alpha sigma alpha_dot sigma_dot lambda w_kl w"
    assert len(lines) == 4
    mid = lines[2].split()
    assert mid[0] == "0.5"
    assert float(mid[1]) == 0.5  # alpha(0.5)
    assert float(mid[-1]) == 2.5  # the requested coefficient column
    assert "singular" in lines[3]  # w_kl refuses t = 1 on the linear schedule


def test_info_takes_no_output_directory(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["info", "--out", str(tmp_path / "info")])
    assert excinfo.value.code == 2
    assert "--out" in capsys.readouterr().err
    config = tmp_path / "info.json"
    config.write_text(json.dumps({"out": str(tmp_path / "info")}))
    assert main(["info", "--config", str(config)]) == 2
    assert "out" in capsys.readouterr().err
    assert not (tmp_path / "info").exists()


def test_info_marks_singular_times(capsys):
    assert main(["info", "--schedule", "sbdm-vp", "--points", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "singular" in lines[1]  # sigma_dot diverges at t = 0
    assert "singular" not in lines[2]  # regular at t = 1
