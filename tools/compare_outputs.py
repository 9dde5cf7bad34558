"""Run a fixed list of driftlab CLI commands in two checkouts and list every
output file whose bytes differ.

Usage, from the root of a checkout::

    git archive --format=tar <parent> | (mkdir -p ../parent && tar -x -C ../parent)
    python3 tools/compare_outputs.py ../parent . [--work DIR]

Each checkout runs the same commands with its own ``src`` first on
``PYTHONPATH``, in its own empty work directory, with relative paths only,
so the outputs of equal code are equal byte for byte.  The commands train a
small velocity model, a second one at a set learning rate, a
class-conditional one, a score model on gvp and weighted-score models on
sbdm-vp and linear, a velocity model at the benchmark's shape (default
widths, batch 256), a class-conditional one at batch 300 (two
weight-gradient blocks) and one whose profile evaluates 600 draws per bin
(two evaluation blocks and a remainder), sample the first (with ``kl``
among others), the batch-300 one, the 600-draw one at n = 600, the
class-conditional one (guided with heun and with em, and with a label at
n = 600), the score models in their default windows and the exact field
with both samplers and several diffusion coefficients (``kl-eta`` with the trained
profile among them), run em at ``w = 0`` on the first model and on the
exact field, on the exact velocity field (a score conversion) and guided on
the exact score field at zeta 4, 0 and 1 and on the exact velocity field at
zeta 4 and 0, sample the exact grid-9 field with the null-token label and
its velocity with a class label, override the sampler's time window and
sbdm-vp's beta rates, evaluate against a preset and against a samples file,
run the 1-D permutation test on 600 exact-field samples over several blocks
of splits and the 2-D one on the grid-9 samples over several row blocks,
score 700 exact grid-9 samples against 700 draws (an energy distance over
several blocks of pairwise distances),
train on an unlabelled sample output and, class-conditional, on a labelled
samples file the tool writes, tabulate ``info``, run a sweep with a
``kl-eta`` cell twice into one directory, so that the second run reuses its
cells, and run a grid-9 sweep whose permutation tests take the 2-D split
path.
Each command's exit code, standard output and standard error are kept as
files beside its outputs and compared with them.

Exits 0 when every file is byte-identical, 1 otherwise.  Uses the standard
library only; the package is run, not imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

PROFILE = "train/profile.txt"
TRAIN_SMALL = ["--dataset", "two-gauss-1d", "--steps", "60", "--batch", "32",
               "--profile-bins", "4", "--profile-draws", "50"]
#: (output name, objective, schedule) of the score models sampled in their
#: default windows.
SCORE_MODELS = [("score-gvp", "score", "gvp"), ("weighted-vp", "weighted-score", "sbdm-vp"),
                ("weighted-linear", "weighted-score", "linear")]
#: The shape of the models trained on samples files.
TRAIN_FILE = ["--steps", "60", "--batch", "32", "--profile-bins", "4", "--profile-draws", "50"]
CHECKPOINT = "train/checkpoint.json"
CONDITIONAL = "train-conditional/checkpoint.json"
SAMPLE_FAST = ["--steps", "40", "--n", "256", "--seed", "5"]
#: Two 256-row evaluation blocks and a remainder of 88 rows per model call.
SAMPLE_ROWS_600 = ["--steps", "20", "--n", "600", "--seed", "7"]

#: (name, argv): run in order; later commands read earlier outputs.
COMMANDS = [
    ("train", ["train", "--dataset", "two-gauss-1d", "--steps", "300", "--batch", "64",
               "--profile-bins", "8", "--profile-draws", "200", "--seed", "3",
               "--out", "train"]),
    ("train-lr", ["train", "--dataset", "two-gauss-1d", "--lr", "3e-3", "--steps", "100",
                  "--batch", "32", "--profile-bins", "4", "--profile-draws", "50",
                  "--seed", "6", "--out", "train-lr"]),
    ("train-conditional", ["train", "--dataset", "grid-9", "--conditional",
                           "--label-dropout", "0.3", "--steps", "200", "--batch", "128",
                           "--profile-bins", "4", "--profile-draws", "100", "--seed", "4",
                           "--out", "train-conditional"]),
    ("train-bench", ["train", "--dataset", "two-gauss-1d", "--objective", "velocity",
                     "--steps", "100", "--batch", "256", "--profile-bins", "8",
                     "--profile-draws", "200", "--seed", "12", "--out", "train-bench"]),
    ("train-conditional-300", ["train", "--dataset", "grid-9", "--conditional",
                               "--steps", "60", "--batch", "300", "--profile-bins", "4",
                               "--profile-draws", "100", "--seed", "13",
                               "--out", "train-conditional-300"]),
    ("sample-conditional-300-heun", ["sample", "--checkpoint",
                                     "train-conditional-300/checkpoint.json", "--label", "2",
                                     *SAMPLE_FAST, "--out", "sample-conditional-300-heun"]),
    ("train-draws-600", ["train", "--dataset", "two-gauss-1d", "--steps", "40",
                         "--batch", "64", "--profile-bins", "2", "--profile-draws", "600",
                         "--seed", "14", "--out", "train-draws-600"]),
    ("sample-draws-600-heun", ["sample", "--checkpoint", "train-draws-600/checkpoint.json",
                               *SAMPLE_ROWS_600, "--out", "sample-draws-600-heun"]),
    ("sample-conditional-600-heun", ["sample", "--checkpoint", CONDITIONAL, "--label", "3",
                                     *SAMPLE_ROWS_600, "--out", "sample-conditional-600-heun"]),
    *((f"train-{name}", ["train", *TRAIN_SMALL, "--objective", objective, "--schedule",
                         schedule, "--seed", "8", "--out", f"train-{name}"])
      for name, objective, schedule in SCORE_MODELS),
    *((f"sample-{name}-{sampler}", ["sample", "--checkpoint", f"train-{name}/checkpoint.json",
                                    "--sampler", sampler, *SAMPLE_FAST,
                                    "--out", f"sample-{name}-{sampler}"])
      for name, _, _ in SCORE_MODELS for sampler in ("heun", "em")),
    ("sample-model-em-kl", ["sample", "--checkpoint", CHECKPOINT, "--sampler", "em",
                            "--w", "kl", *SAMPLE_FAST, "--out", "sample-model-em-kl"]),
    ("sample-model-em-kl-eta", ["sample", "--checkpoint", CHECKPOINT, "--sampler", "em",
                                "--w", "kl-eta:0.5", "--profile", PROFILE,
                                *SAMPLE_FAST, "--out", "sample-model-em-kl-eta"]),
    ("sample-exact-em-kl-eta-0", ["sample", "--analytic", "two-gauss-1d", "--sampler", "em",
                                  "--w", "kl-eta:0", "--profile", PROFILE,
                                  *SAMPLE_FAST, "--out", "sample-exact-em-kl-eta-0"]),
    ("sample-model-heun", ["sample", "--checkpoint", CHECKPOINT, *SAMPLE_FAST,
                           "--out", "sample-model-heun"]),
    ("sample-exact-em-kl-eta", ["sample", "--analytic", "two-gauss-1d", "--sampler", "em",
                                "--w", "kl-eta:2", "--profile", PROFILE,
                                *SAMPLE_FAST, "--out", "sample-exact-em-kl-eta"]),
    ("sample-exact-em-kl", ["sample", "--analytic", "two-gauss-1d", "--sampler", "em",
                            "--w", "kl", *SAMPLE_FAST, "--out", "sample-exact-em-kl"]),
    ("sample-exact-em-const", ["sample", "--analytic", "two-gauss-1d", "--sampler", "em",
                               "--w", "const:0.5", *SAMPLE_FAST,
                               "--out", "sample-exact-em-const"]),
    ("sample-vp-em-kl-eta", ["sample", "--analytic", "two-gauss-1d", "--schedule", "sbdm-vp",
                             "--sampler", "em", "--w", "kl-eta:0.5", "--profile", PROFILE,
                             *SAMPLE_FAST, "--out", "sample-vp-em-kl-eta"]),
    ("sample-vp-betas-em", ["sample", "--analytic", "two-gauss-1d", "--schedule", "sbdm-vp",
                            "--beta-min", "0.5", "--beta-max", "12", "--sampler", "em",
                            "--w", "sigma", *SAMPLE_FAST, "--out", "sample-vp-betas-em"]),
    ("sample-window-em", ["sample", "--analytic", "two-gauss-1d", "--sampler", "em",
                          "--w", "const:0.5", "--t-start", "0.95", "--t-end", "0.05",
                          "--last-step-to", "0.01", *SAMPLE_FAST,
                          "--out", "sample-window-em"]),
    ("sample-window-heun", ["sample", "--checkpoint", CHECKPOINT, "--t-start", "0.9",
                            "--t-end", "0", *SAMPLE_FAST, "--out", "sample-window-heun"]),
    ("sample-guided-heun", ["sample", "--checkpoint", CONDITIONAL, "--zeta", "2",
                            "--label", "1", *SAMPLE_FAST, "--out", "sample-guided-heun"]),
    ("sample-guided-em", ["sample", "--checkpoint", CONDITIONAL, "--sampler", "em",
                          "--w", "sigma", "--zeta", "2", "--label", "1", *SAMPLE_FAST,
                          "--out", "sample-guided-em"]),
    ("sample-model-em-zero", ["sample", "--checkpoint", CHECKPOINT, "--sampler", "em",
                              "--w", "zero", *SAMPLE_FAST, "--out", "sample-model-em-zero"]),
    ("sample-exact-em-zero", ["sample", "--analytic", "two-gauss-1d", "--sampler", "em",
                              "--w", "zero", *SAMPLE_FAST, "--out", "sample-exact-em-zero"]),
    ("sample-exact-null-label", ["sample", "--analytic", "grid-9", "--label", "9",
                                 *SAMPLE_FAST, "--out", "sample-exact-null-label"]),
    ("sample-exact-velocity-label", ["sample", "--analytic", "grid-9", "--prediction",
                                     "velocity", "--label", "3", *SAMPLE_FAST,
                                     "--out", "sample-exact-velocity-label"]),
    ("sample-exact-velocity-em", ["sample", "--analytic", "grid-9", "--prediction", "velocity",
                                  "--sampler", "em", "--w", "sigma", *SAMPLE_FAST,
                                  "--out", "sample-exact-velocity-em"]),
    *((f"sample-exact-guided-em-z{zeta}", ["sample", "--analytic", "grid-9", "--prediction",
                                          "score", "--sampler", "em", "--w", "sigma",
                                          "--zeta", zeta, "--label", "0", *SAMPLE_FAST,
                                          "--out", f"sample-exact-guided-em-z{zeta}"])
      for zeta in ("4", "0", "1")),
    *((f"sample-exact-guided-velocity-em-z{zeta}", ["sample", "--analytic", "grid-9",
                                                   "--prediction", "velocity", "--sampler",
                                                   "em", "--w", "sigma", "--zeta", zeta,
                                                   "--label", "0", *SAMPLE_FAST, "--out",
                                                   f"sample-exact-guided-velocity-em-z{zeta}"])
      for zeta in ("4", "0")),
    ("eval", ["eval", "--samples", "sample-model-em-kl-eta/samples.txt",
              "--reference", "two-gauss-1d", "--permutations", "20", "--out", "eval"]),
    ("eval-file", ["eval", "--samples", "sample-model-heun/samples.txt",
                   "--reference", "sample-exact-em-kl/samples.txt", "--metrics", "energy,ks",
                   "--permutations", "20", "--out", "eval-file"]),
    ("sample-exact-600-heun", ["sample", "--analytic", "two-gauss-1d", *SAMPLE_ROWS_600,
                               "--out", "sample-exact-600-heun"]),
    # 1,200 pooled values: several blocks of 1-D splits and a remainder.
    ("eval-600", ["eval", "--samples", "sample-exact-600-heun/samples.txt",
                  "--reference", "two-gauss-1d", "--metrics", "energy",
                  "--permutations", "70", "--out", "eval-600"]),
    # 512 pooled points: 2-D splits scored over many row blocks.
    ("eval-grid9", ["eval", "--samples", "sample-exact-null-label/samples.txt",
                    "--reference", "grid-9", "--permutations", "30", "--out", "eval-grid9"]),
    ("sample-grid9-700-heun", ["sample", "--analytic", "grid-9", "--steps", "20",
                               "--n", "700", "--seed", "8", "--out", "sample-grid9-700-heun"]),
    # 700 x 700 a-b distances: the energy distance sums several distance blocks.
    ("eval-grid9-700", ["eval", "--samples", "sample-grid9-700-heun/samples.txt",
                        "--reference", "grid-9", "--permutations", "10",
                        "--out", "eval-grid9-700"]),
    ("train-file", ["train", "--dataset", "sample-model-heun/samples.txt", *TRAIN_FILE,
                    "--seed", "9", "--out", "train-file"]),
    ("train-labelled", ["train", "--dataset", "labelled.txt", "--conditional", *TRAIN_FILE,
                        "--seed", "10", "--out", "train-labelled"]),
    ("info-kl", ["info", "--w", "kl", "--points", "11"]),
    ("info-gvp-kl", ["info", "--schedule", "gvp", "--w", "kl", "--points", "11"]),
    ("info-const", ["info", "--w", "const:0.5", "--points", "5"]),
    ("info-vp-betas", ["info", "--schedule", "sbdm-vp", "--beta-min", "0.5",
                       "--beta-max", "12", "--w", "sigma", "--t-start", "0.1",
                       "--points", "7"]),
    ("sweep", ["sweep", "--config", "sweep.json", "--out", "sweep"]),
    ("sweep-again", ["sweep", "--config", "sweep.json", "--out", "sweep"]),
    ("sweep-grid9", ["sweep", "--config", "sweep-grid9.json", "--out", "sweep-grid9"]),
]

#: Config files written into each work directory, by name.
SWEEP_CONFIGS = {
    "sweep.json": {
        "dataset": "two-gauss-1d",
        "schedules": ["linear", "gvp", "sbdm-vp"],
        "samplers": ["heun", "em"],
        "coefficients": ["sigma", "kl", "const:0.5", "kl-eta:0.5"],
        "steps": [20],
        "n": 128,
        "permutations": 20,
        "seed": 11,
    },
    "sweep-grid9.json": {
        "dataset": "grid-9",
        "samplers": ["heun", "em"],
        "steps": [20],
        "n": 96,
        "permutations": 30,
        "seed": 17,
    },
}


#: A labelled samples file, written into each work directory as it stands:
#: three classes, with a tab, a blank line and padded rows for the reader.
LABELLED_SAMPLES = ("# d=2 n=8 seed=5 labels=1\n"
                    "-1.5 0.25 0\n-1.25 0.5 0\n0.75\t-1.0 1\n\n"
                    "  1.0 -0.75 1  \n1.25 -1.5 1\n3.0 2.5 2\n2.75 2.0 2\n3.5 3.0 2\n")


def run_commands(checkout: str, workdir: str) -> None:
    """Run every command with ``checkout``'s package, outputs under ``workdir``."""
    os.makedirs(workdir)
    for file_name, config in SWEEP_CONFIGS.items():
        with open(os.path.join(workdir, file_name), "w") as handle:
            json.dump(config, handle, sort_keys=True)
    with open(os.path.join(workdir, "labelled.txt"), "w") as handle:
        handle.write(LABELLED_SAMPLES)
    env = dict(os.environ)
    env.pop("DRIFTLAB_OUTPUT_ROOT", None)
    src = os.path.join(os.path.abspath(checkout), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    logs = os.path.join(workdir, "logs")
    os.makedirs(logs)
    for name, argv in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "driftlab.cli", *argv], cwd=workdir,
                              env=env, capture_output=True)
        for suffix, content in (("exit", b"%d\n" % done.returncode),
                                ("stdout", done.stdout), ("stderr", done.stderr)):
            with open(os.path.join(logs, f"{name}.{suffix}"), "wb") as handle:
                handle.write(content)


def tree_files(root: str) -> set[str]:
    """Every file under ``root``, as a path relative to it."""
    return {os.path.relpath(os.path.join(folder, name), root)
            for folder, _, names in os.walk(root) for name in names}


def differing_files(left: str, right: str) -> list[str]:
    """Relative paths present in one tree only or with different bytes."""
    differ = []
    for path in sorted(tree_files(left) | tree_files(right)):
        a, b = os.path.join(left, path), os.path.join(right, path)
        if not (os.path.isfile(a) and os.path.isfile(b)):
            differ.append(f"{path} (only in {'the first' if os.path.isfile(a) else 'the second'})")
            continue
        with open(a, "rb") as ha, open(b, "rb") as hb:
            if ha.read() != hb.read():
                differ.append(path)
    return differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", help="checkout to compare from (e.g. the parent)")
    parser.add_argument("second", help="checkout to compare with (e.g. the change)")
    parser.add_argument("--work", help="directory that keeps both runs' outputs "
                        "(default: a temporary directory, removed at the end)")
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="driftlab-compare-")
    runs = [os.path.join(work, "first"), os.path.join(work, "second")]
    try:
        for checkout, workdir in zip((args.first, args.second), runs):
            run_commands(checkout, workdir)
        differ = differing_files(*runs)
        count = len(tree_files(runs[0]) | tree_files(runs[1]))
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    for path in differ:
        print(f"differs: {path}")
    print(f"{count - len(differ)} of {count} files byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
