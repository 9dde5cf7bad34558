"""Span recorder for the traced benchmark run.

:func:`install` wraps the public functions and methods of every driftlab
layer module (``schedule``, ``field``, ``sampler``, ``learner``, ``toybox``,
``metrics``, ``cli``) from outside the package.  A wrapper records one span
(name, layer, start, end, parent span, command id) per call and may bump
counters from the call's arguments and result.  Each wrapper replaces the
function wherever it is looked up: module attributes in every driftlab module
(``cli`` and ``sampler`` import functions by name), dict values such as
``learner._LOSS_FOR``, and class attributes for methods.  Spans stay in
memory until the cycle ends.

A span's self time is its duration minus the durations of its direct child
spans; calls are strictly nested in this single-threaded program, so the
children never overlap.
"""

from __future__ import annotations

import collections
import enum
import functools
import importlib
import inspect
import os
import time

LAYERS = ("schedule", "field", "sampler", "learner", "toybox", "metrics", "cli")

#: Schedule accessors counted by ``schedule.calls``.
SCHEDULE_ACCESSORS = {"alpha", "sigma", "alpha_dot", "sigma_dot", "lambda_weight",
                      "w_kl", "conversion_denominator", "__call__"}

#: Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = [
    ("schedule.calls", "count", "lower"),
    ("schedule.self_s", "s", "lower"),
    ("schedule.calls_per_eval", "calls/eval", "lower"),
    ("field.evals", "count", "lower"),
    ("field.rows", "count", "lower"),
    ("field.self_s", "s", "lower"),
    ("field.us_per_krow", "us/krow", "lower"),
    ("field.mixture_builds", "count", "lower"),
    ("field.guided_calls", "count", "lower"),
    ("field.convert_calls", "count", "lower"),
    ("field.convert_s", "s", "lower"),
    ("sampler.runs", "count", "lower"),
    ("sampler.nfe", "count", "lower"),
    ("sampler.self_s", "s", "lower"),
    ("learner.forward_calls", "count", "lower"),
    ("learner.forward_rows", "count", "lower"),
    ("learner.forward_s", "s", "lower"),
    ("learner.backward_calls", "count", "lower"),
    ("learner.backward_s", "s", "lower"),
    ("learner.train_self_s", "s", "lower"),
    ("learner.profile_s", "s", "lower"),
    ("learner.checkpoint_s", "s", "lower"),
    ("learner.checkpoint_bytes", "bytes", "lower"),
    ("learner.self_s", "s", "lower"),
    ("toybox.resample_s", "s", "lower"),
    ("toybox.draw_s", "s", "lower"),
    ("toybox.write_s", "s", "lower"),
    ("toybox.bytes_written", "bytes", "lower"),
    ("toybox.read_s", "s", "lower"),
    ("toybox.bytes_read", "bytes", "lower"),
    ("toybox.self_s", "s", "lower"),
    ("metrics.energy_calls", "count", "lower"),
    ("metrics.energy_s", "s", "lower"),
    ("metrics.perm_tests", "count", "lower"),
    ("metrics.perm_stats", "count", "lower"),
    ("metrics.permtest_self_s", "s", "lower"),
    ("metrics.pair_distances", "count", "lower"),
    ("metrics.ks_s", "s", "lower"),
    ("metrics.occupancy_s", "s", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("cli.train_s", "s", "lower"),
    ("cli.sample_s", "s", "lower"),
    ("cli.eval_s", "s", "lower"),
    ("cli.sweep_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _observe_field_eval(counters, args, kwargs, result) -> None:
    counters["field.rows"] += _rows(_arg(args, kwargs, 1, "x"))


def _observe_forward(counters, args, kwargs, result) -> None:
    counters["learner.forward_rows"] += _rows(_arg(args, kwargs, 1, "x"))


def _observe_sampler(counters, args, kwargs, result) -> None:
    counters["sampler.nfe"] += int(result.nfe) * int(result.samples.shape[0])


def _observe_permutation_test(counters, args, kwargs, result) -> None:
    permutations = args[2] if len(args) > 2 else kwargs.get("n_permutations", 200)
    counters["metrics.perm_stats"] += int(permutations) + 1


def _observe_energy(counters, args, kwargs, result) -> None:
    a, b = args[0], args[1]
    if getattr(a, "ndim", 1) == 2 and a.shape[1] > 1:
        n, m = a.shape[0], b.shape[0]
        counters["metrics.pair_distances"] += n * m + n * n + m * m


def _file_size(key: str, index: int, name: str):
    def observe(counters, args, kwargs, result) -> None:
        counters[key] += os.path.getsize(_arg(args, kwargs, index, name))
    return observe


#: Counters computed from a call, keyed by (layer, qualified name).
OBSERVERS = {
    ("field", "AnalyticMixtureField.evaluate"): _observe_field_eval,
    ("learner", "MLPField.evaluate"): _observe_forward,
    ("learner", "MLPField.forward_with_cache"): _observe_forward,
    ("sampler", "heun_sample"): _observe_sampler,
    ("sampler", "euler_maruyama_sample"): _observe_sampler,
    ("metrics", "energy_distance_permutation_test"): _observe_permutation_test,
    ("metrics", "energy_distance"): _observe_energy,
    ("learner", "save_checkpoint"): _file_size("learner.checkpoint_bytes", 1, "path"),
    ("toybox", "write_samples"): _file_size("toybox.bytes_written", 0, "path"),
    ("toybox", "read_samples"): _file_size("toybox.bytes_read", 0, "path"),
}


class Tracer:
    """In-memory spans and counters for one cycle of a workload."""

    def __init__(self) -> None:
        #: [name, layer, start, end, parent index, command id] per call.
        self.spans: list[list] = []
        self.counters: collections.Counter = collections.Counter()
        #: Id of the CLI command running now; set by the caller.
        self.command = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, layer: str, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.command]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def _set(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, vars(target)[key]))
            setattr(target, key, value)

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        modules = {layer: importlib.import_module(f"driftlab.{layer}") for layer in LAYERS}
        # id(original) -> (original, wrapper); holding the original keeps its id unique.
        replaced = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == module.__name__ \
                        and attr in getattr(module, "__all__", ()):
                    replaced[id(value)] = (value, self.wrap(value, layer, attr))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(value, layer)
        package = [importlib.import_module("driftlab")] + list(modules.values())
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    self._set(module, attr, replaced[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replaced:
                            self._set(value, key, replaced[id(item)][1])

    def _wrap_class(self, cls, layer: str) -> None:
        if issubclass(cls, (enum.Enum, BaseException)):
            return
        for attr, value in list(vars(cls).items()):
            public = not attr.startswith("_") or attr == "__call__" or (
                attr == "__init__" and cls.__name__ == "GaussianMixture")
            if not public:
                continue
            name = f"{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                self._set(cls, attr, self.wrap(value, layer, name))
            elif isinstance(value, classmethod):
                self._set(cls, attr, classmethod(self.wrap(value.__func__, layer, name)))

    def restore(self) -> None:
        """Undo :meth:`install`, newest patch first."""
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def span_table(self) -> list[dict]:
        """Spans with their self times, for writing out."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, command in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [{"name": name, "layer": layer, "start": start, "end": end,
                 "parent": parent, "command": command,
                 "self": (end - start) - child[i]}
                for i, (name, layer, start, end, parent, command) in enumerate(self.spans)]

    def layer_metrics(self, command_names: list[str]) -> dict[str, float]:
        """Per-layer metrics (all of ``PER_LAYER`` except the overhead)."""
        table = self.span_table()
        count = collections.Counter()
        inclusive = collections.Counter()
        own = collections.Counter()
        layer_self = collections.Counter()
        for span in table:
            key = (span["layer"], span["name"])
            count[key] += 1
            inclusive[key] += span["end"] - span["start"]
            own[key] += span["self"]
            layer_self[span["layer"]] += span["self"]

        def total(counter, layer, *names):
            return sum(counter[(layer, name)] for name in names)

        out = {name: 0.0 for name, _, _ in PER_LAYER}
        out.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
        out.update(self.counters)
        out["schedule.calls"] = sum(n for (layer, name), n in count.items()
                                    if layer == "schedule"
                                    and name.rsplit(".", 1)[-1] in SCHEDULE_ACCESSORS)
        out["field.evals"] = count[("field", "AnalyticMixtureField.evaluate")]
        out["learner.forward_calls"] = total(count, "learner", "MLPField.evaluate",
                                             "MLPField.forward_with_cache")
        evals = out["field.evals"] + out["learner.forward_calls"]
        out["schedule.calls_per_eval"] = out["schedule.calls"] / evals if evals else 0.0
        rows = out["field.rows"]
        out["field.us_per_krow"] = out["field.self_s"] * 1e6 / (rows / 1e3) if rows else 0.0
        out["field.mixture_builds"] = count[("field", "GaussianMixture.__init__")]
        out["field.guided_calls"] = count[("field", "guided_field")]
        conversions = ("velocity_from_score", "score_from_velocity")
        out["field.convert_calls"] = total(count, "field", *conversions)
        out["field.convert_s"] = total(inclusive, "field", *conversions)
        out["sampler.runs"] = total(count, "sampler", "heun_sample", "euler_maruyama_sample")
        out["learner.forward_s"] = total(inclusive, "learner", "MLPField.evaluate",
                                         "MLPField.forward_with_cache")
        out["learner.backward_calls"] = count[("learner", "MLPField.backward")]
        out["learner.backward_s"] = inclusive[("learner", "MLPField.backward")]
        out["learner.train_self_s"] = total(own, "learner", "train", "loss_velocity",
                                            "loss_score", "loss_score_weighted")
        out["learner.profile_s"] = inclusive[("learner", "estimate_loss_profile")]
        out["learner.checkpoint_s"] = total(inclusive, "learner", "save_checkpoint",
                                            "load_checkpoint")
        out["toybox.resample_s"] = inclusive[("toybox", "ToyDataset.resample")]
        out["toybox.draw_s"] = inclusive[("toybox", "draw")]
        out["toybox.write_s"] = inclusive[("toybox", "write_samples")]
        out["toybox.read_s"] = inclusive[("toybox", "read_samples")]
        out["metrics.energy_calls"] = count[("metrics", "energy_distance")]
        out["metrics.energy_s"] = inclusive[("metrics", "energy_distance")]
        out["metrics.perm_tests"] = count[("metrics", "energy_distance_permutation_test")]
        out["metrics.permtest_self_s"] = own[("metrics", "energy_distance_permutation_test")]
        out["metrics.ks_s"] = inclusive[("metrics", "ks_per_axis")]
        out["metrics.occupancy_s"] = inclusive[("metrics", "mode_occupancy")]
        for span in table:
            if span["layer"] == "cli" and span["name"] == "main" and span["parent"] < 0:
                key = f"cli.{command_names[span['command']]}_s"
                out[key] = out.get(key, 0.0) + span["end"] - span["start"]
        return {name: float(out[name]) for name, _, _ in PER_LAYER
                if name != "trace.overhead_frac"}
