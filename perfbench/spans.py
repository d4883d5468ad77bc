"""In-memory span tracer that wraps the program's public functions from outside.

Each wrapped call records one span (name, start, end, parent index). Counters
(frames, flop, bytes, ...) are recorded at the same boundaries. Per-layer
metrics are derived from the spans of one operation:

- `<name>.s`      inclusive time of the calls
- `<name>.self_s` inclusive time minus the time of wrapped child calls
- `<name>.calls`  number of calls

The program's source is not modified: `install` replaces module attributes and
`uninstall` restores them. A function that `experiments` imported by name is
replaced in both namespaces, so calls made through either are seen.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from collections import defaultdict

# (module, function) pairs wrapped under the span name "<module>.<function>".
WRAPPED = {
    "timeline": (
        "load_corpus_manifest",
        "load_feature_csv",
        "load_gaze_log_csv",
        "load_annotation_csv",
    ),
    "gaze_features": (
        "extract_gaze_features",
        "window_features",
        "approach_stats",
        "segment_fixations",
        "scan_path_stats",
        "coordinate_functionals",
        "psd_band_powers",
        "fixation_zone_spread",
        "eye_closure_stats",
    ),
    "fusion": (
        "fuse_features",
        "fit_norm_stats",
        "normalize_features",
        "shift_annotations",
    ),
    "network": (
        "bptt_gradients",
        "inject_noise",
        "evaluate_sse",
        "train_network",
        "predict",
        "gradient_check",
    ),
    "metrics": ("ccc",),
    "experiments": ("load_corpus_data", "run_task", "save_results_csv"),
    "synthetic": ("generate_synthetic_corpus",),
}

# Experiment drivers share one span name so their self time is one figure.
DRIVERS = ("run_shift_sweep", "run_intra_corpus")

LAYERS = tuple(WRAPPED)


def lstm_matmul_flop(spec, n_frames: int) -> int:
    """Multiply-add flop of one fwd+BPTT call, computed from shapes.

    Per direction with input width D and H units: the forward pass does the
    input and recurrent products, 2*N*4H*(D+H); BPTT does twice that (weight
    gradients and propagated deltas). The readout adds 3 * 2*N*W. Pointwise
    gate arithmetic is not counted.
    """
    total = 0
    for layer, (d, width) in zip(spec.layers, spec.layer_widths()):
        directions = 1 if layer.kind == "lstm" else 2
        h = width // directions
        total += directions * 3 * 2 * n_frames * 4 * h * (d + h)
    total += 3 * 2 * n_frames * spec.layers[-1].size
    return total


def _dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f))
        for root, _, files in os.walk(path)
        for f in files
    )


class Tracer:
    """Collects spans and counters for the wrapped functions of one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _span(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, namespace, attr: str, value) -> None:
        self._saved.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        from gazeaffect import (
            experiments,
            fusion,
            gaze_features,
            metrics,
            network,
            synthetic,
            timeline,
        )

        modules = {
            "timeline": timeline,
            "gaze_features": gaze_features,
            "fusion": fusion,
            "network": network,
            "metrics": metrics,
            "experiments": experiments,
            "synthetic": synthetic,
        }
        counters = _counters()
        for layer, names in WRAPPED.items():
            module = modules[layer]
            for fname in names:
                name = f"{layer}.{fname}"
                wrapper = self._span(name, getattr(module, fname), counters.get(name))
                self._patch(module, fname, wrapper)
                if module is not experiments and hasattr(experiments, fname):
                    self._patch(experiments, fname, wrapper)
        # Scoring calls `predict` through the experiments namespace; give them
        # their own span around the (already wrapped) network.predict.
        self._patch(
            experiments, "predict", self._span("experiments.predict", network.predict)
        )
        for fname in DRIVERS:
            self._patch(
                experiments, fname, self._span("experiments.driver", getattr(experiments, fname))
            )
        # ccc() reports no degeneracy flag; count it where ccc_flagged returns it.
        flagged = metrics.ccc_flagged

        @functools.wraps(flagged)
        def ccc_flagged(x, y):
            value, degenerate = flagged(x, y)
            self.counts["metrics.ccc.degenerate"] += int(degenerate)
            return value, degenerate

        self._patch(metrics, "ccc_flagged", ccc_flagged)

    def uninstall(self) -> None:
        while self._saved:
            namespace, attr, value = self._saved.pop()
            setattr(namespace, attr, value)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since reset."""
        inclusive: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            duration = end - start
            inclusive[name] += duration
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += duration
        out: dict[str, float] = {}
        per_layer: dict[str, float] = defaultdict(float)
        for name in inclusive:
            self_s = inclusive[name] - child[name]
            out[f"{name}.s"] = inclusive[name]
            out[f"{name}.self_s"] = self_s
            out[f"{name}.calls"] = calls[name]
            per_layer[name.split(".", 1)[0]] += self_s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = per_layer.get(layer, 0.0)
        out["trace.self_sum_s"] = sum(per_layer.values())
        out.update(self.counts)
        bptt_s = out.get("network.bptt_gradients.s")
        if bptt_s:
            out["network.bptt_gradients.gflop_per_s"] = (
                out["network.bptt_gradients.flop"] / bptt_s / 1e9
            )
        return out


def _counters():
    """Counter callbacks keyed by span name: (counts, args, kwargs, result)."""

    def bytes_read(counts, args, kwargs, result):
        counts["timeline.bytes_read"] += os.path.getsize(args[0])

    def gaze_frames(counts, args, kwargs, result):
        counts["gaze_features.extract_gaze_features.frames"] += len(args[0])

    def bptt(counts, args, kwargs, result):
        spec, x = args[1], args[2]
        counts["network.bptt_gradients.frames"] += len(x)
        counts["network.bptt_gradients.flop"] += lstm_matmul_flop(spec, len(x))

    def epochs(counts, args, kwargs, result):
        counts["network.train_network.epochs"] += len(result.history)

    def pickled(counts, args, kwargs, result):
        counts["experiments.run_task.pickled_bytes"] += len(pickle.dumps(args[0]))

    def written(counts, args, kwargs, result):
        counts["synthetic.bytes_written"] += _dir_bytes(result.parent)

    return {
        "timeline.load_corpus_manifest": bytes_read,
        "timeline.load_feature_csv": bytes_read,
        "timeline.load_gaze_log_csv": bytes_read,
        "timeline.load_annotation_csv": bytes_read,
        "gaze_features.extract_gaze_features": gaze_frames,
        "network.bptt_gradients": bptt,
        "network.train_network": epochs,
        "experiments.run_task": pickled,
        "synthetic.generate_synthetic_corpus": written,
    }


# Per-layer metrics reported by a traced run, with their units. Times are the
# median over traced operations; counts are per operation and must repeat
# exactly from one operation to the next.
PER_LAYER = {
    "timeline.self_s": "s",
    "timeline.load_corpus_manifest.self_s": "s",
    "timeline.load_feature_csv.self_s": "s",
    "timeline.load_feature_csv.calls": "count",
    "timeline.load_gaze_log_csv.self_s": "s",
    "timeline.load_annotation_csv.self_s": "s",
    "timeline.bytes_read": "B",
    "gaze_features.self_s": "s",
    "gaze_features.extract_gaze_features.self_s": "s",
    "gaze_features.extract_gaze_features.calls": "count",
    "gaze_features.extract_gaze_features.frames": "frames",
    "gaze_features.window_features.self_s": "s",
    "gaze_features.window_features.calls": "count",
    "gaze_features.approach_stats.self_s": "s",
    "gaze_features.segment_fixations.self_s": "s",
    "gaze_features.scan_path_stats.self_s": "s",
    "gaze_features.coordinate_functionals.self_s": "s",
    "gaze_features.psd_band_powers.self_s": "s",
    "gaze_features.fixation_zone_spread.self_s": "s",
    "gaze_features.eye_closure_stats.self_s": "s",
    "fusion.self_s": "s",
    "fusion.fuse_features.self_s": "s",
    "fusion.fit_norm_stats.self_s": "s",
    "fusion.normalize_features.self_s": "s",
    "fusion.shift_annotations.self_s": "s",
    "fusion.shift_annotations.calls": "count",
    "network.self_s": "s",
    "network.bptt_gradients.self_s": "s",
    "network.bptt_gradients.calls": "count",
    "network.bptt_gradients.frames": "frames",
    "network.bptt_gradients.flop": "flop",
    "network.bptt_gradients.gflop_per_s": "GFLOP/s",
    "network.inject_noise.self_s": "s",
    "network.evaluate_sse.s": "s",
    "network.train_network.self_s": "s",
    "network.train_network.epochs": "count",
    "network.predict.s": "s",
    "network.predict.calls": "count",
    "network.gradient_check.s": "s",
    "network.gradient_check.self_s": "s",
    "metrics.self_s": "s",
    "metrics.ccc.s": "s",
    "metrics.ccc.calls": "count",
    "metrics.ccc.degenerate": "count",
    "experiments.self_s": "s",
    "experiments.load_corpus_data.self_s": "s",
    "experiments.run_task.s": "s",
    "experiments.run_task.self_s": "s",
    "experiments.run_task.calls": "count",
    "experiments.run_task.pickled_bytes": "B",
    "experiments.predict.s": "s",
    "experiments.driver.self_s": "s",
    "experiments.save_results_csv.s": "s",
    "synthetic.generate_synthetic_corpus.s": "s",
    "synthetic.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
}
