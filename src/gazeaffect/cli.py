"""Command-line interface.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 training
divergence in a non-sweep run.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .errors import ConfigError, DataError, DivergenceError
from .experiments import (
    ExperimentConfig,
    load_results_csv,
    render_report,
    run_cross_corpus,
    run_intra_corpus,
    run_shift_sweep,
    save_results_csv,
)
from .fusion import fuse_features, shift_annotations
from .gaze_features import WindowSpec, extract_gaze_features
from .metrics import ccc, pearson, sse
from .network import save_model
from .synthetic import SyntheticCorpusSpec, generate_synthetic_corpus
from .timeline import (
    DIMENSIONS,
    FeatureMatrix,
    FrameRate,
    frames_for_duration,
    load_annotation_csv,
    load_annotation_values,
    load_feature_csv,
    load_gaze_log_csv,
    open_output,
    output_error,
    parse_gaze_columns_flag,
    save_feature_csv,
)

# Each control character as its Python escape (a newline as \n), so that an
# error message holding one, say in a path, still prints on one line.
_ESCAPES = {c: repr(chr(c))[1:-1] for c in (*range(32), *range(127, 160))}


@contextmanager
def _flag_values():
    """Values built from command-line flags: one that is rejected is a usage
    fault (exit 1), not a data error."""
    try:
        yield
    except DataError as exc:
        raise ConfigError(str(exc)) from exc


@click.group()
def cli():
    """Bimodal speech + eye-gaze continuous affect prediction toolkit."""


@cli.command("extract-gaze")
@click.option("--in", "in_path", required=True, type=click.Path())
@click.option("--fps", required=True, type=float)
@click.option("--window-seconds", default=4.0, show_default=True, type=float)
@click.option("--gaze-columns", "columns_flag", default=None,
              help="Mapping h=<col>,v=<col>,closed=<col>,valid=<col>; an unmapped "
                   "column is read by its own name")
@click.option("--out", "out_path", required=True, type=click.Path())
def extract_gaze_cmd(in_path, fps, window_seconds, columns_flag, out_path):
    """Extract the 31 windowed gaze features from a gaze log CSV."""
    with _flag_values():
        column_map = parse_gaze_columns_flag(columns_flag) if columns_flag else None
        rate, window = FrameRate(fps), WindowSpec(window_seconds)
        frames_for_duration(window_seconds, rate)  # a window too long to count in frames
    log = load_gaze_log_csv(in_path, rate, column_map)
    matrix = extract_gaze_features(log, window)
    save_feature_csv(matrix, out_path)
    click.echo(f"wrote {matrix.n_frames}x{matrix.n_features} features to {out_path}")


@cli.command("fuse")
@click.option("--speech", required=True, type=click.Path())
@click.option("--gaze", required=True, type=click.Path())
@click.option("--fps", default=25.0, show_default=True, type=float)
@click.option("--out", "out_path", required=True, type=click.Path())
def fuse_cmd(speech, gaze, fps, out_path):
    """Concatenate speech and gaze feature CSVs frame by frame."""
    with _flag_values():
        rate = FrameRate(fps)
    fused = fuse_features(load_feature_csv(speech, rate), load_feature_csv(gaze, rate))
    save_feature_csv(fused, out_path)
    click.echo(f"wrote {fused.n_frames}x{fused.n_features} fused features to {out_path}")


@cli.command("shift")
@click.option("--annotations", required=True, type=click.Path())
@click.option("--frames", required=True, type=int)
@click.option("--dimension", default="arousal", show_default=True,
              type=click.Choice(DIMENSIONS))
@click.option("--fps", default=25.0, show_default=True, type=float)
@click.option("--out", "out_path", required=True, type=click.Path())
def shift_cmd(annotations, frames, dimension, fps, out_path):
    """Shift annotations back in time by N frames, zero-padding the tail."""
    with _flag_values():
        rate = FrameRate(fps)
    if frames < 0:
        raise ConfigError("shift frames must be non-negative")
    trace = load_annotation_csv(annotations, dimension, rate)
    shifted = shift_annotations(trace, frames)
    save_feature_csv(FeatureMatrix(("value",), shifted.values[:, None], rate), out_path)
    click.echo(f"wrote {len(shifted)} shifted values to {out_path}")


@cli.command("evaluate")
@click.option("--pred", required=True, type=click.Path())
@click.option("--truth", required=True, type=click.Path())
@click.option("--metric", default="ccc", show_default=True,
              type=click.Choice(["ccc", "pearson", "sse"]))
def evaluate_cmd(pred, truth, metric):
    """Score a prediction CSV against a ground-truth CSV."""
    x = load_annotation_values(pred)
    y = load_annotation_values(truth)
    fn = {"ccc": ccc, "pearson": pearson, "sse": sse}[metric]
    click.echo(f"{metric} = {fn(x, y):.6f}")


@cli.command("synth")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--name", default="synth", show_default=True)
@click.option("--recordings", default="3,2,2", show_default=True,
              help="train,validation,test recording counts")
@click.option("--frames", default=400, show_default=True, type=int)
@click.option("--fps", default=25.0, show_default=True, type=float)
@click.option("--lag", default=0, show_default=True, type=int)
@click.option("--noise", default=0.05, show_default=True, type=float)
@click.option("--speech-weight", default=0.6, show_default=True, type=float)
@click.option("--gaze-weight", default=0.4, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
def synth_cmd(out_dir, name, recordings, frames, fps, lag, noise,
              speech_weight, gaze_weight, seed):
    """Generate a deterministic synthetic corpus."""
    try:
        n_train, n_val, n_test = (int(x) for x in recordings.split(","))
    except ValueError:
        raise ConfigError(
            f"--recordings must be 'train,val,test' counts, got {recordings!r}"
        ) from None
    with _flag_values():
        spec = SyntheticCorpusSpec(
            name=name,
            train_recordings=n_train,
            validation_recordings=n_val,
            test_recordings=n_test,
            frames=frames,
            fps=fps,
            lag_frames=lag,
            noise_level=noise,
            speech_weight=speech_weight,
            gaze_weight=gaze_weight,
            seed=seed,
        )
    manifest_path = generate_synthetic_corpus(spec, out_dir)
    click.echo(f"wrote corpus manifest to {manifest_path}")


def _load_config(config_path: str, out_dir: str | None, jobs: int | None, *outputs: str):
    """The config and the path of each named output file in its out-dir. Each
    output is checked for writing before any data is read, and left as it was."""
    config = ExperimentConfig.from_json(config_path)
    if out_dir is not None:
        config.out_dir = Path(out_dir).resolve()
    if jobs is not None:
        if jobs < 1:
            raise ConfigError(f"--jobs needs N >= 1, got {jobs}")
        config.jobs = jobs
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise output_error(config.out_dir, exc) from exc
    paths = [config.out_dir / name for name in outputs]
    for path in paths:
        existed = path.exists()
        try:
            open(path, "a").close()  # appending truncates nothing
        except OSError as exc:
            raise output_error(path, exc) from exc
        if not existed:
            path.unlink()
    return config, paths


@cli.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out-dir", default=None, type=click.Path())
@click.option("--jobs", default=None, type=int)
@click.option("--modality", default="fused", show_default=True,
              type=click.Choice(["speech", "gaze", "fused"]))
def sweep_cmd(config_path, out_dir, jobs, modality):
    """Ground-truth time-shift sweep; reports the best shift per network."""
    config, (results, shifts) = _load_config(config_path, out_dir, jobs,
                                             "sweep_results.csv", "best_shifts.json")
    table, best = run_shift_sweep(config, modality=modality)
    save_results_csv(table, results)
    with open_output(shifts) as fh:
        fh.write(json.dumps(best, indent=2))
    for kind, shift in best.items():
        click.echo(f"best shift [{kind}]: {shift} frames")


@cli.command("train")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out-dir", default=None, type=click.Path())
@click.option("--jobs", default=None, type=int)
def train_cmd(config_path, out_dir, jobs):
    """Intra-corpus unimodal/bimodal training at the chosen shift."""
    config, (results, report, improved) = _load_config(
        config_path, out_dir, jobs, "intra_results.csv", "intra_results.md", "improvements.json")
    table, improvements = run_intra_corpus(config)
    save_results_csv(table, results)
    render_report(table, "markdown", report)
    with open_output(improved) as fh:
        fh.write(json.dumps(improvements, indent=2))
    diverged = [r for r in table.rows if r.status == "div"]
    if diverged:
        raise DivergenceError(
            f"{len(diverged)} of {len(table.rows)} training runs diverged"
        )
    for kind, info in improvements.items():
        click.echo(
            f"{kind}: fused CCC {info['fused_ccc']:.4f} vs best unimodal "
            f"{info['best_unimodal_ccc']:.4f} "
            f"({info['relative_improvement'] * 100:+.2f}%)"
        )


@cli.command("cross-eval")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out-dir", default=None, type=click.Path())
@click.option("--jobs", default=None, type=int)
def cross_eval_cmd(config_path, out_dir, jobs):
    """Cross-corpus evaluation with frame-rate shift conversion."""
    config, (results, report) = _load_config(config_path, out_dir, jobs,
                                             "cross_results.csv", "cross_results.md")
    table, models = run_cross_corpus(config)
    save_results_csv(table, results)
    render_report(table, "markdown", report)
    for i, model in enumerate(models):
        name = (
            f"cross_model_{model.metadata.get('network', 'net')}_"
            f"{model.metadata.get('modality', 'mod')}_{i}.json"
        )
        save_model(model, config.out_dir / name)
    click.echo(f"wrote {len(table.rows)} cross-corpus rows to {config.out_dir}")


@cli.command("report")
@click.option("--results", required=True, type=click.Path())
@click.option("--format", "fmt", default="markdown", show_default=True,
              type=click.Choice(["csv", "markdown"]))
@click.option("--out", "out_path", required=True, type=click.Path())
def report_cmd(results, fmt, out_path):
    """Re-render a results CSV as CSV or markdown."""
    table = load_results_csv(results)
    render_report(table, fmt, out_path)
    click.echo(f"wrote {fmt} report to {out_path}")


def main(argv=None) -> None:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except ConfigError as exc:
        click.echo(f"config error: {str(exc).translate(_ESCAPES)}", err=True)
        sys.exit(1)
    except DivergenceError as exc:
        click.echo(f"training diverged: {str(exc).translate(_ESCAPES)}", err=True)
        sys.exit(3)
    except DataError as exc:
        click.echo(f"data error: {str(exc).translate(_ESCAPES)}", err=True)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
