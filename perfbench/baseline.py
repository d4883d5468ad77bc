"""Stage timings at the sizes of ROADMAP item 1's baseline table.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py [--repeats 3]

Prints one JSON object: the median time of each stage over --repeats calls,
single process, one BLAS thread, with the machine record. The stages are
BLSTM 40-30 and LSTM 80-60 forward and fwd+BPTT on one 7500 x 119 sequence,
gaze featurization per frame at the 4 s window (on a 1500-frame log; the cost
per frame does not depend on the log length), `load_feature_csv` on a
7500 x 88 CSV, and one `gradient_check` of BLSTM 8-6 at length 35.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from gazeaffect import gaze_features, network, synthetic, timeline
    from gazeaffect.experiments import NetworkChoice

    from run import machine_record

    rng = np.random.default_rng(0)
    x = rng.normal(size=(7500, 119))
    y = rng.normal(size=7500)
    stages = {}
    for kind, sizes in (("blstm", (40, 30)), ("lstm", (80, 60))):
        spec = NetworkChoice(kind, sizes).build_spec(119)
        params = network.init_network(spec, 0)
        label = f"{kind}_{sizes[0]}_{sizes[1]}_7500x119"
        stages[f"{label}_forward_s"] = _median_time(
            lambda: network.predict(params, spec, x), args.repeats
        )
        stages[f"{label}_fwd_bptt_s"] = _median_time(
            lambda: network.bptt_gradients(params, spec, x, y), args.repeats
        )

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_work_") as tmp:
        corpus = synthetic.SyntheticCorpusSpec(
            train_recordings=1,
            validation_recordings=0,
            test_recordings=0,
            frames=7500,
            speech_dim=88,
            seed=0,
        )
        manifest = timeline.load_corpus_manifest(
            synthetic.generate_synthetic_corpus(corpus, tmp)
        )
        entry = manifest.recordings[0]
        stages["load_feature_csv_7500x88_s"] = _median_time(
            lambda: timeline.load_feature_csv(entry.speech_path, entry.fps), args.repeats
        )
        log = timeline.load_gaze_log_csv(entry.gaze_path, entry.fps)
    short = timeline.GazeLog(
        h=log.h[:1500], v=log.v[:1500], eye_closed=log.eye_closed[:1500],
        valid=log.valid[:1500], fps=log.fps,
    )
    featurize_s = _median_time(
        lambda: gaze_features.extract_gaze_features(short, gaze_features.WindowSpec(4.0)),
        args.repeats,
    )
    stages["featurize_4s_ms_per_frame"] = featurize_s / len(short) * 1e3

    spec = network.NetworkSpec(
        layers=(network.LayerSpec("blstm", 8), network.LayerSpec("blstm", 6)), input_dim=5
    )
    stages["gradient_check_blstm_8_6_len35_s"] = _median_time(
        lambda: network.gradient_check(spec, seed=0, sequence_length=35), args.repeats
    )
    print(json.dumps({"machine": machine_record(np), "repeats": args.repeats, "stages": stages}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
