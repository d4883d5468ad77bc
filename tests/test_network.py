import hashlib
import json
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

import gazeaffect.network as nw
from gazeaffect import predict_trace
from gazeaffect.errors import DataError, DivergenceError
from gazeaffect.fusion import NormStats, fit_norm_stats
from gazeaffect.metrics import ccc
from gazeaffect.network import (
    LayerSpec,
    NetworkSpec,
    TrainConfig,
    TrainedModel,
    bptt_gradients,
    gradient_check,
    init_network,
    inject_noise,
    load_model,
    predict,
    save_model,
    train_network,
)
from gazeaffect.timeline import AnnotationTrace, FeatureMatrix, FrameRate

from oracles import lstm_network_direct

FPS = FrameRate(25.0)


def small_spec(kind="lstm", sizes=(8, 6), input_dim=5):
    return NetworkSpec(
        layers=tuple(LayerSpec(kind, s) for s in sizes), input_dim=input_dim
    )


def make_ar_sequence(rng, n, dim, coeff=0.9):
    x = np.empty((n, dim))
    for j in range(dim):
        noise = rng.normal(size=n)
        x[0, j] = noise[0]
        for t in range(1, n):
            x[t, j] = coeff * x[t - 1, j] + noise[t]
    x -= x.mean(axis=0)
    x /= np.maximum(x.std(axis=0), 1e-12)
    return x


class TestSpecValidation:
    def test_blstm_odd_size_rejected(self):
        with pytest.raises(DataError):
            NetworkSpec(layers=(LayerSpec("blstm", 7),), input_dim=3)

    def test_needs_layers(self):
        with pytest.raises(DataError):
            NetworkSpec(layers=(), input_dim=3)


class TestInit:
    def test_deterministic(self):
        spec = small_spec()
        a = init_network(spec, 1787452436)
        b = init_network(spec, 1787452436)
        assert np.array_equal(a.theta, b.theta)

    def test_different_seeds_differ(self):
        spec = small_spec()
        a = init_network(spec, 1787452436)
        b = init_network(spec, 123456789)
        assert not np.array_equal(a.theta, b.theta)

    def test_blstm_direction_split(self):
        spec = NetworkSpec(layers=(LayerSpec("blstm", 40),), input_dim=4)
        params = init_network(spec, 0)
        assert params.stacked[0].b.shape[0] == 2  # the direction axis
        assert params.stacked[0].hidden == 20

    def test_weights_in_range_biases_zero(self):
        params = init_network(small_spec(), 3)
        for dw in params.stacked:
            assert np.abs(dw.w).max() <= 0.1
            assert np.array_equal(dw.b, np.zeros_like(dw.b))

    @pytest.mark.parametrize("kind", ["lstm", "blstm"])
    def test_draw_order(self, kind):
        # One generator draws, per layer and direction, w (4H x D) then
        # r (4H x H), then w_out; biases stay zero. theta holds w, r and b of
        # each layer and direction in turn, then w_out and b_out.
        spec = small_spec(kind, (8, 6), input_dim=5)
        rng = np.random.default_rng(41)
        parts, n_dir = [], 1 if kind == "lstm" else 2
        for d, width in spec.layer_widths():
            h = width // n_dir
            for _ in range(n_dir):
                parts += [rng.uniform(-0.1, 0.1, size=(4 * h, d)).ravel(),
                          rng.uniform(-0.1, 0.1, size=(4 * h, h)).ravel(), np.zeros(4 * h)]
        parts += [rng.uniform(-0.1, 0.1, size=spec.layers[-1].size), [0.0]]
        assert np.array_equal(np.concatenate(parts), init_network(spec, 41).theta)


def forward_keeping_caches(params, x):
    """The forward pass as BPTT runs it: every layer's cache lives until the
    readout."""
    caches, h = [], x
    for dw in params.stacked:
        h, cache = nw._layer_forward(dw, h)
        caches.append(cache)
    return nw._readout(params, h)


class TestForward:
    def test_zero_weights_zero_output(self):
        spec = small_spec()
        params = init_network(spec, 0)
        params.theta[...] = 0.0
        preds = predict(params, spec, np.random.default_rng(0).normal(size=(20, 5)))
        assert np.array_equal(preds, np.zeros(20))

    @pytest.mark.parametrize("kind", ["lstm", "blstm"])
    def test_predict_frees_layer_caches(self, kind):
        spec = NetworkSpec(layers=(LayerSpec(kind, 80), LayerSpec(kind, 60)), input_dim=88)
        params = init_network(spec, 0)
        x = np.random.default_rng(3).normal(size=(400, 88))
        peaks, outputs = [], []
        for run in (lambda: predict(params, spec, x), lambda: forward_keeping_caches(params, x)):
            tracemalloc.start()
            try:
                outputs.append(run())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert np.array_equal(outputs[0], outputs[1])
        # predict holds one layer's buffers, the reference keeps both caches
        assert peaks[0] < 0.75 * peaks[1]

    def test_output_length(self):
        spec = small_spec()
        params = init_network(spec, 1)
        rng = np.random.default_rng(2)
        for n in rng.integers(1, 80, size=10):
            assert len(predict(params, spec, rng.normal(size=(n, 5)))) == n

    def test_lstm_causality(self):
        spec = small_spec("lstm", (8,))
        params = init_network(spec, 5)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 5))
        fwd = predict(params, spec, x)
        rev = predict(params, spec, x[::-1])
        assert not np.allclose(rev, fwd[::-1])

    def test_width_mismatch(self):
        spec = small_spec()
        params = init_network(spec, 0)
        with pytest.raises(DataError):
            predict(params, spec, np.zeros((4, 3)))

    def test_single_frame_blstm_matches_lstm(self):
        # Both directions of a single-frame BLSTM see exactly that frame and
        # each equals an LSTM step with the matched per-direction parameters.
        blstm = NetworkSpec(layers=(LayerSpec("blstm", 4),), input_dim=3)
        params = init_network(blstm, 9)
        x = np.random.default_rng(9).normal(size=(1, 3))
        s = params.stacked[0]
        h_f, h_b = (nw._direction_forward(nw.DirectionWeights(s.w[k], s.r[k], s.b[k]), x)[0]
                    for k in (0, 1))
        out, _ = nw._layer_forward(params.stacked[0], x)
        assert np.array_equal(out, np.concatenate([h_f, h_b], axis=1))

    def test_stacked_weight_sets_match_separate_loops(self):
        # K weight sets stepped in one time loop give exactly the hidden
        # states of K separate K=1 loops.
        rng = np.random.default_rng(11)
        k, h, d, n = 5, 4, 3, 17
        dws = [
            nw.DirectionWeights(
                w=rng.normal(size=(1, 4 * h, d)),
                r=rng.normal(size=(1, 4 * h, h)),
                b=rng.normal(size=(1, 4 * h)),
            )
            for _ in range(k)
        ]
        xs = rng.normal(size=(k, n, d))
        stacked = nw.DirectionWeights(
            *(np.concatenate([getattr(dw, a) for dw in dws]) for a in ("w", "r", "b"))
        )
        hs, _ = nw._direction_forward(stacked, xs)
        for j, dw in enumerate(dws):
            assert np.array_equal(hs[j : j + 1], nw._direction_forward(dw, xs[j : j + 1])[0])

    @pytest.mark.parametrize("kind", ["lstm", "blstm"])
    def test_batched_params_match_separate_predictions(self, kind):
        spec = small_spec(kind)
        sets = [init_network(spec, seed) for seed in range(3)]
        x = np.random.default_rng(3).normal(size=(12, 5))
        batch = nw.NetworkParams(spec, np.stack([p.theta for p in sets]))
        preds = predict(batch, spec, x)
        for row, params in zip(preds, sets):
            assert np.array_equal(row, predict(params, spec, x))

    @pytest.mark.parametrize("kind", ["lstm", "blstm"])
    def test_relayout_block_size_changes_no_number(self, kind, monkeypatch):
        # The input products are re-laid gate-major a block of frames at a
        # time: one frame per block, a ragged last block and one block per
        # sequence give the same predictions, gate deltas and gradients, for a
        # (2, 3) batch of weight sets whose rows match their own unbatched calls.
        spec = small_spec(kind)
        rng = np.random.default_rng(21)
        size = nw.NetworkParams(spec).theta.size
        batch = nw.NetworkParams(spec, rng.normal(0.0, 0.3, size=(2, 3, size)))
        x, y = rng.normal(size=(13, 5)), rng.normal(size=13)
        d_out = rng.normal(size=(2, 3, 13, spec.layers[0].size))

        def run():
            grad = nw.NetworkParams(spec, np.zeros_like(batch.theta)).stacked[0]
            out, cache = nw._layer_forward(batch.stacked[0], x)
            dz = nw._layer_backward(batch.stacked[0], cache, d_out, grad)
            single = nw.NetworkParams(spec, batch.theta[1, 2])
            grads, loss = bptt_gradients(single, spec, x, y)
            return [predict(batch, spec, x), out, dz, grad.w, grad.r, grad.b,
                    grads.theta, loss, predict(single, spec, x)]

        default = run()
        for budget in (1, 1000, 1 << 40):
            monkeypatch.setattr(nw, "_RELAYOUT_BYTES", budget)
            assert all(np.array_equal(a, b) for a, b in zip(run(), default))
        assert np.array_equal(default[0][1, 2], default[-1])
        for j, k in np.ndindex(2, 3):
            row = predict(nw.NetworkParams(spec, batch.theta[j, k]), spec, x)
            assert np.array_equal(default[0][j, k], row)


def check_with_corrupted_gradient(monkeypatch, spec, index):
    """gradient_check against a BPTT whose gradient at `index` is off by 1."""
    real = nw.bptt_gradients

    def corrupted(params, spec, x, targets):
        grads, loss = real(params, spec, x, targets)
        grads.theta[index] += 1.0
        return grads, loss

    monkeypatch.setattr(nw, "bptt_gradients", corrupted)
    return gradient_check(spec, seed=12, sequence_length=20)


class TestGradients:
    def test_perfect_predictions_zero_gradients(self):
        spec = small_spec("lstm", (4,), input_dim=2)
        params = init_network(spec, 0)
        x = np.random.default_rng(1).normal(size=(10, 2))
        targets = predict(params, spec, x)
        grads, loss = bptt_gradients(params, spec, x, targets)
        assert loss == 0.0
        assert np.array_equal(grads.theta, np.zeros_like(grads.theta))

    @pytest.mark.parametrize("kind", ["lstm", "blstm"])
    def test_finite_difference_check(self, kind):
        report = gradient_check(small_spec(kind), seed=12, sequence_length=20)
        assert report.max_relative_error < 1e-4

    @pytest.mark.parametrize(
        "kind, error, n_parameters, worst",
        [("lstm", 1.50939434508026e-05, 815, 233), ("blstm", 1.925029571630334e-05, 615, 292)],
    )
    def test_golden_report(self, kind, error, n_parameters, worst):
        # Pins the parameter draw: one normal draw over theta, after x and y.
        # BLAS kernels round the finite differences differently (about 2e-9
        # relative across OpenBLAS core types), so the error is pinned to 1e-8.
        report = gradient_check(small_spec(kind), seed=3, sequence_length=11)
        assert (report.n_parameters, report.worst_index) == (n_parameters, worst)
        assert report.max_relative_error == pytest.approx(error, rel=1e-8)

    def test_check_catches_corrupted_gradient(self, monkeypatch):
        report = check_with_corrupted_gradient(monkeypatch, small_spec("lstm"), 100)
        assert report.max_relative_error > 1e-2
        assert report.worst_index == 100

    @pytest.mark.parametrize("where", ["top layer", "readout bias"])
    @pytest.mark.parametrize("kind", ["lstm", "blstm"])
    def test_check_catches_corruption_at_layer_bounds(self, monkeypatch, kind, where):
        # Each batch of the check starts at its parameter's layer: corrupt the
        # top layer's first parameter, and the readout bias, theta's last.
        spec = small_spec(kind)
        params = nw.NetworkParams(spec)
        top, size = params.stacked[-1], params.theta.size
        first_top = size - params.w_out.size - 1 - top.w.size - top.r.size - top.b.size
        index = first_top if where == "top layer" else size - 1
        report = check_with_corrupted_gradient(monkeypatch, spec, index)
        assert report.max_relative_error > 1e-2
        assert report.worst_index == index

    @pytest.mark.parametrize("n", [1, 2, 37])
    @pytest.mark.parametrize("sizes", [(6,), (8, 6)])
    @pytest.mark.parametrize("kind", ["lstm", "blstm"])
    def test_matches_per_step_oracle(self, kind, sizes, n):
        # Tighter than the finite-difference check: the vectorized BPTT must
        # agree with textbook per-step equations to rounding.
        spec = small_spec(kind, sizes)
        params = init_network(spec, n)
        rng = np.random.default_rng(100 + n)
        params.theta[...] = rng.normal(0.0, 0.3, size=params.theta.shape)
        x = rng.normal(size=(n, spec.input_dim))
        y = rng.normal(size=n)
        preds, loss, grads = lstm_network_direct(params, x, y)
        g, bptt_loss = bptt_gradients(params, spec, x, y)
        grads = np.array(grads)
        assert g.theta.shape == grads.shape
        assert np.max(np.abs(g.theta - grads)) <= 1e-12 * np.max(np.abs(grads))
        assert np.max(np.abs(predict(params, spec, x) - preds)) <= 1e-12
        assert bptt_loss == pytest.approx(loss, rel=1e-12)

    def test_length_mismatch(self):
        spec = small_spec()
        params = init_network(spec, 0)
        with pytest.raises(DataError):
            bptt_gradients(params, spec, np.zeros((5, 5)), np.zeros(4))

    def test_no_input_gradient_for_first_layer(self, monkeypatch):
        real = nw._input_gradient
        widths = []

        def counted(dw, dz):
            widths.append(dw.w.shape[-1])
            return real(dw, dz)

        monkeypatch.setattr(nw, "_input_gradient", counted)
        spec = small_spec("blstm", (8, 6, 4))
        params = init_network(spec, 0)
        rng = np.random.default_rng(4)
        bptt_gradients(params, spec, rng.normal(size=(12, 5)), rng.normal(size=12))
        assert widths == [6, 8]  # layers 2 and 1; never layer 0's 5-wide input

    def test_each_cache_freed_after_its_layer(self, monkeypatch):
        # BPTT keeps every layer's cache through the forward pass, then frees
        # each one once its layer is done, the top layer's included
        forward, backward = nw._layer_forward, nw._layer_backward
        gates, alive = [], []

        def recording_forward(dw, x):
            out, cache = forward(dw, x)
            gates.append(weakref.ref(cache[1]))
            return out, cache

        def recording_backward(dw, cache, d_out, grad):
            alive.append([ref() is not None for ref in gates])
            return backward(dw, cache, d_out, grad)

        monkeypatch.setattr(nw, "_layer_forward", recording_forward)
        monkeypatch.setattr(nw, "_layer_backward", recording_backward)
        spec = small_spec("blstm", (8, 6, 4))
        rng = np.random.default_rng(4)
        bptt_gradients(init_network(spec, 0), spec, rng.normal(size=(12, 5)), rng.normal(size=12))
        assert alive == [[True, True, True], [True, True, False], [True, False, False]]

    def test_zero_guard_degenerate_check(self):
        # Zero weights + zero targets: every relative error stays defined.
        spec = small_spec("lstm", (4,), input_dim=2)
        params = init_network(spec, 0)
        params.theta[...] = 0.0
        x = np.zeros((8, 2))
        grads, loss = bptt_gradients(params, spec, x, np.zeros(8))
        assert loss == 0.0
        assert np.isfinite(grads.theta).all()


class TestNoise:
    def test_noise_law(self):
        rng = np.random.default_rng(1)
        x = np.zeros((1000, 1000))
        noise = inject_noise(x, rng)
        assert abs(noise.mean()) < 0.001
        assert abs(noise.std() - 0.1) < 0.001

    def test_reproducible(self):
        x = np.zeros((10, 4))
        a = inject_noise(x, np.random.default_rng(7))
        b = inject_noise(x, np.random.default_rng(7))
        assert np.array_equal(a, b)


def teachable_task(seed=42, n=200, lag=3):
    rng = np.random.default_rng(seed)
    mix = np.array([0.7, -0.4, 0.3])

    def seq():
        x = make_ar_sequence(rng, n, 3)
        y = np.zeros(n)
        y[lag:] = x[: n - lag] @ mix
        y = (y - y.mean()) / max(y.std(), 1e-12)
        return x, y

    train = [seq() for _ in range(3)]
    val = [seq()]
    test = [seq()]
    return train, val, test


class TestTraining:
    def test_plateau_stops_at_best_plus_patience(self, monkeypatch):
        # Validation SSE improves through epoch 5 then freezes: training must
        # stop at epoch 25 and return the epoch-5 parameters.
        snapshots = []
        calls = {"n": 0}

        def fake_evaluate_sse(params, spec, dataset):
            calls["n"] += 1
            snapshots.append(params.theta.copy())
            return float(100 - calls["n"]) if calls["n"] <= 5 else 95.0

        monkeypatch.setattr(nw, "evaluate_sse", fake_evaluate_sse)
        spec = small_spec("lstm", (4,), input_dim=2)
        rng = np.random.default_rng(0)
        data = [(rng.normal(size=(10, 2)), rng.normal(size=10))]
        config = TrainConfig(learning_rate=1e-4, seed=1, max_epochs=100, patience_epochs=20)
        model = train_network(spec, data, data, config)
        assert len(model.history) == 25
        assert model.metadata["best_epoch"] == 5
        assert np.array_equal(model.params.theta, snapshots[4])

    def test_max_epochs_cap(self, monkeypatch):
        monkeypatch.setattr(nw, "evaluate_sse", lambda *a: 1.0 / (1 + len(a)))
        spec = small_spec("lstm", (4,), input_dim=2)
        rng = np.random.default_rng(0)
        data = [(rng.normal(size=(10, 2)), rng.normal(size=10))]
        config = TrainConfig(learning_rate=1e-4, seed=1, max_epochs=30, patience_epochs=5)

        calls = {"n": 0}

        def improving(*a):
            calls["n"] += 1
            return 1000.0 - calls["n"]

        monkeypatch.setattr(nw, "evaluate_sse", improving)
        model = train_network(spec, data, data, config)
        assert len(model.history) == 30

    def test_deterministic_reruns(self):
        train, val, _ = teachable_task()
        spec = small_spec("lstm", (8, 6), input_dim=3)
        config = TrainConfig(learning_rate=1e-3, seed=7, max_epochs=5, patience_epochs=2)
        a = train_network(spec, train, val, config)
        b = train_network(spec, train, val, config)
        assert a.history == b.history
        assert np.array_equal(a.params.theta, b.params.theta)

    @pytest.mark.parametrize("kind", ["lstm", "blstm"])
    def test_matches_hand_written_gradient_descent(self, kind):
        # Reference loop: per epoch one seeded permutation, then per sequence
        # fresh input noise, BPTT and theta -= lr * g, then validation SSE.
        train, val, _ = teachable_task(seed=9, n=40)
        spec = small_spec(kind, (6, 4), input_dim=3)
        config = TrainConfig(learning_rate=1e-3, seed=5, max_epochs=4, patience_epochs=3)
        model = train_network(spec, train, val, config)

        params = init_network(spec, config.seed)
        rng = np.random.default_rng(config.seed)
        history, best_val, best_theta = [], np.inf, None
        for _ in range(config.max_epochs):
            train_sse = 0.0
            for i in rng.permutation(len(train)):
                x, y = train[i]
                noisy = inject_noise(x, rng)
                grads, loss = bptt_gradients(params, spec, noisy, y)
                train_sse += loss
                params.theta -= config.learning_rate * grads.theta
            val_sse = nw.evaluate_sse(params, spec, val)
            history.append((train_sse, val_sse))
            if val_sse < best_val:
                best_val, best_theta = val_sse, params.theta.copy()
        assert np.array_equal(model.history, history)
        assert np.array_equal(model.params.theta, best_theta)

    def test_teachable_task_reaches_ccc(self):
        train, val, test = teachable_task()
        spec = NetworkSpec(
            layers=(LayerSpec("lstm", 16), LayerSpec("lstm", 12)), input_dim=3
        )
        config = TrainConfig(learning_rate=1e-3, seed=7, max_epochs=100, patience_epochs=20)
        model = train_network(spec, train, val, config)
        x, y = test[0]
        assert ccc(predict(model.params, model.spec, x), y) >= 0.9

    def test_early_stop_returns_best_epoch(self):
        train, val, _ = teachable_task(seed=3)
        spec = small_spec("lstm", (8,), input_dim=3)
        config = TrainConfig(learning_rate=3e-3, seed=11, max_epochs=40, patience_epochs=10)
        model = train_network(spec, train, val, config)
        val_curve = [v for _, v in model.history]
        best = model.metadata["best_epoch"]
        assert val_curve[best - 1] == min(val_curve)
        assert nw.evaluate_sse(model.params, spec, val) == pytest.approx(
            val_curve[best - 1]
        )

    def test_validation_noise_free(self):
        train, val, _ = teachable_task(seed=4)
        spec = small_spec("lstm", (6,), input_dim=3)
        params = init_network(spec, 0)
        assert nw.evaluate_sse(params, spec, val) == nw.evaluate_sse(params, spec, val)

    def test_divergence_raises(self):
        train, val, _ = teachable_task(seed=5)
        spec = small_spec("lstm", (8,), input_dim=3)
        config = TrainConfig(learning_rate=1e7, seed=1, max_epochs=20, patience_epochs=5)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as excinfo:
                train_network(spec, train, val, config)
        assert excinfo.value.last_finite_epoch >= 0

    def test_blstm_beats_lstm_on_time_symmetric_task(self):
        # Target needs future context: y_t = (x_{t-2} + x_{t+2}) / 2.
        rng = np.random.default_rng(6)

        def seq():
            x = make_ar_sequence(rng, 150, 2)
            y = np.zeros(150)
            y[2:-2] = 0.5 * (x[:-4, 0] + x[4:, 0])
            y = (y - y.mean()) / max(y.std(), 1e-12)
            return x, y

        train = [seq() for _ in range(2)]
        val = [seq()]
        config = TrainConfig(learning_rate=1e-3, seed=3, max_epochs=30, patience_epochs=10)
        blstm = train_network(
            NetworkSpec(layers=(LayerSpec("blstm", 8),), input_dim=2), train, val, config
        )
        lstm = train_network(
            NetworkSpec(layers=(LayerSpec("lstm", 8),), input_dim=2), train, val, config
        )
        assert blstm.metadata["best_val_sse"] <= lstm.metadata["best_val_sse"]


def build_model_with_stats(seed=0):
    rng = np.random.default_rng(seed)
    names = tuple(f"f{i}" for i in range(4))
    mats = [
        FeatureMatrix(names=names, values=rng.normal(size=(30, 4)), fps=FPS)
        for _ in range(2)
    ]
    traces = [
        AnnotationTrace(dimension="arousal", values=rng.uniform(-1, 1, 30), fps=FPS)
        for _ in range(2)
    ]
    stats = fit_norm_stats(mats, traces)
    spec = small_spec("blstm", (4,), input_dim=4)
    return (
        TrainedModel(
            spec=spec,
            params=init_network(spec, seed),
            norm_stats=stats,
            dimension="arousal",
            shift_used=69,
            history=[(3.0, 2.0)],
            metadata={"seed": seed},
        ),
        mats[0],
    )


class TestPredictTrace:
    def test_length_contract(self):
        model, matrix = build_model_with_stats()
        rng = np.random.default_rng(1)
        for n in rng.integers(1, 60, size=10):
            m = FeatureMatrix(
                names=matrix.names, values=rng.normal(size=(n, 4)), fps=FPS
            )
            assert len(predict_trace(model, m)) == n

    def test_zero_weight_model_predicts_target_mean(self):
        model, matrix = build_model_with_stats()
        model.params.theta[...] = 0.0
        m = FeatureMatrix(names=matrix.names, values=np.zeros((10, 4)), fps=FPS)
        preds = predict_trace(model, m)
        assert preds == pytest.approx(np.full(10, model.norm_stats.target_mean))

    def test_name_mismatch(self):
        model, _ = build_model_with_stats()
        m = FeatureMatrix(
            names=("a", "b", "c", "d"), values=np.zeros((5, 4)), fps=FPS
        )
        with pytest.raises(DataError):
            predict_trace(model, m)


def saved_doc(tmp_path):
    model, _ = build_model_with_stats()
    path = tmp_path / "model.json"
    save_model(model, path)
    return path, json.loads(path.read_text())


def golden_model(kind, sizes, seed=4):
    spec = small_spec(kind, sizes, input_dim=3)
    params = init_network(spec, seed)
    params.theta += np.arange(params.theta.size) / 1024  # distinct biases place every gate row
    stats = NormStats(
        ("f0", "f1", "f2"), np.array([0.5, -1.25, 2.0]), np.array([1.5, 0.25, 3.0]), 0.125, 2.5
    )
    return TrainedModel(
        spec=spec,
        params=params,
        norm_stats=stats,
        dimension="valence",
        shift_used=42,
        history=[(3.5, 2.25), (2.0, 1.75)],
        metadata={"seed": seed, "modality": "fused", "network": kind},
    )


class TestPersistence:
    @pytest.mark.parametrize(
        "kind, sizes, sha256",
        [
            ("lstm", (6,), "ac1eccaeecb08d319afa0025cbed1ef57a33818b474dac2b35b6611b7adcbbda"),
            ("blstm", (6, 4), "cbea8bea14d2832a5743d3a605e5f613e2333f05ad5dae78e40070f454eac5de"),
        ],
    )
    def test_golden_model_file(self, tmp_path, kind, sizes, sha256):
        # The model-file layout, byte for byte: entry and key order, and which
        # rows of theta each gate's w, r and b lists hold.
        path = tmp_path / "model.json"
        save_model(golden_model(kind, sizes), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
        loaded = load_model(path)
        save_model(loaded, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "field, value",
        [
            ("history", [1]),
            ("norm_stats", {"a": 1}),
            ("norm_stats", [1]),
            ("history", [["a", "b"]]),
            ("history", [[1.0, 2.0, 3.0]]),
            ("history", [[1.0, True]]),
            ("history", {"0": [1.0, 2.0]}),
            ("metadata", 5),
            ("metadata", [["seed", 3]]),
            ("dimension", 7),
            ("dimension", ["arousal"]),
            ("shift_used", 69.0),
            ("shift_used", "69"),
            ("shift_used", True),
            ("norm_stats.feature_means", [0.0, 0.0]),
            ("norm_stats.feature_stds", [1.0] * 5),
            ("norm_stats.feature_names", ["f0"]),
            ("norm_stats.target_std", "2"),
            ("norm_stats.target_mean", True),
            ("norm_stats.feature_means", [0.0, True, 0.0, 0.0]),
            ("norm_stats.feature_stds", ["1", 1.0, 1.0, 1.0]),
            ("spec.layers.0.size", 4.9),
            ("spec.output_dim", 1.0),
            ("spec.input_dim", True),
            ("spec.dropout", 0.5),
            ("norm_stats.feature_mean", [0.0]),
            ("weights.readout.bias", 0.0),
            ("checksum", "abc"),
        ],
    )
    def test_malformed_field_names_it(self, tmp_path, field, value):
        # a dotted field sets a nested value: "spec.layers.0.size"
        path, doc = saved_doc(tmp_path)
        *parents, key = field.split(".")
        section = doc
        for name in parents:
            section = section[int(name) if name.isdigit() else name]
        section[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"'{field}'"):
            load_model(path)

    def test_wrongly_typed_fields_do_not_load(self, tmp_path):
        # a model file whose plain fields all have the wrong type once loaded
        # as history [('a', 'b')], metadata 5 and dimension 7
        path, doc = saved_doc(tmp_path)
        doc.update(history=[["a", "b"]], metadata=5, dimension=7)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="model field '(history|metadata|dimension)'"):
            load_model(path)

    def test_null_and_absent_fields_load(self, tmp_path):
        path, doc = saved_doc(tmp_path)
        doc.update(dimension=None, shift_used=None, history=[[1, 2.5]])
        del doc["metadata"]
        path.write_text(json.dumps(doc))
        loaded = load_model(path)
        assert (loaded.dimension, loaded.shift_used, loaded.metadata) == (None, None, {})
        assert loaded.history == [(1, 2.5)]

    def test_round_trip_predictions(self, tmp_path):
        model, matrix = build_model_with_stats()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = FeatureMatrix(
                names=matrix.names,
                values=rng.normal(size=(int(rng.integers(1, 40)), 4)),
                fps=FPS,
            )
            assert np.array_equal(predict_trace(model, m), predict_trace(loaded, m))

    def test_truncated_file(self, tmp_path):
        model, _ = build_model_with_stats()
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: 100])
        with pytest.raises(DataError, match="JSON"):
            load_model(path)

    def test_undecodable_bytes(self, tmp_path):
        model, _ = build_model_with_stats()
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_bytes(path.read_bytes().replace(b'"metadata"', b'"\xffmetadata"'))
        with pytest.raises(DataError, match="not valid JSON"):
            load_model(path)

    def test_too_deeply_nested(self, tmp_path):
        path, doc = saved_doc(tmp_path)
        path.write_text(json.dumps(doc)[:-1] + ', "x": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(DataError, match="model is not valid JSON"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        model, _ = build_model_with_stats()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="version"):
            load_model(path)

    def test_metadata_round_trip(self, tmp_path):
        model, _ = build_model_with_stats()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.dimension == "arousal"
        assert loaded.shift_used == 69
        assert loaded.history == [(3.0, 2.0)]

    def test_missing_weights(self, tmp_path):
        path, doc = saved_doc(tmp_path)
        del doc["weights"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="weights"):
            load_model(path)

    def test_wrong_weight_length(self, tmp_path):
        path, doc = saved_doc(tmp_path)
        doc["weights"]["layer0_backward"]["r_cell"].pop()
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="layer0_backward.r_cell"):
            load_model(path)

    def test_output_dim_must_be_one(self, tmp_path):
        path, doc = saved_doc(tmp_path)
        assert doc["spec"]["output_dim"] == 1
        doc["spec"]["output_dim"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="output_dim"):
            load_model(path)

    def test_pickled_params_views_share_theta(self):
        params = pickle.loads(pickle.dumps(init_network(small_spec("blstm"), 0)))
        views = [params.w_out, *(a for d in params.stacked for a in (d.w, d.r, d.b))]
        assert all(np.shares_memory(v, params.theta) for v in views)
