"""Independent brute-force oracles used by the tests.

Everything here is written against the documented definitions with plain
loops, deliberately not sharing code with the library implementations.
"""

from __future__ import annotations

import cmath
import math


def ccc_direct(x, y) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    vx = sum((a - mx) ** 2 for a in x) / n
    vy = sum((b - my) ** 2 for b in y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    denom = vx + vy + (mx - my) ** 2
    if denom < 1e-12:
        return 0.0
    return 2.0 * sxy / denom


def sse_direct(x, y) -> float:
    return sum((a - b) ** 2 for a, b in zip(x, y))


def quantile_direct(sorted_values, p) -> float:
    n = len(sorted_values)
    pos = p * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def moments_direct(values):
    n = len(values)
    mean = sum(values) / n
    m2 = sum((v - mean) ** 2 for v in values) / n
    if m2 < 1e-12:
        return mean, 0.0, 0.0
    m3 = sum((v - mean) ** 3 for v in values) / n
    return mean, math.sqrt(m2), m3 / m2**1.5


def runs_direct(flags):
    runs = []
    count = 0
    for f in flags:
        if f:
            count += 1
        else:
            if count:
                runs.append(count)
            count = 0
    if count:
        runs.append(count)
    return runs


def periodogram_direct(series, k) -> float:
    """|DFT_k|^2 / N of the mean-removed series via an explicit O(N) sum."""
    n = len(series)
    mean = sum(series) / n
    acc = 0j
    for t, v in enumerate(series):
        acc += (v - mean) * cmath.exp(-2j * math.pi * k * t / n)
    return abs(acc) ** 2 / n


def psd_bands_direct(series):
    groups = [(1,), (2,), (3, 4), (5, 6), (7, 8, 9, 10, 11, 12)]
    n = len(series)
    if n < 2:
        return [0.0] * 5
    out = []
    for group in groups:
        total = 0.0
        for k in group:
            if k <= n / 2 and k < n:
                total += periodogram_direct(series, k)
        out.append(total)
    return out


def approach_direct(distances, fps):
    n = len(distances)
    if n <= 1:
        return 0.0, 0.0
    flags = [distances[t] < distances[t - 1] for t in range(1, n)]
    ratio = sum(flags) / (n - 1)
    runs = runs_direct(flags)
    if not runs:
        return ratio, 0.0
    return ratio, (sum(runs) / len(runs)) * (1000.0 / fps)


def idt_fixations_direct(h, v, threshold, min_frames):
    """I-DT segmentation: greedy maximal runs under the dispersion threshold."""
    def diag(lo, hi):
        hw = h[lo:hi]
        vw = v[lo:hi]
        return math.hypot(max(hw) - min(hw), max(vw) - min(vw))

    n = len(h)
    min_frames = max(1, min_frames)
    fixations = []
    start = 0
    while start + min_frames <= n:
        end = start + min_frames
        if diag(start, end) <= threshold:
            while end < n and diag(start, end + 1) <= threshold:
                end += 1
            fixations.append(
                (
                    start,
                    end - 1,
                    sum(h[start:end]) / (end - start),
                    sum(v[start:end]) / (end - start),
                )
            )
            start = end
        else:
            start += 1
    return fixations


def scanpath_direct(fixations):
    if len(fixations) < 2:
        return 0.0, 0.0
    segs = []
    for a, b in zip(fixations, fixations[1:]):
        segs.append(math.hypot(b[2] - a[2], b[3] - a[3]))
    mean = sum(segs) / len(segs)
    var = sum((s - mean) ** 2 for s in segs) / len(segs)
    return mean, math.sqrt(var)


def zone_spread_direct(h, v, rows, cols, bounds):
    h_min, h_max, v_min, v_max = bounds
    cells = {}
    for i in range(len(h)):
        col = int((h[i] - h_min) / (h_max - h_min) * cols)
        row = int((v[i] - v_min) / (v_max - v_min) * rows)
        col = min(max(col, 0), cols - 1)
        row = min(max(row, 0), rows - 1)
        cells.setdefault((row, col), []).append(i)
    h_stds = []
    v_stds = []
    for members in cells.values():
        if len(members) < 2:
            continue
        for series, acc in ((h, h_stds), (v, v_stds)):
            vals = [series[i] for i in members]
            mean = sum(vals) / len(vals)
            acc.append(math.sqrt(sum((x - mean) ** 2 for x in vals) / len(vals)))
    if not h_stds:
        return (0.0, 0.0), (0.0, 0.0)

    def mean_std(vals):
        mean = sum(vals) / len(vals)
        return mean, math.sqrt(sum((x - mean) ** 2 for x in vals) / len(vals))

    return mean_std(h_stds), mean_std(v_stds)


def window_features_direct(h, v, closed, valid, fps, threshold, min_dur_frames,
                           grid_rows, grid_cols, grid_bounds):
    """All 31 features for one window, mirroring the documented definitions."""
    out = [0.0] * 31
    idx = [i for i in range(len(h)) if valid[i]]
    if not idx:
        return out
    hs = [float(h[i]) for i in idx]
    vs = [float(v[i]) for i in idx]
    cs = [bool(closed[i]) for i in idx]

    dists = [math.hypot(a, b) for a, b in zip(hs, vs)]
    out[0], out[1] = approach_direct(dists, fps)
    fixations = idt_fixations_direct(hs, vs, threshold, min_dur_frames)
    out[2], out[3] = scanpath_direct(fixations)
    zones = zone_spread_direct(hs, vs, grid_rows, grid_cols, grid_bounds)
    for a, series in enumerate((hs, vs)):
        base = 4 + a * 12
        srt = sorted(series)
        q1 = quantile_direct(srt, 0.25)
        q2 = quantile_direct(srt, 0.5)
        q3 = quantile_direct(srt, 0.75)
        mean, std, skew = moments_direct(series)
        out[base] = mean
        out[base + 1] = q2 - q1
        out[base + 2] = q3 - q2
        out[base + 3] = std
        out[base + 4] = skew
        bands = psd_bands_direct(series)
        for b in range(5):
            out[base + 5 + b] = bands[b]
        out[base + 10], out[base + 11] = zones[a]
    runs = runs_direct(cs)
    if runs:
        out[28], out[29], out[30] = moments_direct([float(r) for r in runs])
    return out


def _logistic(z):
    return 1.0 / (1.0 + math.exp(-z))


def _lstm_forward_direct(w, r, b, xs):
    """One LSTM direction stepped frame by frame. w, r, b are nested lists
    with gate rows in (input, forget, cell, output) order. Returns the hidden
    states and, per frame, what BPTT needs."""
    n_h = len(r[0])
    h, c = [0.0] * n_h, [0.0] * n_h
    hs, steps = [], []
    for x in xs:
        z = [
            b[j]
            + sum(w[j][d] * x[d] for d in range(len(x)))
            + sum(r[j][k] * h[k] for k in range(n_h))
            for j in range(4 * n_h)
        ]
        i = [_logistic(z[j]) for j in range(n_h)]
        f = [_logistic(z[n_h + j]) for j in range(n_h)]
        g = [math.tanh(z[2 * n_h + j]) for j in range(n_h)]
        o = [_logistic(z[3 * n_h + j]) for j in range(n_h)]
        c_new = [f[j] * c[j] + i[j] * g[j] for j in range(n_h)]
        h_new = [o[j] * math.tanh(c_new[j]) for j in range(n_h)]
        steps.append((x, h, c, i, f, g, o, c_new))
        hs.append(h_new)
        h, c = h_new, c_new
    return hs, steps


def _lstm_backward_direct(w, r, steps, d_hs):
    """BPTT through one direction given dLoss/dh per frame; returns
    (dLoss/dx per frame, dw, dr, db)."""
    n_h, n_d = len(r[0]), len(w[0])
    dw = [[0.0] * n_d for _ in range(4 * n_h)]
    dr = [[0.0] * n_h for _ in range(4 * n_h)]
    db = [0.0] * (4 * n_h)
    dxs = [None] * len(steps)
    dh_next, dc_next = [0.0] * n_h, [0.0] * n_h
    for t in range(len(steps) - 1, -1, -1):
        x, h_prev, c_prev, i, f, g, o, c = steps[t]
        dz = [0.0] * (4 * n_h)
        dc = [0.0] * n_h
        for j in range(n_h):
            dh = d_hs[t][j] + dh_next[j]
            tc = math.tanh(c[j])
            dc[j] = dh * o[j] * (1.0 - tc * tc) + dc_next[j]
            dz[j] = dc[j] * g[j] * i[j] * (1.0 - i[j])
            dz[n_h + j] = dc[j] * c_prev[j] * f[j] * (1.0 - f[j])
            dz[2 * n_h + j] = dc[j] * i[j] * (1.0 - g[j] * g[j])
            dz[3 * n_h + j] = dh * tc * o[j] * (1.0 - o[j])
        for j in range(4 * n_h):
            db[j] += dz[j]
            for d in range(n_d):
                dw[j][d] += dz[j] * x[d]
            for k in range(n_h):
                dr[j][k] += dz[j] * h_prev[k]
        dxs[t] = [sum(dz[j] * w[j][d] for j in range(4 * n_h)) for d in range(n_d)]
        dh_next = [sum(dz[j] * r[j][k] for j in range(4 * n_h)) for k in range(n_h)]
        dc_next = [dc[j] * f[j] for j in range(n_h)]
    return dxs, dw, dr, db


def lstm_network_direct(params, x, y):
    """Predictions, SSE loss and its gradients for a stack of LSTM or BLSTM
    layers and a linear readout, frame by frame in plain Python.

    Weights are read from `params.stacked[l]`, one direction per index of its
    direction axis (one for LSTM; forward then backward for BLSTM, the
    backward one reading the reversed input and its outputs concatenated
    after the forward ones), `params.w_out` and `params.b_out`. Gradients
    come back as one flat list in the documented theta order: w, r, b of
    each layer and direction, then w_out, then b_out.
    """
    inputs = [list(map(float, row)) for row in x]
    n = len(inputs)
    caches = []
    for layer in params.stacked:
        outs, layer_cache = [], []
        for k, (w, r, b) in enumerate(zip(layer.w.tolist(), layer.r.tolist(), layer.b.tolist())):
            seq = inputs if k == 0 else inputs[::-1]
            hs, steps = _lstm_forward_direct(w, r, b, seq)
            outs.append(hs if k == 0 else hs[::-1])
            layer_cache.append((w, r, steps))
        caches.append(layer_cache)
        inputs = [sum((out[t] for out in outs), []) for t in range(n)]
    w_out, b_out = params.w_out.tolist(), params.b_out
    preds = [sum(a * h for a, h in zip(w_out, row)) + b_out for row in inputs]
    loss = sum((p - float(t)) ** 2 for p, t in zip(preds, y))
    dy = [2.0 * (p - float(t)) for p, t in zip(preds, y)]
    grad_out = [sum(dy[t] * inputs[t][j] for t in range(n)) for j in range(len(w_out))]
    d_out = [[dy[t] * a for a in w_out] for t in range(n)]
    layer_grads = []
    for layer_cache in reversed(caches):
        d_in = None
        flat = []
        for k, (w, r, steps) in enumerate(layer_cache):
            n_h = len(r[0])
            d_hs = [row[k * n_h : (k + 1) * n_h] for row in d_out]
            dxs, dw, dr, db = _lstm_backward_direct(
                w, r, steps, d_hs if k == 0 else d_hs[::-1]
            )
            dxs = dxs if k == 0 else dxs[::-1]
            d_in = dxs if d_in is None else [
                [a + b for a, b in zip(u, v)] for u, v in zip(d_in, dxs)
            ]
            flat += [v for row in dw for v in row] + [v for row in dr for v in row] + db
        layer_grads.insert(0, flat)
        d_out = d_in
    grads = [v for flat in layer_grads for v in flat] + grad_out + [sum(dy)]
    return preds, loss, grads
