"""Independent reference implementations used as test oracles.

Everything here is written directly from the mathematical definitions as
slow scalar loops, deliberately sharing no code with the package.
"""

import math

import numpy as np


def conv2d_oracle(x, w, b, padding):
    """Six-nested-loop stride-1 cross-correlation in float64, zero-padded."""
    bb, ci, h, wd = x.shape
    o, _, k, _ = w.shape
    ho = h - k + 1 + 2 * padding
    wo = wd - k + 1 + 2 * padding
    out = np.zeros((bb, o, ho, wo), np.float64)
    for n in range(bb):
        for oc in range(o):
            for oy in range(ho):
                for ox in range(wo):
                    acc = float(b[oc])
                    for ic in range(ci):
                        for u in range(k):
                            for v in range(k):
                                yy = oy + u - padding
                                xx = ox + v - padding
                                if 0 <= yy < h and 0 <= xx < wd:
                                    acc += float(w[oc, ic, u, v]) * float(x[n, ic, yy, xx])
                    out[n, oc, oy, ox] = acc
    return out


def keys_cubic(t, a=-0.5):
    """Keys cubic kernel written from its textbook piecewise definition."""
    t = abs(t)
    if t <= 1.0:
        return (a + 2.0) * t ** 3 - (a + 3.0) * t ** 2 + 1.0
    if t < 2.0:
        return a * t ** 3 - 5.0 * a * t ** 2 + 8.0 * a * t - 4.0 * a
    return 0.0


def bicubic_oracle_2d(img, out_h, out_w):
    """Non-separable 4x4-tap cubic resample of one 2-D plane.

    Half-pixel centers, border taps clamped to the edge pixel.
    """
    h, w = img.shape
    out = np.zeros((out_h, out_w), np.float64)
    for oy in range(out_h):
        sy = (oy + 0.5) * h / out_h - 0.5
        by = math.floor(sy)
        for ox in range(out_w):
            sx = (ox + 0.5) * w / out_w - 0.5
            bx = math.floor(sx)
            acc = 0.0
            for u in range(by - 1, by + 3):
                wy = keys_cubic(sy - u)
                for v in range(bx - 1, bx + 3):
                    wx = keys_cubic(sx - v)
                    acc += wy * wx * float(img[min(max(u, 0), h - 1),
                                               min(max(v, 0), w - 1)])
            out[oy, ox] = acc
    return out


def bicubic_oracle(x, out_h, out_w):
    """Apply the 2-D oracle per batch and channel of a (B,C,H,W) array."""
    b, c, _, _ = x.shape
    out = np.zeros((b, c, out_h, out_w), np.float64)
    for n in range(b):
        for ch in range(c):
            out[n, ch] = bicubic_oracle_2d(np.asarray(x[n, ch], np.float64),
                                           out_h, out_w)
    return out


def ssim_oracle(a, b, window, k1=0.01, k2=0.03, drange=1.0):
    """Direct per-window SSIM from the definition, scalar loops.

    a, b are 2-D float arrays; window is the (n, n) weight mask.
    """
    n = window.shape[0]
    h, w = a.shape
    c1 = (k1 * drange) ** 2
    c2 = (k2 * drange) ** 2
    vals = []
    for y in range(h - n + 1):
        for x in range(w - n + 1):
            pa = a[y:y + n, x:x + n]
            pb = b[y:y + n, x:x + n]
            mu_a = float((window * pa).sum())
            mu_b = float((window * pb).sum())
            var_a = float((window * pa * pa).sum()) - mu_a ** 2
            var_b = float((window * pb * pb).sum()) - mu_b ** 2
            cov = float((window * pa * pb).sum()) - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
    return float(np.mean(vals))


def pixel_shuffle_oracle(y, r):
    """Depth-to-space from its definition:
    out[n, c, h*r + i, w*r + j] = y[n, c*r*r + i*r + j, h, w]."""
    b, c, h, w = y.shape
    out = np.zeros((b, c // (r * r), h * r, w * r), np.float64)
    for ch in range(c):
        co, k = divmod(ch, r * r)
        i, j = divmod(k, r)
        out[:, co, i::r, j::r] = y[:, ch]
    return out


def block_oracle(x, params, prefix, branches):
    """One body block from the border convention: a one-branch block is a
    3x3 conv at padding 1 under ``prefix``; otherwise the input is
    zero-padded by one, branch i runs its i 1x1 convs
    (``{prefix}.br{i}.casc{j}``) and its 3x3 (``{prefix}.br{i}.main``)
    unpadded, and the branch outputs are summed."""
    if branches == 1:
        return conv2d_oracle(x, params[f"{prefix}.w"], params[f"{prefix}.b"], 1)
    b, c, h, w = x.shape
    padded = np.zeros((b, c, h + 2, w + 2), np.float64)
    padded[:, :, 1:-1, 1:-1] = x
    total = 0.0
    for i in range(branches):
        z = padded
        for j in range(i):
            stem = f"{prefix}.br{i}.casc{j}"
            z = conv2d_oracle(z, params[f"{stem}.w"], params[f"{stem}.b"], 0)
        stem = f"{prefix}.br{i}.main"
        total = total + conv2d_oracle(z, params[f"{stem}.w"], params[f"{stem}.b"], 0)
    return total


def srnet_oracle(config, params, x):
    """Whole SR network in float64 from its definition: head conv, then per
    block u + conv1(relu(conv0(u))), then the tail conv, the pixel shuffle
    and, with ``config.global_skip``, the bicubic upscale of ``x``."""
    u = conv2d_oracle(x, params["head.w"], params["head.b"], 1)
    for blk in range(config.blocks):
        t = np.maximum(block_oracle(u, params, f"body{blk}.conv0", config.branches), 0)
        u = u + block_oracle(t, params, f"body{blk}.conv1", config.branches)
    r = config.scale
    y = pixel_shuffle_oracle(conv2d_oracle(u, params["tail.w"], params["tail.b"], 1), r)
    if config.global_skip:
        _, _, h, w = x.shape
        y = y + bicubic_oracle(x, h * r, w * r)
    return y
