"""Naive loop implementations used as independent oracles.

Everything here is written with explicit python loops straight from the
operation definitions, deliberately sharing no code with the vectorized
fast paths in :mod:`arcaps.tensor` and :mod:`arcaps.layers`. They are slow
and only ever run on tiny shapes, inside selftest and the test suite.
"""

import numpy as np


def conv2d_loops(x, kernel, bias=None, stride=1, padding="same"):
    """Six-nested-loop cross-correlation of (B,W,H,Cin) with (kw,kh,Cin,Cout)."""
    b, w, h, cin = x.shape
    kw, kh, _, cout = kernel.shape
    if padding == "same":
        wo = -(-w // stride)
        ho = -(-h // stride)
        pw = max((wo - 1) * stride + kw - w, 0) // 2
        ph = max((ho - 1) * stride + kh - h, 0) // 2
    else:
        wo = (w - kw) // stride + 1
        ho = (h - kh) // stride + 1
        pw = ph = 0
    out = np.zeros((b, wo, ho, cout), dtype=np.float64)
    for bi in range(b):
        for wi in range(wo):
            for hi in range(ho):
                for co in range(cout):
                    acc = 0.0
                    for i in range(kw):
                        for j in range(kh):
                            src_w = wi * stride + i - pw
                            src_h = hi * stride + j - ph
                            if 0 <= src_w < w and 0 <= src_h < h:
                                for ci in range(cin):
                                    acc += x[bi, src_w, src_h, ci] * kernel[i, j, ci, co]
                    out[bi, wi, hi, co] = acc + (bias[co] if bias is not None else 0.0)
    return out


def channelwise_dot3d_loops(x, reference):
    """Quadruple-loop per-channel scalar product: (B,W,H,D,M)x(D,M)->(B,W,H,M)."""
    b, w, h, d, m = x.shape
    out = np.zeros((b, w, h, m), dtype=np.float64)
    for bi in range(b):
        for wi in range(w):
            for hi in range(h):
                for mi in range(m):
                    acc = 0.0
                    for di in range(d):
                        acc += x[bi, wi, hi, di, mi] * reference[di, mi]
                    out[bi, wi, hi, mi] = acc
    return out


def capsule_activation_loops(s, weight, bias):
    """Per-location, per-channel matrix multiply followed by tanh.

    s: (B,W,H,D,N), weight: (N,D,E), bias: (N,E) -> (B,W,H,E,N)
    """
    b, w, h, d, n = s.shape
    e = weight.shape[2]
    out = np.zeros((b, w, h, e, n), dtype=np.float64)
    for bi in range(b):
        for wi in range(w):
            for hi in range(h):
                for ni in range(n):
                    vec = np.zeros(e)
                    for ei in range(e):
                        acc = bias[ni, ei]
                        for di in range(d):
                            acc += s[bi, wi, hi, di, ni] * weight[ni, di, ei]
                        vec[ei] = acc
                    out[bi, wi, hi, :, ni] = np.tanh(vec)
    return out


def conv_transform_loops(u, kernels, stride=1, padding="same"):
    """Per-(output n, input m) convolutions kept as a per-m stack.

    u: (B,W,H,D,M), kernels: list over n of (M,kw,kh,D,E)
    returns list over n of (B,Wo,Ho,E,M)
    """
    outs = []
    for bank in kernels:
        m = bank.shape[0]
        per_m = []
        for mi in range(m):
            per_m.append(conv2d_loops(u[..., mi], bank[mi], None, stride, padding))
        outs.append(np.stack(per_m, axis=-1))
    return outs


def attention_route_loops(stacks, reference):
    """Quintuple-loop attention routing.

    stacks: list over n of (B,W,H,E,M); reference: (N,E,M)
    returns (B,W,H,E,N): per position, softmax over m of the logits
    <stack_n[..., m], reference[n, :, m]>, then the weighted capsule sum.
    """
    n_out = len(stacks)
    b, w, h, e, m = stacks[0].shape
    out = np.zeros((b, w, h, e, n_out), dtype=np.float64)
    for ni in range(n_out):
        for bi in range(b):
            for wi in range(w):
                for hi in range(h):
                    logits = np.zeros(m)
                    for mi in range(m):
                        acc = 0.0
                        for ei in range(e):
                            acc += stacks[ni][bi, wi, hi, ei, mi] * reference[ni, ei, mi]
                        logits[mi] = acc
                    z = np.exp(logits - logits.max())
                    weights = z / z.sum()
                    for ei in range(e):
                        acc = 0.0
                        for mi in range(m):
                            acc += weights[mi] * stacks[ni][bi, wi, hi, ei, mi]
                        out[bi, wi, hi, ei, ni] = acc
    return out


def jacobi_eigh(a, tol=1e-12, max_sweeps=100):
    """Cyclic Jacobi eigensolver for a symmetric matrix.

    Returns (eigenvalues, eigenvectors) sorted descending; column k of the
    eigenvector matrix belongs to eigenvalue k. Independent of any LAPACK
    path, used to cross-check the SVD behind the align vector.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += a[p, q] ** 2
        if off < tol * tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], v[:, order]


def squash(vec):
    """Classic capsule nonlinearity: shrink the norm into [0,1), keep direction.

    out = (||v||^2 / (1 + ||v||^2)) * v / ||v||, with squash(0) = 0.
    Accepts a 1-d numpy vector; this is a reference activation used for
    property contrast, not a graph op.
    """
    vec = np.asarray(vec, dtype=np.float64)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        return np.zeros_like(vec)
    return (norm * norm / (1.0 + norm * norm)) * vec / norm


def squash_exp(vec):
    """Exponential squash variant: out = (1 - exp(-||v||)) * v / ||v||."""
    vec = np.asarray(vec, dtype=np.float64)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        return np.zeros_like(vec)
    return (1.0 - np.exp(-norm)) * vec / norm
