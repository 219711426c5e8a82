"""Adam optimizer over named parameter blocks.

Textbook update with bias correction:

    m_t = b1 m_{t-1} + (1 - b1) g
    v_t = b2 v_{t-1} + (1 - b2) g^2
    p  -= lr * (m_t / (1 - b1^t)) / (sqrt(v_t / (1 - b2^t)) + eps)

Deterministic: same gradients in, same parameters out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray], lr: float,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> dict[str, np.ndarray]:
    """One Adam update over every block present in `grads`.

    Mutates `state`, its moments in place, and returns a new params dict
    (blocks without a gradient pass through unchanged).  Each operation is
    the textbook formula's, in its order, so the bits are the formula's.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    out = dict(params)
    for name, g in grads.items():
        p = params[name]
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeMismatch(
                f"gradient block {name!r} has shape {g.shape}, parameter {p.shape}")
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros(p.shape), np.zeros(p.shape)
        m, v = state.m[name], state.v[name]
        tmp = np.multiply(1.0 - beta1, g)
        m *= beta1
        m += tmp
        np.multiply(1.0 - beta2, g, out=tmp)
        tmp *= g
        v *= beta2
        v += tmp
        # p - lr * (m / bc1) / (sqrt(v / bc2) + eps), into a new array
        step = np.divide(m, bc1)
        step *= lr
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        step /= tmp
        out[name] = np.subtract(p, step, out=step)
    return out
