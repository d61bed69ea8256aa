"""Machine-speed reference: a fixed kernel timed beside every op and set-up.

The 2-core x86_64 virtual machine this benchmark was built on runs the same
code at two speeds that switch every few tens of seconds to minutes.  The
slow state is up to 60% slower, and CPU time tracks wall time, so the cause
is CPU speed, not waiting.  Whole runs fall in one state, so no estimate
from within a run removes it.  The kernel below does the same kinds of work
as seqbid: interpreter loops, small ``Generator.choice`` draws, and
``np.interp`` / ``ndtr`` over a few hundred points.  Its time rises and
falls with the state.  Over 40-op windows, a G15 solve's time divided by
the kernel's stayed within ±7% where the solve's own median moved within
±25%.  Ten consecutive Monte Carlo runs had an IQR of 40% of the median
before this rescaling; ten later runs had 5% after it.

Timings are reported as ``seconds × REF_SECONDS / kernel seconds``: what
the op would have taken with the kernel at ``REF_SECONDS``.  That is the
kernel's fast-state time on that machine.  The kernel uses only Python,
numpy and scipy, never seqbid, so a change to seqbid cannot move it.
"""

from __future__ import annotations

import time

REF_SECONDS = 0.0032
_state: dict = {}


def _kernel() -> None:
    import numpy as np
    from scipy.special import ndtr

    if not _state:
        _state["rng"] = np.random.default_rng(0)
        _state["p"] = np.full(10, 0.1)
        _state["xs"] = np.linspace(0.0, 30.0, 15)
        _state["ys"] = np.sqrt(_state["xs"])
        _state["z"] = np.linspace(0.0, 30.0, 600)
    rng, p, xs, ys, z = (_state[k] for k in ("rng", "p", "xs", "ys", "z"))
    total, table = 0, {}
    for i in range(8000):
        table[i & 255] = total
        total += i * i
    for _ in range(100):
        rng.choice(10, p=p)
    for _ in range(100):
        np.interp(z, xs, ys)
        ndtr(z)


def reference_s() -> float:
    """Seconds the kernel takes right now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
