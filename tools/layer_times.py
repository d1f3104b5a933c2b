"""Print per-call times of the layers a training update and a query run.

Usage, from the repository root:

    PYTHONPATH=src python tools/layer_times.py

Times the chain's stream draw (`langevin._stream_words` and
`langevin._draw_streams`) and the network's passes (forward,
forward+input-grad, param-grad and `adam_update`) at the shapes a
training update and an `infer` query use: 32 rows in float64 on the toy
net [2,64,128,64,1] and the room net [3,64,128,64,1], and 512 rows in
float32, as the inference chain runs them. Each line is the median and
the interquartile range, in microseconds per call, of 7 blocks of calls
after one warm-up block. The first line records nproc, numpy, BLAS and
the thread environment. BLAS is capped at one thread before numpy is
imported, as in `perfbench/run.py`. Compare two source trees by pointing
PYTHONPATH at each in turn, alternating runs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import itertools  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402

import numpy as np  # noqa: E402

from cdrm import langevin  # noqa: E402
from cdrm.nnet import AdamState, MlpNetwork, Workspace, adam_update  # noqa: E402

BLOCKS = 7
CALLS_PER_BLOCK = 20
TRAIN_SEED = (1, 2, 0, 3)  # four words before the index, as every update's negatives
QUERY_SEED = 0  # one word before the index, as an `infer` query


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
    }


def per_call_us(call, prepare=None) -> tuple[float, float]:
    """Median and IQR over BLOCKS blocks of the mean time of one `call`;
    `prepare`, if given, runs untimed before each call."""
    blocks = []
    for _ in range(BLOCKS + 1):  # the first block warms up
        spent = 0.0
        for _ in range(CALLS_PER_BLOCK):
            if prepare is not None:
                prepare()
            t0 = time.perf_counter()
            call()
            spent += time.perf_counter() - t0
        blocks.append(spent / CALLS_PER_BLOCK * 1e6)
    q1, median, q3 = np.percentile(blocks[1:], [25, 50, 75])
    return float(median), float(q3 - q1)


def stream_layers():
    yield "_stream_words", "32 streams", partial(langevin._stream_words, TRAIN_SEED, 32), None
    yield "_stream_words", "512 streams", partial(langevin._stream_words, QUERY_SEED, 512), None
    for n, steps, d, seed in (
        (32, 10, 2, TRAIN_SEED),
        (32, 10, 3, TRAIN_SEED),
        (512, 50, 1, QUERY_SEED),
    ):
        cfg = langevin.LangevinConfig(n, steps, step_size=0.1, noise_scale=0.01)
        bounds = np.array([[-1.0, 1.0]] * d)
        draw = partial(langevin._draw_streams, cfg, bounds, seed, np.empty((n, d)))
        yield "_draw_streams", f"{n}x{steps}x{d}", draw, None


def network_layers():
    for layer_dims, rows, dtype in (
        ([2, 64, 128, 64, 1], 32, np.float64),
        ([3, 64, 128, 64, 1], 32, np.float64),
        ([2, 64, 128, 64, 1], 512, np.float32),
        ([3, 64, 128, 64, 1], 512, np.float32),
    ):
        net = MlpNetwork.initialize(layer_dims, seed=0).astype(dtype)
        x = langevin.sample_rng(1).uniform(-1.0, 1.0, (rows, layer_dims[0])).astype(dtype)
        workspace = Workspace(layer_dims, rows, dtype)
        forward = partial(net.forward_batch, x, workspace)
        shape = f"{rows} rows {np.dtype(dtype).name} {layer_dims}"
        yield "forward", shape, forward, None
        input_grad = partial(net.forward_and_grad_input_batch, x, workspace)
        yield "forward+input-grad", shape, input_grad, None
        # each param-grad call reads a forward pass, run untimed before it
        upstream, out = np.ones(rows, dtype), np.empty_like(net.params)
        yield "param-grad", shape, partial(net.grad_params_batch, workspace, upstream, out), forward
        if dtype == np.float64:
            yield "adam_update", f"{net.n_params} params", adam_steps(net), None


def adam_steps(net: MlpNetwork):
    """One `adam_update` of net per call, at the next step index."""
    state, steps = AdamState.zeros_for(net), itertools.count(1)
    grad = langevin.sample_rng(2).normal(0.0, 1e-3, net.n_params)
    return lambda: adam_update(net, grad, state, next(steps), 1e-3)


def main() -> None:
    print(json.dumps(environment(), sort_keys=True))
    print(f"{'layer':<20} {'shape':<36} {'median_us':>10} {'iqr_us':>8}")
    for name, shape, call, prepare in (*stream_layers(), *network_layers()):
        median, iqr = per_call_us(call, prepare)
        print(f"{name:<20} {shape:<36} {median:>10.1f} {iqr:>8.1f}")


if __name__ == "__main__":
    main()
