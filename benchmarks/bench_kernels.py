"""Benchmark: the convex-roof kernels, one search tick and two full solves.

Times the three hot kernels on one start (a (4, 8) decomposition) and on
a stack of 50 starts, as the lock-step search calls them; one tick of the
lock-step search over 5 random starts of a rank-3 state; one
default-options ``roof_minimize`` of the tau functional on the
counterexample rho = 0.8 GHZ + 0.2 W, which the rank-2 linear program
certifies without a search; and one default-options sqrt-tau
``roof_minimize`` of a random rank-3 state, which runs the full search,
with its count of batched ``roof_value_grad`` calls.

Run:  python benchmarks/bench_kernels.py
"""
import time
import timeit

import numpy as np

import rtangle as rt
from rtangle import kernels, roof

STACK = 50
TICK_STARTS = 5
TICKS = 50


def bench_micro(name, fn, *args, per=1, repeat=5, number=400):
    best = min(timeit.repeat(lambda: fn(*args), repeat=repeat, number=number))
    per_call = best / number * 1e6
    print(f"  {name:<24} {per_call:9.2f} us/call  {per_call / per:7.2f} us/start")
    return per_call


def main():
    rng = np.random.default_rng(0)
    W = rng.standard_normal((STACK, 4, 8)) + 1j * rng.standard_normal((STACK, 4, 8))
    A = rng.standard_normal((STACK, 4, 2)) + 1j * rng.standard_normal((STACK, 4, 2))
    eps = np.full(STACK, 1e-6)

    print("one start:")
    bench_micro("hyperdet_rows", kernels.hyperdet_rows, W[0])
    bench_micro("roof_value_grad", kernels.roof_value_grad, W[0], True, 1e-6)
    bench_micro("polar_retract", kernels.polar_retract, A[0])
    print(f"stack of {STACK} starts:")
    bench_micro("hyperdet_rows", kernels.hyperdet_rows, W, per=STACK)
    bench_micro("roof_value_grad", kernels.roof_value_grad, W, True, eps, per=STACK)
    bench_micro("polar_retract", kernels.polar_retract, A, per=STACK)

    # one tick: mean over the first TICKS ticks of a fresh batch, min of repeats
    z = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    B = roof._eigen_factor(rt.DensityMatrix(z @ z.conj().T / np.trace(z @ z.conj().T).real))
    U0 = np.array([np.linalg.qr(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))[0]
                   for _ in range(TICK_STARTS)])
    best = np.inf
    for _ in range(5):
        batch = roof._LockStep(U0, [roof._COARSE_SCHEDULE] * TICK_STARTS, B, True,
                               rt.RoofOptions())
        batch._begin(np.arange(TICK_STARTS))
        t0 = time.perf_counter()
        for _ in range(TICKS):
            batch._tick()
        best = min(best, time.perf_counter() - t0)
    print(f"lock-step tick, {TICK_STARTS} starts: {best / TICKS * 1e6:9.2f} us/tick")

    rho = rt.ensemble_to_density(rt.counterexample_fixture().ensemble)
    t0 = time.perf_counter()
    res = rt.roof_minimize(rho, "tau")
    dt = time.perf_counter() - t0
    print(f"\nroof_minimize, tau of the counterexample rho (default options, linear program, "
          f"{res.restarts_used} restarts): value={res.value:.9f} "
          f"lower_bound={res.lower_bound:.9f} in {dt * 1e3:.1f} ms")

    z = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    rho3 = rt.DensityMatrix(z @ z.conj().T / np.trace(z @ z.conj().T).real)
    calls, grad = [0], kernels.roof_value_grad

    def counted(*args):
        calls[0] += 1
        return grad(*args)

    kernels.roof_value_grad = counted  # one call per lock-step tick or level opening
    try:
        t0 = time.perf_counter()
        res = rt.roof_minimize(rho3, "sqrt_tau")
        dt = time.perf_counter() - t0
    finally:
        kernels.roof_value_grad = grad
    print(f"roof_minimize, sqrt-tau of a random rank-3 rho (default options, search, "
          f"{res.restarts_used} restarts): value={res.value:.9f} in {dt:.2f}s, "
          f"{calls[0]} roof_value_grad calls")

if __name__ == "__main__":
    main()
