"""Benchmark: the convex-roof kernels and one full minimization.

Times the three hot kernels on one start (a (4, 8) decomposition) and on
a stack of 50 starts, as the lock-step search calls them, then one
default-options ``roof_minimize`` of the paper's mixture at p = 0.8.

Run:  python benchmarks/bench_kernels.py
"""
import time
import timeit

import numpy as np

import rtangle as rt
from rtangle import kernels

STACK = 50


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

    mix = rt.GhzWMixture(a=2 ** -0.5, b=2 ** -0.5, c=3 ** -0.5, d=3 ** -0.5, f=3 ** -0.5, p=0.8)
    t0 = time.perf_counter()
    res = rt.roof_minimize(mix.density(), "sqrt_tau")
    dt = time.perf_counter() - t0
    print(f"\nfull roof_minimize (default options, {res.restarts_used} restarts): "
          f"value={res.value:.9f} in {dt:.2f}s")


if __name__ == "__main__":
    main()
