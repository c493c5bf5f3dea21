"""Closed-form kernel versus direct quadrature, and a non-exponential slit.

The production kernel is a finite sum over angular harmonics (exact integer
harmonic tables times a closed-form radial factor), valid only for the
exponential slit density; its independent check is brute-force 2D quadrature of the
defining polar integral.  This script cross-validates a random sample of
kernel indices, then shows the quadrature route handling a tabulated
(Gaussian) slit, where the ring location stays at sqrt(n) lam even though
the closed form no longer applies.

Run:  python demos/04_kernel_crosscheck.py
"""

import math

import numpy as np

from crosscavity import (
    CouplingParams,
    KernelIndices,
    MomentumPoint,
    QuadratureOracle,
    SlitProfile,
    fourier_analytic,
)

params = CouplingParams(lam=20.0, k_delta_r=0.1)
oracle = QuadratureOracle(params)
rng = np.random.default_rng(42)

print("random kernel-index sample, closed form vs quadrature:")
print(f"{'N':>3} {'m':>3} {'n':>3} {'eps':>4} {'br':>3} {'p':>8} {'|F|':>10} {'rel err':>9}")
worst = 0.0
for _ in range(12):
    total = int(rng.integers(1, 5))
    eps = str(rng.choice(["g", "e"]))
    low = 1 if eps == "e" else 0
    m = int(rng.integers(low, total + 1))
    n = int(rng.integers(max(low, 1) if eps == "e" else 0, total + 1))
    branch = int(rng.choice([1, -1]))
    idx = KernelIndices(total, m, n, eps, branch)
    pt = MomentumPoint(float(rng.uniform(0, 2 * math.sqrt(total) * params.lam)),
                       float(rng.uniform(0, 2 * math.pi)))
    fa = fourier_analytic(idx, pt, params)
    fn = oracle.fourier(idx, pt)
    rel = abs(fa - fn) / max(abs(fn), 1e-12)
    worst = max(worst, rel)
    print(f"{total:>3} {m:>3} {n:>3} {eps:>4} {branch:>+3} {pt.p_mag:8.2f} {abs(fn):10.3e} {rel:9.2e}")
print(f"worst relative disagreement: {worst:.2e}\n")

print("Gaussian slit (tabulated), ring location scan for the n = 1 channel:")
rho = np.linspace(0.0, 2.0, 4000)
gauss = SlitProfile.tabulated(rho, np.exp(-((rho / 0.25) ** 2)))
g_oracle = QuadratureOracle(params, profile=gauss)
idx = KernelIndices(1, 1, 1, "e", 1)
radii = np.linspace(10.0, 30.0, 41)
mags = np.abs(g_oracle.fourier(idx, MomentumPoint(radii, np.zeros_like(radii))))
peak = radii[int(np.argmax(mags))]
width = 0.5 / params.k_delta_r
print(f"|F| maximal at p = {peak:.2f}; ring prediction sqrt(1) lam = {params.lam},")
print(f"slit-diffraction width ~ 1/(2 k_delta_r) = {width:.0f}.  The ring stays")
print("pinned to the coupling within a slit width, whatever the slit shape.")
