"""Watch the shifted-section eigenvalues flow onto the second cut.

For the (0,7,3) symbol the first generalized spectrum lives on the ray
(-inf, -5].  This sweeps n, prints the roots of P_{n,1} bracketed by the
zeros of the second-type function, and tracks the sup distance between
the empirical root CDF and the limiting counting measure s_2.

Usage: python3 scripts/spectral_flow.py [nmax]
"""

import sys

import numpy as np

from symlab import (
    build_symbol,
    counting_compare,
    critical_structure,
    gen_spectrum,
    multi_index,
    psi_zeros,
)


def main():
    nmax = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    sym = build_symbol(2, (0.0, 7.0, 3.0))
    struct = critical_structure(sym)
    lam2 = struct.cut(2).finite_end

    print(f"# symbol (0,7,3), Gamma_2 = (-inf, {lam2}]")
    print(f"{'n':>4} {'count':>6} {'innermost':>12} {'outermost':>12} {'gap to cut':>11}")
    for n in range(6, nmax + 1, 2):
        rep = gen_spectrum(sym, n, 1)
        want = sum(multi_index(n, 2).components[1:]) - 1
        assert rep.roots.size == want, (n, rep.roots.size, want)
        gap = float(lam2 - rep.roots.max())
        print(
            f"{n:>4} {rep.roots.size:>6} {rep.roots.max():>12.5f}"
            f" {rep.roots.min():>12.2f} {gap:>11.2e}"
        )

    window = (lam2 - 3.0 * struct.cut(1).scale(), lam2)
    print(f"\n# CDF distance to s_2 on window [{window[0]:.2f}, {window[1]:.2f}]")
    for n in (20, 40, 60):
        rep = gen_spectrum(sym, n, 1)
        d = counting_compare(sym, rep.roots, 1, window=window)
        print(f"{n:>4} {d:>10.4f}")

    print("\n# interlacing snapshot at n = 12")
    n = 12
    zs = psi_zeros(sym, None, n)
    rep = gen_spectrum(sym, n, 1)
    merged = []
    for i, r in enumerate(rep.roots):
        merged.append(("psi", zs[i]))
        merged.append(("P", r))
    merged.append(("psi", zs[-1]))
    for tag, v in merged:
        print(f"  {tag:>4} {v:>12.5f}")


if __name__ == "__main__":
    main()
