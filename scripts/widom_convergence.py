"""Geometric convergence of the scaled second-type functions.

The Widom sums predict |Psi_{n,l} a_p z_l^{n+1} prod(z_k - z_l) + 1| to
shrink like |z_l / z_{l+1}|^n.  This prints the deviation against n for
the two desk symbols together with the predicted contraction factor.
"""

import numpy as np

from symlab import build_symbol, solve_grid, widom_psi

PROBES = {
    "(0,1/4)": (build_symbol(1, (0.0, 0.25)), 2.0 + 0.5j),
    "(0,7,3)": (build_symbol(2, (0.0, 7.0, 3.0)), 10.0 + 5.0j),
}


def main():
    for label, (sym, lam) in PROBES.items():
        z = solve_grid(sym, [lam])[0]
        print(f"# {label} at lambda = {lam}")
        for l in range(sym.p + 1):
            contraction = abs(z[l] / z[l + 1]) if l + 1 <= sym.p else None
            # n -> infinity limit of z_l^{n+1} Psi_{n,l}
            limit = (-1.0) ** (sym.p + 1) / sym.a[sym.p] / np.prod(z[l + 1 :] - z[l])
            values = np.array([z[l] ** (n + 1) * widom_psi(sym, n, l, lam)
                               for n in range(2, 26, 4)])
            devs = np.abs(values - limit) / abs(limit)
            line = " ".join(f"{d:.1e}" for d in devs)
            tail = f" contraction |z_{l}/z_{l+1}| = {contraction:.4f}" if contraction else ""
            print(f"  l={l}: rel devs {line}{tail}")
        print()


if __name__ == "__main__":
    main()
