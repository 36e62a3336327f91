"""The symbol is the one handle.

A function that needs a symbol's critical structure takes the symbol and
fetches the structure with `critical_structure(sym)`; one that needs the
Nikishin chain takes the system alone, which carries its symbol.  Four
public functions still accept a `struct` (and `sys`) that
`perfbench/worker.py` passes them; they read nothing from it.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np

from symlab import (
    CubicParams,
    build_system,
    critical_structure,
    cubic_build,
    gen_spectrum,
    integrate,
    psi_zeros,
    s_measure,
    zeros_Q,
)
from symlab.nikishin import NikishinSystem

SRC = Path(__file__).resolve().parents[1] / "src" / "symlab"

# Functions allowed a `struct` parameter, or `sym` and `sys` together.  The
# list may only shrink: a new function that threads either fails below, and
# so does one listed here that no longer does.
FROZEN = {
    "asymptotics.gen_spectrum": "perfbench/worker.py passes struct= and sys=",
    "asymptotics.psi_zeros": "perfbench/worker.py passes sys and struct=",
    "branches.s_measure": "perfbench/worker.py passes struct",
    "polyseq.zeros_Q": "perfbench/worker.py passes struct",
}


def _threading() -> set[str]:
    """module.function for every function in src/symlab with a `struct`
    parameter or with both `sym` and `sys`."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                if "struct" in names or {"sym", "sys"} <= names:
                    found.add(f"{path.stem}.{node.name}")
    return found


def test_only_the_frozen_signatures_thread_struct_or_sys():
    assert sorted(_threading()) == sorted(FROZEN)
    assert "struct" not in {f.name for f in dataclasses.fields(NikishinSystem)}


def test_frozen_signatures_ignore_what_they_are_passed():
    # SymbolSweep's calls in perfbench/worker.py, word for word, against the
    # same calls without the arguments that are not read
    sym, _ = cubic_build(CubicParams(-3.0, -0.5))
    bare = {
        "masses": [integrate(s_measure(sym, k)).value for k in (1, 2)],
        "spectrum": gen_spectrum(sym, 20, 1),
        "zeros": zeros_Q(sym, 20),
        "psi_zeros": psi_zeros(sym, None, 20),
    }
    struct = critical_structure(sym)
    sys_ = build_system(sym)
    passed = {
        "masses": [integrate(s_measure(sym, k, struct)).value for k in (1, 2)],
        "spectrum": gen_spectrum(sym, 20, 1, struct=struct, sys=sys_),
        "zeros": zeros_Q(sym, 20, struct),
        "psi_zeros": psi_zeros(sym, sys_, 20, struct=struct),
    }
    assert np.array(passed["masses"]).tobytes() == np.array(bare["masses"]).tobytes()
    for key in ("zeros", "psi_zeros"):
        assert passed[key].size and passed[key].tobytes() == bare[key].tobytes()
    got, want = passed["spectrum"], bare["spectrum"]
    assert got.roots.size == 9 and got.roots.tobytes() == want.roots.tobytes()
    assert got.psi_zeros.tobytes() == want.psi_zeros.tobytes()
    assert got.hausdorff_to_cut == want.hausdorff_to_cut
