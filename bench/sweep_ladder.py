"""Seconds per cocycle check, swept and certified side by side, and peak RSS over group orders.

    PYTHONPATH=src python3 bench/sweep_ladder.py [--order N]

Each order runs in a fresh process, so its peak RSS is its own; --order runs
one order in this process instead. A point builds phi, the Levi-Civita
tricharacter on the last three coordinates (`setup_s`). It times each check
`repeats` times and reports median seconds. `sweep_s` runs each check as an
exhaustive sweep on its own fresh plain Cochain3 copy of phi's table:
  is_cocycle3                  delta phi = 0 over every (w, x, y, z);
  check_multiplier_relation    the phi-multiplier relation over every (a, b, c, entry),
                               which is delta phi = 0 reindexed: a cold call costs
                               one cocycle sweep, a call after is_cocycle3 none;
  associativity_cocycle_sweep  the multiplier combination over every (xi, eta, zeta, x);
  cocycle3_witness             the first failing quadruple of phi plus one entry 1/m
                               at the three generators, an early-exit search.
`certificate_s` runs the first three on phi itself, which a Tricharacter
answers from its tensor without a sweep; the answers must equal the swept ones.
`ns_per_cell` divides the three full sweeps of `sweep_s` by the n^4 cells each
visits. `table_mb` is the size of one plain n^3 table over m, phi's (stored
in the narrowest type that holds m - 1, as the plain copy is). `buffer_mb` is
what a full sweep holds beside it: its two block buffers (`cochains._sweep`,
blocks of first-slot indices sized to `cochains._SWEEP_BYTES`) plus the
combination sweep's transposed copy of the table, all in the sweep's type.
`peak_rss_mb` is the process's peak RSS after the checks. One JSON line per order.

The rungs with no repeats (|G| = 256 and 512) measure memory only: they build
the plain copy and its sum with the bump once and run the early-exit
`cocycle3_witness` on the sum, with no full n^4 sweep and no certificates.
"""

import statistics
import time

import ladder

LADDER = {  # order -> (factors, modulus, repeats); no repeats: memory only
    8: ([2, 2, 2], 2, 20),
    16: ([2, 2, 4], 2, 20),
    64: ([4, 4, 4], 4, 5),
    128: ([2, 4, 4, 4], 4, 3),
    256: ([4, 4, 4, 4], 4, 0),
    512: ([2, 4, 4, 4, 4], 4, 0),
}
FULL_SWEEPS = ("is_cocycle3", "check_multiplier_relation", "associativity_cocycle_sweep")


def timed(fn, arg):
    start = time.perf_counter()
    result = fn(arg)
    return result, time.perf_counter() - start


def point(order):
    import natorus as nt
    from natorus.cochains import _SWEEP_BYTES, _sweep_dtype
    from natorus.twisted_algebra import levi_civita

    factors, m, repeats = LADDER[order]
    start = time.perf_counter()
    group = nt.make_group(factors)
    phi = nt.Tricharacter(group, levi_civita(group.rank), m)
    setup_s = time.perf_counter() - start
    units = [tuple(int(a == axis) for a in range(group.rank)) for axis in range(group.rank)]
    bump = nt.Cochain3.from_entries(group, [(tuple(units[-3:]), f"1/{m}")])

    witness = tuple(units[-1:] + units[-3:])  # (c, a, b, c)
    table_mb = phi.table.nbytes / 2**20
    swept_bytes = order**3 * _sweep_dtype(m, 5).itemsize  # one n^3 table in the sweep's type
    blocks = min(max(1, _SWEEP_BYTES // swept_bytes), order - 1)
    buffer_mb = (2 * blocks + 1) * swept_bytes / 2**20
    if not repeats:
        bumped = nt.Cochain3(group, phi.table, m) + bump
        result, seconds = timed(nt.cocycle3_witness, bumped)
        if tuple(e.coords for e in result) != witness:
            raise SystemExit(f"order {order}: swept cocycle3_witness returned {result}")
        return {
            "order": order,
            "factors": factors,
            "den": m,
            "repeats": repeats,
            "setup_s": setup_s,
            "sweep_s": {"cocycle3_witness": seconds},
            "table_mb": table_mb,
            "buffer_mb": buffer_mb,
            "peak_rss_mb": ladder.peak_rss_mb(),
        }

    expected = {name: None for name in FULL_SWEEPS}
    expected["is_cocycle3"] = True
    expected["cocycle3_witness"] = witness
    swept = {name: [] for name in expected}
    certified = {name: [] for name in FULL_SWEEPS}
    for _ in range(repeats):
        # A fresh plain copy per sweep and repeat: the cocycle sweep is cached
        # per cochain, and check_multiplier_relation reads it.
        for name in expected:
            plain = nt.Cochain3(group, phi.table, m)
            if name == "cocycle3_witness":
                plain = plain + bump
            result, seconds = timed(getattr(nt, name), plain)
            swept[name].append(seconds)
            if name == "cocycle3_witness":
                result = tuple(e.coords for e in result)
            if result != expected[name]:
                raise SystemExit(f"order {order}: swept {name} returned {result}")
        for name in FULL_SWEEPS:
            result, seconds = timed(getattr(nt, name), phi)
            certified[name].append(seconds)
            if result != expected[name]:
                raise SystemExit(f"order {order}: certified {name} returned {result}")
    sweep_s = {name: statistics.median(v) for name, v in swept.items()}
    return {
        "order": order,
        "factors": factors,
        "den": m,
        "repeats": repeats,
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "certificate_s": {name: statistics.median(v) for name, v in certified.items()},
        "ns_per_cell": {name: sweep_s[name] / order**4 * 1e9 for name in FULL_SWEEPS},
        "table_mb": table_mb,
        "buffer_mb": buffer_mb,
        "peak_rss_mb": ladder.peak_rss_mb(),
    }


if __name__ == "__main__":
    ladder.main(__file__, __doc__, LADDER, point)
