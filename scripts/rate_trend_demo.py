#!/usr/bin/env python3
"""Reduced block-channel rate trends for a phase-flip channel.

Prints the per-n reduced-channel report (counts, transmissions, output
norms) and the achievable-rate table at a chosen rate, flagging whether the
analytic penalty decays geometrically (rate + 4 eps below the coherent
information).
"""

import argparse

from qcap import channels as qch
from qcap import typicality as tp
from qcap.serialize import csv_number


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flip-probability", type=float, default=0.25)
    parser.add_argument("--rate", type=float, default=0.1)
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument("--n-min", type=int, default=2)
    parser.add_argument("--n-max", type=int, default=10)
    args = parser.parse_args()

    ch = qch.phase_flip(args.flip_probability)
    ns = range(args.n_min, args.n_max + 1)

    verification = tp.verify_reduction_bounds(ch, ns, args.epsilon)
    print("n  length  length_bound  tr_typical  tr_reduced  fro_sq  fro_bound")
    for r in verification.reports:
        print(f"{r.n:<2d} {r.length:<7d} {r.length_bound:<13.6g} "
              f"{r.typical_transmission:<11.6g} {r.transmission:<11.6g} "
              f"{r.frobenius_sq:<7.3g} {r.frobenius_bound:.3g}")
    print(f"count bounds hold: {verification.counts_within_bounds}, "
          f"norm bounds hold: {verification.norms_within_bounds}")

    table = tp.achievable_rate_table(ch, args.rate, args.epsilon, ns)
    print(f"\ncoherent information I(pi, N) = {csv_number(table.info.coherent_information)}")
    print(f"rate {args.rate} + 4 eps < I: geometric decay expected = "
          f"{table.geometric_decay_expected}")
    print("n  K_n  |N~|  transmission  penalty  bound  penalty_majorant")
    for row in table.rows:
        print(f"{row.n:<2d} {row.code_dim:<4d} {row.reduced_length:<5d} "
              f"{row.transmission:<13.6g} {row.penalty:<8.4g} "
              f"{row.bound:<8.4g} {row.penalty_majorant:.6g}")


if __name__ == "__main__":
    main()
