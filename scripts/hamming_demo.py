#!/usr/bin/env python3
"""Random-code fidelity of an 8-qubit two-unitary mixture channel.

Draws a channel rho -> (U1 rho U1^dagger + U2 rho U2^dagger)/2 on 2^8
dimensions, samples Haar-random 2-dimensional codes, and compares the Monte
Carlo mean of the per-code bound p - ||D||_1 with the analytic ensemble
bound 1 - sqrt(K |N| / |Q'|) = 0.875.
"""

import argparse
import math

from qcap import channels as qch
from qcap import linalg
from qcap import random_coding as rc
from qcap.serialize import csv_number


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qubits", type=int, default=8)
    parser.add_argument("--code-dim", type=int, default=2)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=505)
    args = parser.parse_args()

    dim = 2**args.qubits
    rng = rc.sample_stream(args.seed, 1 << 48)
    unitaries = [linalg.haar_unitary(dim, rng) for _ in range(2)]
    ch = qch.random_unitary_channel(unitaries, name=f"{args.qubits}-qubit mixture")

    analytic = rc.closed_forms(ch, args.code_dim).fidelity_bound
    est = rc.mc_average_bound(ch, args.code_dim, args.samples, args.seed)
    closed = 1.0 - math.sqrt(args.code_dim * 2 / dim)

    print(f"channel: {ch.name}, |Q'| = {dim}, |N| = {qch.minimal_length(ch)}")
    print(f"analytic ensemble bound : {csv_number(analytic)}")
    print(f"closed form 1-sqrt(K|N|/|Q'|): {csv_number(closed)}")
    print(f"MC mean of p - ||D||_1  : {csv_number(est.mean)} "
          f"(se {csv_number(est.std_error)}, {est.sample_count} codes)")
    print(f"mean - (bound - 4 se)   : {csv_number(est.mean - (closed - 4 * est.std_error))}")


if __name__ == "__main__":
    main()
