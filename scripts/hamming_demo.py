#!/usr/bin/env python3
"""Random-code fidelity of an 8-qubit two-unitary mixture channel.

Builds the channel rho -> (U1 rho U1^dagger + U2 rho U2^dagger)/2 on 2^8
dimensions (builtin:random_unitary:256,2,SEED), samples Haar-random
2-dimensional codes, and compares the Monte Carlo mean of the per-code bound
p - ||D||_1 with the analytic ensemble bound 1 - sqrt(K |N| / |Q'|) = 0.875.
"""

import argparse
import math

from qcap import channels as qch
from qcap import cli
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
    spec = f"builtin:random_unitary:{dim},2,{args.seed}"
    ch = cli.resolve_channel(argparse.Namespace(channel=spec, master_seed=args.seed))

    analytic = rc.closed_forms(ch, args.code_dim).fidelity_bound
    _, est = rc.mc_code_values(ch, args.code_dim, args.samples, args.seed)
    closed = 1.0 - math.sqrt(args.code_dim * 2 / dim)

    print(f"channel: {ch.name}, |Q'| = {dim}, |N| = {qch.classify(ch).length}")
    print(f"analytic ensemble bound : {csv_number(analytic)}")
    print(f"closed form 1-sqrt(K|N|/|Q'|): {csv_number(closed)}")
    print(f"MC mean of p - ||D||_1  : {csv_number(est.mean)} "
          f"(se {csv_number(est.std_error)}, {est.sample_count} codes)")
    print(f"mean - (bound - 4 se)   : {csv_number(est.mean - (closed - 4 * est.std_error))}")


if __name__ == "__main__":
    main()
