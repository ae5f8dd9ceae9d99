"""Avalanche in a 64-bit toy SPN: how many rounds until one flipped bit
looks like 32 flipped bits?"""

import numpy as np

import sboxkit as sk
from sboxkit import spn

TRIALS = 2000
SEED = 2024

aes = sk.SBox(8, np.array(sk.AES_SBOX))

# one pair set for every run: S-box and round comparisons are apples-to-apples
pairs = spn.generate_pairs(TRIALS, SEED)

# one plaintext bit in, mean ciphertext Hamming distance out
print(f"AES core, {TRIALS} trials per round count")
print("rounds  mean flips   |mean - 32|")
for rounds in (0, 1, 2, 3, 4, 6, 8, 12):
    cfg = spn.SpnConfig(sbox=aes, rounds=rounds)
    rep = spn.avalanche_experiment(cfg, pairs)
    print(f"{rounds:6d}  {float(rep.mean_flips):10.4f}   {float(rep.distance_from_32):.6f}")

weak = sk.SBox(8, np.arange(256))  # identity: no confusion at all
rng_box = sk.random_permutation(np.random.default_rng(3), 256)

print()
print("distance from 32 at a fixed pair set, by S-box")
print("rounds      aes     random   identity")
for rounds in (2, 4, 8):
    row = [f"{rounds:6d}"]
    for box in (aes, rng_box, weak):
        cfg = spn.SpnConfig(sbox=box, rounds=rounds)
        rep = spn.avalanche_experiment(cfg, pairs)
        row.append(f"{float(rep.distance_from_32):9.5f}")
    print(" ".join(row))

# the identity S-box never diffuses at all: XOR and bit moves both carry a
# one-bit difference through unchanged, so without a nonlinear layer the
# flipped bit just wanders the block forever
cfg = spn.SpnConfig(sbox=weak, rounds=12)
rep = spn.avalanche_experiment(cfg, pairs)
print()
print("identity S-box, 12 rounds:", float(rep.mean_flips),
      "mean flips; the difference is still a single bit")
