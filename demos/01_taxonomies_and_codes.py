"""Tour of the two shipped emotion taxonomies and the thermometer code.

Run:  python3 demos/01_taxonomies_and_codes.py
"""

import numpy as np

from emord import builtin_taxonomy
from emord.codec import codewords, decode_thermometer_batch, target_for
from emord.taxonomy import label_distance

# ---------------------------------------------------------------------------
# 1. A valence scale: seven emotions ordered from most negative to most
#    positive.  Distance between labels = how many rank steps apart they are.
# ---------------------------------------------------------------------------
isear = builtin_taxonomy("isear-valence")
print("isear-valence ranks:")
for label in isear.labels:
    print(f"  {isear.ranks[label]}  {label}")

print()
print("rank distances:")
for a, b in [("sadness", "shame"), ("sadness", "anger"), ("sadness", "joy"), ("fear", "joy")]:
    print(f"  d({a}, {b}) = {label_distance(isear, a, b)}")

# ---------------------------------------------------------------------------
# 2. The thermometer (cumulative) code.  Level k of K becomes K-1 bits with
#    the first k set.  The payoff: squared distance between codewords equals
#    the rank gap exactly, so a regression loss on these targets *is* a
#    distance-aware loss.
# ---------------------------------------------------------------------------
print()
print("thermometer codewords for 7 levels:")
codes = codewords(7)
for k in range(7):
    bits = "".join(str(int(b)) for b in codes[k])
    print(f"  level {k}: {bits}")

print()
print("squared codeword distance == rank gap:")
for i, j in [(0, 1), (0, 3), (2, 6)]:
    squared = float(np.sum((codes[i] - codes[j]) ** 2))
    print(f"  ||code_{i} - code_{j}||^2 = {squared:.0f}   |{i} - {j}| = {abs(i - j)}")

# Decoding picks the nearest codeword, so even a sloppy, non-monotone output
# vector maps to a definite level.  The decoder takes a batch of rows, so one
# vector goes in as a one-row batch.
noisy = np.array([0.93, 0.81, 0.64, 0.18, 0.40, 0.07])
level = decode_thermometer_batch(noisy[None])[0]
print()
print(f"noisy output {noisy.tolist()} decodes to level {level}")

# ---------------------------------------------------------------------------
# 3. A 5x5 valence/arousal grid with 23 emotion labels.  Distance between
#    labels = L1 distance between their cells (label_distance is the same L1
#    gap between coordinates on either taxonomy), and a 2d target is just two
#    thermometer codes side by side (valence half, then arousal half).
# ---------------------------------------------------------------------------
grid = builtin_taxonomy("goemotions-grid-5x5")
print()
print("goemotions-grid-5x5 cells (valence, arousal):")
by_cell = {grid.cells[label]: label for label in grid.labels}
for v in range(4, -1, -1):
    row = []
    for a in range(5):
        row.append(f"{by_cell.get((v, a), '-'):>14}")
    print(f"  v={v} " + " ".join(row))

print()
for a, b in [("grief", "sadness"), ("grief", "excitement"), ("pride", "fear")]:
    print(f"  grid d({a}, {b}) = {label_distance(grid, a, b)}")

print()
target = target_for(grid, "pride", "ordinal-2d")
print(f"ordinal-2d target for 'pride' (cell {grid.cells['pride']}):")
print(f"  valence half {target[:4].tolist()}  arousal half {target[4:].tolist()}")

# The same squared-distance law holds on the grid: MSE between two 2d targets
# equals the L1 distance between their cells.
for a, b in [("grief", "sadness"), ("grief", "excitement")]:
    ta = target_for(grid, a, "ordinal-2d")
    tb = target_for(grid, b, "ordinal-2d")
    squared = float(np.sum((ta - tb) ** 2))
    print(f"  ||target({a}) - target({b})||^2 = {squared:.0f} == grid distance {label_distance(grid, a, b)}")
