# Demo 1: temporally-constrained sequence matching.
#
# Two noisy renderings of the same motion get aligned frame-by-frame by an
# exact trellis dynamic program. The objective charges squared feature
# distance for each match, plus penalties for chronology violations,
# one-to-many repeats, and gaps; frames with no good counterpart can opt
# out into the outlier state 0.

import numpy as np

import seqrep as sr

# 1. A toy motion: a dot sweeping along a circle, observed twice.
#    The second pass runs at a different speed and carries extra noise.
rng = sr.RngState(7)
g = rng.gen

t_query = np.linspace(0, 2 * np.pi, 24, endpoint=False)
t_target = np.linspace(0, 2 * np.pi, 30, endpoint=False) ** 1.15 / (2 * np.pi) ** 0.15
query = np.stack([np.cos(t_query), np.sin(t_query)], axis=1)
target = np.stack([np.cos(t_target), np.sin(t_target)], axis=1)
query = query + 0.05 * g.normal(size=query.shape)
target = target + 0.05 * g.normal(size=target.shape)

# 2. Solve exactly. Penalties default to multiples of the mean pairwise
#    distance, so they adapt to the feature scale.
penalties = sr.default_penalties(query, target)
solution = sr.solve_exact_dp(query, target, penalties)

print("assignment (0 = outlier):")
print(" ", solution.pi.tolist())
print(f"total cost {solution.total_cost:.4f}")

# 3. The solution is the global optimum: brute-force enumeration agrees.
brute = sr.solve_bruteforce(query[:5], target[:4], penalties)
exact = sr.solve_exact_dp(query[:5], target[:4], penalties)
print(f"\n5x4 sub-instance: dp={exact.total_cost:.6f} brute={brute.total_cost:.6f}")

# 4. An independent scorer audits any assignment, term by term.
audit = sr.alignment_cost(query, target, solution.pi, penalties)
print(f"\nbreakdown: data={audit.data:.4f} outlier={audit.outlier:.4f} "
      f"order={audit.order:.4f} duplicate={audit.duplicate:.4f} gap={audit.gap:.4f}")
print(f"auditor agrees: {abs(audit.total - solution.total_cost) < 1e-9}")

# 5. Long targets are split into chunks and each chunk is solved
#    independently under one set of penalties; a length-1 remainder merges
#    into the previous chunk.
long_target = np.tile(target, (3, 1))
per_chunk = sr.match_features(query, long_target,
                              sr.default_penalties(query, long_target), chunk_len=40)
print(f"\n{len(long_target)}-frame target at chunk_len=40 "
      f"-> {len(per_chunk)} chunk matchings at offsets "
      f"{[m.target_offset for m in per_chunk]}")
