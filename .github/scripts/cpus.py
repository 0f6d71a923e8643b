"""Monte Carlo with 11 chunks and an exhaustive 7-vertex distribution with
2 chunks, printed after the number of CPUs the process may use.

Run it once confined to one CPU (inline, no worker thread) and once on
every CPU, through the real affinity mask; all but the first line must
match:

    PYTHONPATH=src taskset -c 0 python .github/scripts/cpus.py
    PYTHONPATH=src python .github/scripts/cpus.py
"""
import os
import random
from itertools import combinations

from crossvar import exhaustive_distribution, monte_carlo
from crossvar.graph import Graph

print("cpus", len(os.sched_getaffinity(0)))
g = Graph(64, random.Random(0).sample(list(combinations(range(64), 2)), 128))
for seed in (0, 1, 2):
    print(monte_carlo(g, 8000, seed=seed))
g7 = Graph(7, random.Random(5).sample(list(combinations(range(7), 2)), 18))
print(exhaustive_distribution(g7))
