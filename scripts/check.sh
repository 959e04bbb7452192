#!/usr/bin/env bash
# Tier-1 verification: the full test suite plus a fast operation-counter
# smoke of the Section-5.1 benchmark (asserts the O(log n) probe claim
# by exact count, no wall-clock flakiness, no pytest-benchmark flags).
#
# Usage: scripts/check.sh  (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: test suite =="
python -m pytest -x -q

echo
echo "== dynlock witness: full suite with the lock-order graph armed =="
# REPRO_DYNLOCK=1 swaps every dynlock.rlock() site for an instrumented
# lock; any lock-order inversion witnessed anywhere in the suite raises
# LockOrderError at the offending acquire (see repro.analysis.dynlock).
REPRO_DYNLOCK=1 python -m pytest -x -q -p no:cacheprovider

echo
echo "== tier-1: counter-assertion smoke (benchmarks, -k counter) =="
python -m pytest -q -p no:cacheprovider benchmarks/bench_alg_atinstant.py -k counter


echo
echo "== column-store cold-start smoke (populated store, no rebuild) =="
python -m pytest -q -p no:cacheprovider benchmarks/bench_colstore.py -k smoke

echo
echo "== query-service smoke (start -> ingest -> query -> shutdown) =="
python -m pytest -q -p no:cacheprovider benchmarks/bench_server.py -k smoke

echo
echo "== sharded-backend smoke (2 shards, tiny budget, equivalence) =="
python -m pytest -q -p no:cacheprovider benchmarks/bench_shard.py -k smoke
python -m pytest -q -p no:cacheprovider tests/test_shard.py -k smoke

echo
echo "== repro-lint (stdlib AST checker, always on) =="
python -m repro.analysis src

echo
echo "== repro-lint: concurrency & durability family (MOD007-MOD009) =="
# Redundant with the full run above, but kept as an explicit gate so a
# future rule-selection change can never silently drop the family.
python -m repro.analysis --select MOD007,MOD008,MOD009 src

echo
echo "== crash-matrix smoke (every registered failpoint, fixed seed) =="
python -m repro crash-matrix --seed 2000

echo
echo "== chaos-matrix smoke (live faults: drops, stalls, kills, dups) =="
python -m repro chaos-matrix --quick --seed 2026

echo
echo "== lint (ruff, skipped when not installed) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks
else
    echo "ruff not installed; skipping lint"
fi

echo
echo "== types (mypy --strict on the gated packages, skipped when not installed) =="
if command -v mypy >/dev/null 2>&1; then
    mypy --strict -p repro.temporal -p repro.ranges -p repro.geometry -p repro.vector
else
    echo "mypy not installed; skipping type check"
fi

echo
echo "check.sh: all green"
