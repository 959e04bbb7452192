#!/usr/bin/env bash
# Kernel-vs-oracle benchmarks: runs the repro.vector columnar kernels
# against the scalar reference loops they replace (equivalence asserted
# in the same run) and writes the timings to BENCH_vector.json in the
# repo root.
# Also measures crash-safe storage (WAL overhead, recovery replay,
# disarmed-failpoint scans) into BENCH_storage.json, and the persistent
# column store (cold mmap open vs warm vs the killed rebuild path) into
# BENCH_colstore.json, and the always-on query service (sustained qps
# under concurrent WAL-durable ingest at 4 workers, p50/p99) into
# BENCH_server.json, and sharded fleets (cold budgeted window
# query scaling 100k -> 1M objects, evictions + resident high-water
# counter-asserted) into BENCH_shard.json.
#
# Usage: scripts/bench.sh [fleet_size]  (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

OBJECTS="${1:-10000}"

echo "== columnar kernels: pytest assertions (equivalence + speedup) =="
python -m pytest -q -p no:cacheprovider benchmarks/bench_vector.py

echo
echo "== columnar kernels: timings -> BENCH_vector.json =="
python benchmarks/bench_vector.py --objects "$OBJECTS" --json BENCH_vector.json

echo
echo "== crash-safe storage: pytest assertions (recovery equivalence) =="
python -m pytest -q -p no:cacheprovider benchmarks/bench_storage_faults.py

echo
echo "== crash-safe storage: timings -> BENCH_storage.json =="
python benchmarks/bench_storage_faults.py --json BENCH_storage.json


echo
echo "== column store: pytest assertions (cold-start counters + parity) =="
python -m pytest -q -p no:cacheprovider benchmarks/bench_colstore.py

echo
echo "== column store: cold/warm trajectory -> BENCH_colstore.json =="
python benchmarks/bench_colstore.py --objects "$OBJECTS" --json BENCH_colstore.json

echo
echo "== query service: pytest assertions (lifecycle + concurrent ingest) =="
python -m pytest -q -p no:cacheprovider benchmarks/bench_server.py

echo
echo "== query service: sustained qps under ingest -> BENCH_server.json =="
python benchmarks/bench_server.py --json BENCH_server.json

echo
echo "== sharded fleets: pytest assertions (budget + equivalence) =="
python -m pytest -q -p no:cacheprovider benchmarks/bench_shard.py

echo
echo "== sharded fleets: cold budgeted scaling -> BENCH_shard.json =="
python benchmarks/bench_shard.py --json BENCH_shard.json

echo
echo "== buffer pool: CLOCK hit rates on looping / hot-cold scans =="
python -m pytest -q -p no:cacheprovider benchmarks/bench_buffer.py
python benchmarks/bench_buffer.py

echo
echo "bench.sh: done"
