"""The server process of the service benchmark.

Run by ``svcbench/run.py``, never by hand.  Protocol over the pipes:

1. stdin carries one length-prefixed pickle: the workload spec and its
   generated inputs (numpy arrays, see ``inputs.encode``);
2. the process rebuilds the fleet or relation, registers it with a
   ``FleetExecutor``, starts a ``QueryServer`` on an ephemeral port and
   prints ``READY <port>``;
3. it serves until a line arrives on stdin (or stdin closes), then
   shuts the server down gracefully;
4. it finally writes one length-prefixed pickle to stdout: its peak
   resident memory and, in a traced run, the recorded spans and
   counters.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import resource
import struct
import sys
from typing import Any, Dict, Optional

_LEN = struct.Struct("<Q")


def read_blob(stream: Any) -> Any:
    (size,) = _LEN.unpack(stream.read(_LEN.size))
    return pickle.loads(stream.read(size))


def write_blob(stream: Any, obj: Any) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_LEN.pack(len(data)))
    stream.write(data)
    stream.flush()


def build(spec: Dict[str, Any]) -> Any:
    """The executor holding the spec's fleet or relation."""
    from repro import shard as shardmod
    from repro.server.executor import FleetExecutor

    import inputs

    mappings = inputs.decode(spec["offsets"], spec["units"])
    if spec["read"] == "sql":
        return FleetExecutor(inputs.planes_database(mappings))
    executor = FleetExecutor()
    if spec["shards"] > 1:
        shardmod.set_memory_budget(spec["budget"])
    executor.register_fleet("fleet", mappings, index=True,
                            shards=spec["shards"])
    return executor


async def serve(spec: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    from repro import obs
    from repro.server.session import QueryServer
    from repro.storage.wal import Wal

    executor = build(spec)
    wal = Wal(spec["wal_path"]) if spec["wal_path"] else None
    recorder = None
    server_cls = QueryServer
    if spec["trace"]:
        import spans

        obs.enable()  # so STATS carries the program's own counters
        recorder = spans.Recorder()
        spans.install(recorder, executor, wal)
        server_cls = spans.traced_server_class(recorder)
    server = server_cls(executor, wal=wal)
    await server.start()
    print(f"READY {server.port}", flush=True)
    try:
        await asyncio.to_thread(sys.stdin.readline)
    finally:
        await server.stop()
        if wal is not None:
            wal.close()
    return recorder.dump() if recorder is not None else None


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    spec = read_blob(sys.stdin.buffer)
    dump = asyncio.run(serve(spec))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    write_blob(sys.stdout.buffer, {"maxrss_kb": peak_kb, "trace": dump})
    return 0


if __name__ == "__main__":
    sys.exit(main())
