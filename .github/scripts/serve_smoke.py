#!/usr/bin/env python
"""CI smoke test for ``repro-migrate serve``.

Boots a real server subprocess with a persistent store and a trace,
fires 50 concurrent client requests (duplicate-heavy) at it, asserts
every one succeeds with consistent plan bytes, checks that a
``general`` request after an ``auto`` one for the same instance gets
the direct ``general`` plan's bytes, scrapes ``/metrics``, then
SIGTERMs the server and asserts a clean graceful-drain exit 0 with the
store flushed.

Run:  python .github/scripts/serve_smoke.py
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import threading

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro.pipeline import plan  # noqa: E402
from repro.serve.client import PlanClient  # noqa: E402
from repro.serve.protocol import canonical_json, schedule_payload  # noqa: E402
from repro.workloads.generators import random_instance  # noqa: E402
from repro.workloads.io import (  # noqa: E402
    instance_from_json,
    instance_to_json,
)

REQUESTS = 50
DISTINCT = 5


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="serve-smoke-")
    store = os.path.join(tmp, "plans.sqlite")
    trace = os.path.join(tmp, "serve.jsonl")

    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--store", store, "--trace-out", trace,
            "--concurrency", "2",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    try:
        banner = server.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", banner)
        assert match, f"no listen banner in {banner!r}"
        host, port = match.group(1), int(match.group(2))
        print(f"server up at {host}:{port}")

        instances = [
            instance_from_json(
                instance_to_json(
                    random_instance(num_disks=10, num_items=60, seed=seed)
                )
            )
            for seed in range(DISTINCT)
        ]
        outcomes = [None] * REQUESTS
        errors = []

        def worker(k: int) -> None:
            try:
                client = PlanClient(host, port, client_id=f"smoke-{k}")
                outcomes[k] = client.plan(instances[k % DISTINCT])
            except Exception as exc:  # noqa: BLE001 - report, don't die
                errors.append((k, exc))

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(REQUESTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors, f"{len(errors)} requests failed: {errors[:3]}"
        assert all(o is not None for o in outcomes)
        by_fp = {}
        for o in outcomes:
            by_fp.setdefault(o.fingerprint, set()).add(o.plan_bytes)
        assert len(by_fp) == DISTINCT, f"expected {DISTINCT} fingerprints"
        assert all(len(plans) == 1 for plans in by_fp.values()), (
            "duplicates must receive identical plan bytes"
        )
        coalesced = sum(1 for o in outcomes if o.coalesced)
        print(f"all {REQUESTS} requests succeeded; {coalesced} coalesced")

        # One component, no idle disk, and the auto and general paths
        # plan it differently: each request must get its own plan, not
        # the other path's cache entry.
        inst = instance_from_json(
            instance_to_json(
                random_instance(
                    10, 120, capacities={1: 0.6, 2: 0.2, 3: 0.2}, seed=23
                )
            )
        )
        client = PlanClient(host, port, client_id="smoke-keys")
        auto = client.plan(inst, method="auto")
        general = client.plan(inst, method="general")
        direct = canonical_json(schedule_payload(inst, plan(inst, "general").schedule))
        assert general.plan_bytes == direct, "general after auto is not its own plan"
        assert auto.plan_bytes != general.plan_bytes
        print("general after auto: direct general bytes")

        metrics = PlanClient(host, port).metrics_text()
        assert "repro_serve_requests_admitted" in metrics
        assert "repro_serve_requests_completed" in metrics
        print("metrics scrape OK")

        health = PlanClient(host, port).health()
        assert health["status"] == "ok", health

        # SIGTERM the server process itself: graceful drain, exit 0.
        server.send_signal(signal.SIGTERM)
        code = server.wait(timeout=60)
        assert code == 0, f"server exited {code}, expected clean drain 0"
        print("SIGTERM drain: exit 0")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    assert os.path.exists(store), "plan store was not flushed"
    assert os.path.getsize(store) > 0

    # The server trace merges with an offline plan trace in one report.
    plan_trace = os.path.join(tmp, "plan.jsonl")
    workload = os.path.join(tmp, "w.json")
    for argv in (
        ["generate", workload, "--disks", "10", "--items", "60"],
        ["plan", workload, "--json", "--trace-out", plan_trace],
        ["stats", trace, plan_trace, "--validate"],
    ):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert result.returncode == 0, f"repro-migrate {argv[0]} failed"
    print("merged stats --validate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
