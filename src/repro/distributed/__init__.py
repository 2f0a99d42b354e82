"""Distributed campaign execution over HTTP (stdlib only).

One machine runs ``campaign serve``: an HTTP *result server* fronting the
campaign's :class:`~repro.store.result_store.ResultStore` plus a
pull-based *work queue* holding the campaign scheduler's picklable value
tasks.  Any number of machines run ``campaign work --server URL``: each
worker leases one task at a time, heartbeats while it computes, and
publishes the result back.  A paper-scale value also reads and writes
its iteration checkpoints through the :class:`~repro.distributed.
remote_store.RemoteResultStore` client — the only store verbs on the
wire; rows, poison records and every maintenance verb stay on the
serving host's local store.  A lease whose worker falls silent
(SIGKILL, power loss, network partition) expires and the task is
re-enqueued under the campaign's existing :class:`~repro.supervision.
RetryPolicy` charging and backoff; exhausted tasks become the store's
ordinary poison records.

Because workers execute exactly the task closures the in-process
scheduler would submit to its pool — same measure, same value, same
checkpoint keys — an N-worker loopback run is bit-identical to the
single-host scheduler: same store keys, same row bytes, and a warm
re-run computes nothing.
"""

from repro.distributed.campaign import DistributedCampaign, serve_campaign
from repro.distributed.queue import WorkQueue
from repro.distributed.remote_store import RemoteResultStore, RemoteStoreError
from repro.distributed.server import ResultServer
from repro.distributed.worker import QueueClient, run_worker

__all__ = [
    "DistributedCampaign",
    "QueueClient",
    "RemoteResultStore",
    "RemoteStoreError",
    "ResultServer",
    "WorkQueue",
    "run_worker",
    "serve_campaign",
]
