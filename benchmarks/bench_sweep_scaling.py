"""Benchmark of the columnar payloads.

How much smaller does the columnar result container
(:class:`repro.simulation.results.FrameStatisticsColumns`) pickle than
the per-frame object list it replaced — the payload that crosses the
worker-process boundary and the store codecs?  Scaling a sweep over a
worker budget is measured by ``bench_campaign_scheduler.py``.

The workload size follows ``REPRO_BENCH_SCALE`` (``smoke`` by default).
"""

import pickle

from repro.simulation.config import MobilitySpec, NetworkConfig, SimulationConfig
from repro.simulation.results import FrameStatistics
from repro.simulation.runner import collect_frame_statistics

from _helpers import bench_scale_name


def _payload_config() -> SimulationConfig:
    steps = 2_000 if bench_scale_name() == "smoke" else 10_000
    side = 1024.0
    return SimulationConfig(
        network=NetworkConfig(node_count=32, side=side, dimension=2),
        mobility=MobilitySpec.paper_drunkard(side),
        steps=steps,
        iterations=1,
        seed=20020623,
    )


def test_pickled_payload_sizes():
    """The columnar container must beat the object list it replaced.

    The frame statistics keep their float64 breakpoint ranges bit-exact,
    so their payload shrinks by the per-object overhead only (the number
    of pickled *objects* drops from one per step to a handful of arrays).
    """
    config = _payload_config()

    statistics = collect_frame_statistics(config)[0]
    frame_objects = [
        FrameStatistics(frame.critical_range, frame.component_curve, frame.node_count)
        for frame in statistics
    ]
    columnar = len(pickle.dumps(statistics))
    objects = len(pickle.dumps(frame_objects))
    frame_ratio = objects / columnar
    print(f"\nframe-statistics payload ({config.steps} steps): "
          f"objects {objects / 1024:.1f} KiB, columnar {columnar / 1024:.1f} KiB, "
          f"{frame_ratio:.1f}x smaller")
    assert frame_ratio >= 1.3, (
        f"expected >= 1.3x smaller frame-statistics payload, got {frame_ratio:.1f}x"
    )
    assert pickle.loads(pickle.dumps(statistics)) == statistics
