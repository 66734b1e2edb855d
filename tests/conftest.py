import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (per round instructions)."""
    import ray

    def dump_stacks_on_sigusr1():
        # `kill -USR1 <worker pid>` writes every thread's Python stack to
        # the worker's stderr (its worker-*.err file under the session's
        # logs/ directory), so a hung task can be inspected in place
        import faulthandler
        import signal
        faulthandler.register(signal.SIGUSR1, all_threads=True)

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR",
                 runtime_env={"worker_process_setup_hook":
                              dump_stacks_on_sigusr1})
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # the executor's 50% per-operator reservation starves long map/shuffle
    # chains at num_cpus=4 (the hash exchanges, CC label propagation's
    # join+aggregate rounds; measured: distributed CC on a 2k-node, 3k-edge
    # random graph, min of 2, 9.2 s without vs 15.5 s with) — same
    # setting as bench.py
    ctx.op_resource_reservation_enabled = False
    yield
    ray.shutdown()


SF_DIR = "/root/testdata/sf0.001"
