from __future__ import annotations

from collections import Counter

import pytest

from procshap.datasets import load_running_example, running_example_path
from procshap.event_log import EventLog
from procshap.miner import MinerConfig, discover

from _xes_etree import dump_xes


@pytest.fixture(scope="session")
def running_example_log():
    return load_running_example()


@pytest.fixture(scope="session")
def running_example_file():
    return running_example_path()


@pytest.fixture(scope="session")
def running_example_tree(running_example_log):
    return discover(running_example_log, MinerConfig(noise=0.0))


@pytest.fixture
def tiny_log_file(tmp_path):
    # mines to seq(a, xor(b, c)): 5 nodes and 11 canonical forms
    log = EventLog(Counter([("a", "b"), ("a", "c")]))
    path = tmp_path / "tiny.xes"
    path.write_bytes(dump_xes(log))
    return path
