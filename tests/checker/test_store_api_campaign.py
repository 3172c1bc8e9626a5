"""Keyed linearizability campaigns through the Store API's message path.

The keyed adversarial explorer compiles every injected operation with
:func:`repro.api.codec.compile_update` / ``compile_query`` and decodes
replies with ``parse_completion`` — exactly the bytes the public
:class:`~repro.api.store.Store` puts on the wire — so these campaigns
validate the surface applications actually use.  Per-key histories are
fed to the §3.1 lattice-linearizability checkers; keys never synchronize
with each other, so each key must satisfy the conditions independently.

Three hostile configurations ride on top of the plain one:

* live request timeouts (``keep_timeouts``), whose re-drive timers the
  adversary fires in arbitrary order;
* GLA-Stability with eviction churn, checking that the persisted learned
  maximum keeps per-proposer learns monotone across freeze/thaw
  generations (§3.4);
* message loss plus duplication on the replica↔replica links.
"""

import pytest

from repro.checker.lattice_linearizability import check_all
from repro.checker.scheduler import KeyedInterleavingExplorer
from repro.core.config import CrdtPaxosConfig

SEEDS = range(6)


def run_and_check(
    seed, config=None, expect_gla=False, keep_timeouts=False, **run_kwargs
):
    explorer = KeyedInterleavingExplorer(
        seed=seed,
        n_replicas=3,
        n_clients=3,
        n_keys=4,
        config=config,
        keep_timeouts=keep_timeouts,
    )
    report = explorer.run(n_ops=40, **run_kwargs)
    assert report.histories, "campaign injected no operations"
    for history in report.histories.values():
        check_all(history, expect_gla_stability=expect_gla)
    return report


@pytest.mark.parametrize("seed", SEEDS)
def test_keyed_campaign_via_store_codec(seed):
    report = run_and_check(seed)
    assert report.all_complete
    assert report.evictions > 0  # the small resident cap really churned


@pytest.mark.parametrize("seed", SEEDS)
def test_keyed_campaign_with_redrives(seed):
    config = CrdtPaxosConfig(request_timeout=0.05)
    report = run_and_check(seed, config=config, keep_timeouts=True)
    assert report.all_complete
    # The adversarially fired timeout timers actually re-drove.
    assert report.timeouts > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_keyed_campaign_gla_stability_across_eviction(seed):
    config = CrdtPaxosConfig(gla_stability=True, keyed_max_resident=2)
    report = run_and_check(seed, config=config, expect_gla=True)
    assert report.all_complete
    assert report.evictions > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_keyed_campaign_lossy_duplicating_network(seed):
    report = run_and_check(
        seed, drop_probability=0.05, duplicate_probability=0.05
    )
    # Loss may leave operations open; completed ones were checked above.
    assert report.deliveries > 0


def test_redrives_and_gla_compose():
    config = CrdtPaxosConfig(
        gla_stability=True, keyed_max_resident=2, request_timeout=0.05
    )
    report = run_and_check(11, config=config, expect_gla=True, keep_timeouts=True)
    assert report.all_complete
    assert report.timeouts > 0
    assert report.evictions > 0
