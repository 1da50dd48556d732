"""repro: a reproduction of "Gossiping Personalized Queries" (P3Q, EDBT 2010).

The package implements, in pure Python:

* the collaborative-tagging data substrate and a synthetic delicious-like
  trace generator (:mod:`repro.data`);
* Bloom-filter profile digests (:mod:`repro.bloom`) and profile similarity
  (:mod:`repro.similarity`);
* NRA-based top-k machinery, including the incremental variant for
  asynchronously arriving partial results (:mod:`repro.topk`);
* a cycle-driven peer-to-peer simulator with traffic accounting
  (:mod:`repro.simulator`);
* the gossip substrate -- peer sampling, personal networks, the 3-step lazy
  exchange (:mod:`repro.gossip`);
* the P3Q protocol itself -- node, eager query gossip, querier-side merging,
  analytical model (:mod:`repro.p3q`);
* baselines (:mod:`repro.baselines`), evaluation metrics
  (:mod:`repro.metrics`) and the per-figure experiment runners
  (:mod:`repro.experiments`);
* the simulation fuzzer (:mod:`repro.simtest`), the asyncio service
  runtime speaking serialized frames (:mod:`repro.service`) and the names
  the closed-loop serving paths share (:mod:`repro.serving`).

Every runnable tool is a subcommand of ``python -m repro`` (see
:mod:`repro.cli`); the names re-exported here are the curated library
surface (see README "Library usage").

Quickstart::

    from repro.data import SyntheticConfig, generate_dataset, QueryWorkloadGenerator
    from repro.p3q import P3QConfig, P3QSimulation

    dataset = generate_dataset(SyntheticConfig(num_users=100, seed=1))
    sim = P3QSimulation(dataset, P3QConfig(network_size=30, storage=5, seed=1))
    sim.warm_start()
    query = QueryWorkloadGenerator(dataset, seed=1).query_for(user_id=0)
    sim.issue_queries([query])
    sim.run_eager(cycles=10)
    print(sim.sessions()[query.query_id].current_items())
"""

from .data import (
    Dataset,
    Query,
    QueryWorkloadGenerator,
    SyntheticConfig,
    UserProfile,
    generate_dataset,
)
from .p3q import P3QConfig, P3QNode, P3QSimulation
from .baselines import CentralizedTopK
from .service import NodeService, ServiceConfig, ServiceRuntime
from .simtest import ScenarioSpec

__version__ = "1.0.0"

__all__ = [
    "CentralizedTopK",
    "Dataset",
    "NodeService",
    "P3QConfig",
    "P3QNode",
    "P3QSimulation",
    "Query",
    "QueryWorkloadGenerator",
    "ScenarioSpec",
    "ServiceConfig",
    "ServiceRuntime",
    "SyntheticConfig",
    "UserProfile",
    "generate_dataset",
    "__version__",
]
