"""The clustering engine: building (hierarchical) aggregation topologies.

Given the set of contributing clients, the coordinator's clustering engine
(paper §III.D–E) selects aggregators, groups the remaining trainers into
clusters headed by those aggregators, and — for hierarchical policies — stacks
additional aggregation levels until a single root aggregator remains.  The
resulting :class:`ClusterTopology` is what role arrangement turns into
``set_role`` messages and what the delay model walks to compute the critical
path of a round.

Two policies cover the paper's evaluation:

* ``"central"`` — one cluster, one aggregator (the "SDFL with central
  aggregation" curve in Fig. 8);
* ``"hierarchical"`` — a 2-layer aggregation tree where roughly
  ``aggregator_fraction`` of the clients act as aggregators (30 % in the
  paper), one of which is promoted to root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.errors import SDFLMQError
from repro.core.roles import Role
from repro.utils.validation import require_in_range, require_positive

__all__ = ["ClusterNode", "ClusterTopology", "ClusteringEngine", "ClusteringConfig"]


@dataclass
class ClusterNode:
    """One client's position within a cluster topology."""

    client_id: str
    role: Role
    level: int
    parent_id: Optional[str] = None
    children: List[str] = field(default_factory=list)

    @property
    def fan_in(self) -> int:
        """Number of contributions this node waits for from its children."""
        return len(self.children)


@dataclass
class ClusterTopology:
    """A complete aggregation topology for one FL round."""

    session_id: str
    nodes: Dict[str, ClusterNode]
    root_id: str
    policy: str = "hierarchical"

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------ inspection

    @property
    def client_ids(self) -> List[str]:
        """All participating client ids (sorted)."""
        return sorted(self.nodes)

    @property
    def aggregator_ids(self) -> List[str]:
        """Ids of all clients with an aggregating role (sorted)."""
        return sorted(cid for cid, node in self.nodes.items() if node.role.aggregates)

    @property
    def num_levels(self) -> int:
        """Number of distinct hierarchy levels (root = level 0)."""
        if not self.nodes:
            return 0
        return max(node.level for node in self.nodes.values()) + 1

    def node(self, client_id: str) -> ClusterNode:
        """Node for ``client_id`` (KeyError if absent)."""
        return self.nodes[client_id]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable description published on the session broadcast topic."""
        return {
            "session_id": self.session_id,
            "root_id": self.root_id,
            "policy": self.policy,
            "nodes": {
                cid: {
                    "role": node.role.value,
                    "level": node.level,
                    "parent_id": node.parent_id,
                    "children": list(node.children),
                }
                for cid, node in self.nodes.items()
            },
        }

    # ------------------------------------------------------------ validation

    def validate(self) -> None:
        """Check structural invariants; raises :class:`SDFLMQError` on violation."""
        if not self.nodes:
            raise SDFLMQError("cluster topology has no nodes")
        if self.root_id not in self.nodes:
            raise SDFLMQError(f"root id {self.root_id!r} is not a node")
        root = self.nodes[self.root_id]
        if not root.role.aggregates:
            raise SDFLMQError("the root node must hold an aggregating role")
        if root.parent_id is not None:
            raise SDFLMQError("the root node must not have a parent")

        for cid, node in self.nodes.items():
            if node.client_id != cid:
                raise SDFLMQError(f"node key {cid!r} disagrees with its client_id {node.client_id!r}")
            if node.parent_id is None and cid != self.root_id:
                raise SDFLMQError(f"non-root node {cid!r} has no parent")
            if node.parent_id is not None:
                parent = self.nodes.get(node.parent_id)
                if parent is None:
                    raise SDFLMQError(f"node {cid!r} references unknown parent {node.parent_id!r}")
                if not parent.role.aggregates:
                    raise SDFLMQError(f"parent {node.parent_id!r} of {cid!r} is not an aggregator")
                if cid not in parent.children:
                    raise SDFLMQError(f"parent {node.parent_id!r} does not list {cid!r} as a child")
            for child in node.children:
                if child not in self.nodes:
                    raise SDFLMQError(f"node {cid!r} lists unknown child {child!r}")
                if self.nodes[child].parent_id != cid:
                    raise SDFLMQError(f"child {child!r} does not point back to parent {cid!r}")
            if node.children and not node.role.aggregates:
                raise SDFLMQError(f"node {cid!r} has children but is not an aggregator")
            if node.role.aggregates and not node.children and len(self.nodes) > 1:
                raise SDFLMQError(f"aggregator {cid!r} has no children")

        # Reachability / acyclicity: walking up from every node must reach the root.
        for cid in self.nodes:
            seen = set()
            cursor: Optional[str] = cid
            while cursor is not None:
                if cursor in seen:
                    raise SDFLMQError(f"cycle detected in topology at {cursor!r}")
                seen.add(cursor)
                cursor = self.nodes[cursor].parent_id
            if self.root_id not in seen:
                raise SDFLMQError(f"node {cid!r} cannot reach the root")


@dataclass(frozen=True)
class ClusteringConfig:
    """Parameters controlling topology construction.

    Attributes
    ----------
    policy:
        ``"hierarchical"`` or ``"central"``.
    aggregator_fraction:
        Fraction of clients acting as aggregators under the hierarchical
        policy (the paper uses 0.30).
    aggregators_train:
        Whether selected aggregators also act as trainers
        (trainer/aggregator role), as in the paper's evaluation.
    """

    policy: str = "hierarchical"
    aggregator_fraction: float = 0.30
    aggregators_train: bool = True

    def __post_init__(self) -> None:
        if self.policy not in ("hierarchical", "central"):
            raise ValueError(f"unknown clustering policy {self.policy!r}")
        require_in_range(self.aggregator_fraction, "aggregator_fraction", 0.0, 1.0, inclusive=False)


class ClusteringEngine:
    """Builds :class:`ClusterTopology` objects from client lists and preferences."""

    def __init__(self, config: ClusteringConfig | None = None) -> None:
        self.config = config or ClusteringConfig()

    # --------------------------------------------------------------- helpers

    @staticmethod
    def _role_for_aggregator(config: ClusteringConfig) -> Role:
        return Role.TRAINER_AGGREGATOR if config.aggregators_train else Role.AGGREGATOR

    def num_aggregators(self, num_clients: int) -> int:
        """Number of aggregators the hierarchical policy selects for ``num_clients``."""
        require_positive(num_clients, "num_clients")
        if self.config.policy == "central":
            return 1
        return max(1, int(round(num_clients * self.config.aggregator_fraction)))

    # ------------------------------------------------------------------ build

    def build(
        self,
        session_id: str,
        client_ids: Sequence[str],
        aggregator_ids: Optional[Sequence[str]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> ClusterTopology:
        """Build a topology over ``client_ids``.

        Parameters
        ----------
        session_id:
            Session the topology belongs to.
        client_ids:
            All contributing clients.
        aggregator_ids:
            Pre-selected aggregators (e.g. from the load balancer's optimizer).
            When omitted, aggregators are chosen deterministically from the
            client order (shuffled by ``rng`` if given).
        rng:
            Optional generator used only when aggregators are not pre-selected.
        """
        clients = list(dict.fromkeys(client_ids))
        if not clients:
            raise SDFLMQError("cannot build a topology with zero clients")
        if len(clients) == 1:
            only = clients[0]
            node = ClusterNode(client_id=only, role=Role.TRAINER_AGGREGATOR, level=0, children=[only])
            # A single client both trains and "aggregates" its own update; model
            # it as a root with itself as child is confusing, so special-case:
            node.children = []
            node.role = Role.TRAINER_AGGREGATOR
            topology = ClusterTopology.__new__(ClusterTopology)
            topology.session_id = session_id
            topology.nodes = {only: node}
            topology.root_id = only
            topology.policy = self.config.policy
            return topology

        if self.config.policy == "central":
            return self._build_central(session_id, clients, aggregator_ids)
        return self._build_hierarchical(session_id, clients, aggregator_ids, rng)

    def _select_aggregators(
        self,
        clients: List[str],
        count: int,
        aggregator_ids: Optional[Sequence[str]],
        rng: Optional[np.random.Generator],
    ) -> List[str]:
        if aggregator_ids:
            selected = [cid for cid in aggregator_ids if cid in clients][:count]
            if not selected:
                raise SDFLMQError("none of the requested aggregators are session contributors")
            # Top up deterministically if the optimizer supplied too few.
            for cid in clients:
                if len(selected) >= count:
                    break
                if cid not in selected:
                    selected.append(cid)
            return selected
        pool = list(clients)
        if rng is not None:
            rng.shuffle(pool)
        return pool[:count]

    def _build_central(
        self,
        session_id: str,
        clients: List[str],
        aggregator_ids: Optional[Sequence[str]],
    ) -> ClusterTopology:
        root = self._select_aggregators(clients, 1, aggregator_ids, None)[0]
        nodes: Dict[str, ClusterNode] = {}
        children = [cid for cid in clients if cid != root]
        nodes[root] = ClusterNode(
            client_id=root,
            role=self._role_for_aggregator(self.config),
            level=0,
            parent_id=None,
            children=children,
        )
        for cid in children:
            nodes[cid] = ClusterNode(client_id=cid, role=Role.TRAINER, level=1, parent_id=root)
        return ClusterTopology(session_id=session_id, nodes=nodes, root_id=root, policy="central")

    def _build_hierarchical(
        self,
        session_id: str,
        clients: List[str],
        aggregator_ids: Optional[Sequence[str]],
        rng: Optional[np.random.Generator],
    ) -> ClusterTopology:
        count = min(self.num_aggregators(len(clients)), len(clients) - 1) or 1
        aggregators = self._select_aggregators(clients, count, aggregator_ids, rng)
        trainers = [cid for cid in clients if cid not in aggregators]
        if not trainers:
            # Degenerate: everyone is an aggregator; demote all but one.
            trainers = aggregators[1:]
            aggregators = aggregators[:1]

        nodes: Dict[str, ClusterNode] = {}
        agg_role = self._role_for_aggregator(self.config)

        # Root is the first aggregator; remaining aggregators form level 1,
        # trainers level 2 — the paper's three-layer / "2-layer hierarchical
        # aggregation" arrangement (two layers *of aggregation*).
        root = aggregators[0]
        intermediates = aggregators[1:]

        if not intermediates:
            # Only one aggregator selected — identical to central.
            return self._build_central(session_id, clients, [root])

        nodes[root] = ClusterNode(client_id=root, role=agg_role, level=0, parent_id=None, children=[])
        for agg in intermediates:
            nodes[agg] = ClusterNode(client_id=agg, role=agg_role, level=1, parent_id=root, children=[])
            nodes[root].children.append(agg)

        # Deal trainers round-robin across the intermediate aggregators so
        # cluster sizes differ by at most one.
        for index, trainer in enumerate(trainers):
            head = intermediates[index % len(intermediates)]
            nodes[trainer] = ClusterNode(client_id=trainer, role=Role.TRAINER, level=2, parent_id=head)
            nodes[head].children.append(trainer)

        # Any intermediate aggregator left without children (more aggregators
        # than trainers) is demoted to a plain trainer under the root so that
        # the "every aggregator has children" invariant holds.
        for agg in intermediates:
            if not nodes[agg].children:
                nodes[agg].role = Role.TRAINER
                nodes[agg].level = 1

        return ClusterTopology(session_id=session_id, nodes=nodes, root_id=root, policy="hierarchical")
