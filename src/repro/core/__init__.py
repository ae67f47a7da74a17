"""SDFLMQ core: the paper's primary contribution.

The core package contains the three runtime components (client, coordinator,
parameter server), the coordination machinery they share (sessions, roles,
clustering, load balancing, aggregation strategies) and the topic scheme that
binds everything to MQTT.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.aggregation": (
            "AggregationStrategy", "ContributionBuffer", "FedAvg", "UniformAverage",
            "CoordinateMedian", "TrimmedMean", "FedAvgMomentum", "ModelContribution",
            "get_aggregator", "available_aggregators",
        ),
        "repro.core.client": ("SDFLMQClient", "SessionParticipation"),
        "repro.core.clustering": (
            "ClusteringConfig", "ClusteringEngine", "ClusterNode", "ClusterTopology",
        ),
        "repro.core.coordinator": ("Coordinator", "CoordinatorConfig"),
        "repro.core.errors": (
            "SDFLMQError", "SessionError", "SessionFullError", "SessionNotFoundError",
            "DuplicateSessionError", "RoleError", "AggregationError", "ModelNotRegisteredError",
        ),
        "repro.core.load_balancer": ("LoadBalancer", "RebalanceResult"),
        "repro.core.messages": (
            "SessionRequest", "SessionAck", "JoinRequest", "JoinAck", "RoleAssignment",
            "ClientStatsReport", "GlobalModelNotice",
        ),
        "repro.core.model_controller": ("ModelController", "ModelRecord"),
        "repro.core.parameter_server": ("ParameterServer", "GlobalModelRecord"),
        "repro.core.role_arbiter": ("RoleArbiter", "RoleState", "TopicChange"),
        "repro.core.role_optimizers": (
            "RoleOptimizationPolicy", "StaticPolicy", "RandomPolicy", "RoundRobinPolicy",
            "MemoryAwarePolicy", "CompositeScorePolicy", "GeneticPolicy", "get_policy",
            "available_policies",
        ),
        "repro.core.roles": ("Role",),
        "repro.core.rounds": (
            "ClientRoundView", "LifecycleEvent", "RoundLifecycle", "RoundLifecycleError",
            "RoundPhase",
        ),
        "repro.core.session": ("FLSession", "SessionState"),
    },
    submodules=("topics",),
)
