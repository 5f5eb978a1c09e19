#!/usr/bin/env python
"""Operating the controller: node failure, re-solve, safe rollout.

The network-wide controller (Figure 6) re-optimizes when routing or
traffic changes. This script exercises the operational loop the paper
discusses in Section 9:

1. solve the replication LP for Geant with a datacenter;
2. fail the most loaded interior PoP — classes through it reroute,
   classes terminating at it are lost;
3. re-solve on the surviving network;
4. roll the new configuration out over a delayed, lossy channel with
   the paper's overlap transition (old + new rules honored until every
   node acknowledged, so coverage never drops), and contrast with
   two-phase commit, which one node short of rule memory aborts.

Run:  python examples/failure_recovery.py
"""

from repro import builtin_topology, gravity_traffic, NetworkState
from repro.core import (
    MirrorPolicy,
    ReplicationProblem,
    cascade_risk,
    fail_node,
)
from repro.runtime.agents import build_agents
from repro.runtime.events import EventLoop
from repro.runtime.rollout import (
    ChannelSpec,
    ConfigChannel,
    CoverageTracker,
    RolloutDriver,
)
from repro.shim import build_replication_configs


def rollout(strategy, state, old_configs, new_configs, agents):
    """Push ``new_configs`` with ``strategy`` until the channel is
    quiet; returns the session and the lowest coverage seen."""
    loop = EventLoop()
    channel = ConfigChannel(ChannelSpec(base_delay=1.0, jitter=2.0,
                                        loss=0.1), seed=1)
    session = RolloutDriver(channel, strategy).start(
        loop, agents, new_configs, previous=old_configs)
    tracker = CoverageTracker(state.classes)
    lowest = 1.0
    while loop.queue.peek_time() is not None:
        loop.run_until(loop.queue.peek_time())
        report = tracker.update({node: agent.effective_config()
                                 for node, agent in agents.items()})
        lowest = min(lowest, report.coverage)
    return session, lowest


def main() -> None:
    topology = builtin_topology("geant")
    classes = gravity_traffic(topology)
    state = NetworkState.calibrated(topology, classes,
                                    dc_capacity_factor=10.0)

    # --- steady state --------------------------------------------------
    problem = ReplicationProblem(
        state, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.4)
    before = problem.solve()
    print(f"steady state on geant: max load {before.load_cost:.3f}")

    risky = cascade_risk(state)
    print(f"single-node failures the routing cannot absorb: "
          f"{risky or 'none'}")

    # --- fail the busiest interior node --------------------------------
    loads = {n: l for n, l in before.node_loads["cpu"].items()
             if n != state.dc_node}
    victim = max(loads, key=loads.get)
    new_state, impact = fail_node(state, victim)
    print(f"\nfailing {victim}: {len(impact.rerouted_classes)} classes "
          f"rerouted, {len(impact.dropped_classes)} dropped "
          f"({impact.lost_fraction:.1%} of sessions terminated there)")

    after = ReplicationProblem(
        new_state, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.4).solve()
    print(f"re-solved surviving network: max load "
          f"{after.load_cost:.3f} "
          f"(solve took {after.stats.solve_seconds:.3f}s)")

    # --- safe rollout ----------------------------------------------------
    print("\nrolling out the new configuration with overlap "
          "semantics:")
    old_configs = {n: c for n, c in
                   build_replication_configs(state, before).items()
                   if n in new_state.nids_nodes}
    new_configs = build_replication_configs(new_state, after)
    agents = build_agents(new_state.node_capacity, old_configs)
    session, lowest = rollout("overlap", new_state, old_configs,
                              new_configs, agents)
    print(f"  {session.outcome.value} after {session.latency:.1f}s "
          f"simulated; old rules retired at "
          f"t={session.retired_at:.1f}s")
    print(f"  lowest coverage after any event: {lowest:.1%}; "
          f"{session.rules_shipped} rules shipped")

    # --- why not two-phase commit? ---------------------------------------
    print("\ntwo-phase commit with one shim short of rule memory:")
    agents = build_agents(new_state.node_capacity, old_configs)
    short = max(new_configs, key=lambda n: new_configs[n].num_rules)
    agents[short].rule_capacity = new_configs[short].num_rules - 1
    session, _ = rollout("two-phase", new_state, old_configs,
                         new_configs, agents)
    print(f"  outcome: {session.outcome.value} (refused by "
          f"{', '.join(sorted(session.refused_nodes))}) — a single "
          "laggard blocks the whole rollout,")
    print("  which is why the paper prefers the domain-specific "
          "overlap transition.")


if __name__ == "__main__":
    main()
