(** Agent and social cost.

    [cost(u, G(s)) = α · w(u, S_u) + Σ_v d_{G(s)}(u, v)];
    the social cost is the sum over all agents.  Disconnected networks have
    infinite cost. *)

type parts = { edge : float; dist : float }

val edge_cost_of : Host.t -> int -> Strategy.ISet.t -> float
(** [α · w(u, set)], the weights summed in ascending target order — the
    fold behind [agent_edge_cost], so an edited set prices to the same
    bits as the profile that holds it. *)

val agent_edge_cost : Host.t -> Strategy.t -> int -> float
(** [α · w(u, S_u)] — the price of everything [u] buys (including edges
    also bought by the other side: both owners pay). *)

val agent_cost : ?graph:Gncg_graph.Wgraph.t -> Host.t -> Strategy.t -> int -> float

val agent_parts : ?graph:Gncg_graph.Wgraph.t -> Host.t -> Strategy.t -> int -> parts

val social_cost : Host.t -> Strategy.t -> float
(** [social_parts]' edge total plus its distance total. *)

val social_parts : Host.t -> Strategy.t -> parts

val network_dist : Gncg_graph.Wgraph.t -> float
(** [Σ_u Σ_v d(u,v)]: each row's {!Gncg_util.Flt.sum}, added in agent
    order — the distance total of {!social_parts} and
    {!network_social_cost}; [infinity] on a disconnected network. *)

val network_social_cost : Host.t -> Gncg_graph.Wgraph.t -> float
(** Social cost of a network in which every edge is bought exactly once
    (ownership does not matter for the total):
    [α · Σ_e w(e) + Σ_u Σ_v d(u,v)]. *)
