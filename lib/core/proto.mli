(** The self-stabilizing MDST protocol of the paper (§3), packaged as a
    {!Mdst_sim.Node.AUTOMATON}.

    The automaton stacks the paper's four modules by priority:

    + spanning-tree correction — rules R1 ("correction parent") and R2
      ("correction root"), §3.2.1;
    + maximum-degree computation — a continuous PIF over the believed tree
      plus the colour freeze, §3.2.3;
    + fundamental-cycle detection — a DFS carried inside [Search]
      messages, §3.2.2;
    + degree reduction — Action_on_Cycle, Improve (a three-pass
      Remove/Grant/Reverse commit over the ascending cycle segment) and
      Deblock, §3.2.4.

    Deviations from the paper's pseudo-code are documented in DESIGN.md §4
    and marked [paper-gap:] in the implementation. *)

module type CONFIG = sig
  val busy_ttl : int
  (** Base ticks a swap lock survives without progress; a term linear in
      the known network-size bound is added so long segments complete. *)

  val deblock_ttl : int
  (** Ticks a node keeps searching on behalf of a blocking node. *)

  val eager_prune : bool
  (** Skip Search starts that can neither improve (endpoints ≤ dmax−2,
      paper Eq. 1) nor expose a blocking endpoint (= dmax−1, required for
      Deblock to ever fire).  [false] reproduces the paper's
      always-search behaviour; [true] converges to the same band with
      fewer messages (ablation E11b). *)

  val enable_deblock : bool
  (** The paper's Deblock machinery.  Disabling it is ablation E11a: the
      algorithm then stalls at local optima where every improving
      candidate has a blocking endpoint. *)

  val enable_reduction : bool
  (** The whole degree-reduction stack (modules 3 and 4).  Disabling it
      leaves the self-stabilizing spanning-tree + max-degree layers alone
      (paper §3.2.1 / §3.2.3) — the layer-isolation ablation E15. *)

  val graceful_reattach : bool
  (** Prototype of the paper's open problem (super-stabilization): on a
      vanished parent edge, re-attach to a fresh same-root neighbour with a
      strictly smaller distance instead of resetting the subtree.  [false]
      is the paper's behaviour; [true] the E17 variant. *)

  val search_on_info : bool
  (** Paper Figure 2 line 2 starts Cycle_Search upon every Info receipt;
      our default rate-limits starts to one rotating candidate per tick.
      [true] restores the paper's literal cadence. *)

  val info_suppression : bool
  (** Dirty-bit suppression of the periodic gossip: skip a tick's Info
      broadcast when the public variables are unchanged since the last
      one actually sent.  [false] (default) is the paper's literal
      send-every-tick behaviour. *)

  val info_refresh_every : int
  (** With suppression on, force a broadcast at least every this many
      ticks: the bounded-staleness window that preserves
      self-stabilization when the suppression cache itself is corrupted. *)

  val search_refresh_every : int
  (** Change-driven Search: a node starts Searches during one full
      rotation of its Search cursor over its neighbour slots after a local
      change (mirror value, own tree/degree variables, swap lock or
      Deblock set or cleared) and during one rotation at least every this
      many ticks (default 32).  The refresh bounds how long a corrupted
      counter, or a change the node cannot see, can hold a search back.
      [1] searches on every tick ([Paper_faithful_config]). *)
end

module Default_config : CONFIG

module No_deblock_config : CONFIG

module No_prune_config : CONFIG

module Tree_only_config : CONFIG

module Graceful_config : CONFIG

module Paper_faithful_config : CONFIG

module Suppressed_config : CONFIG
(** Default behaviour plus Info dirty-bit suppression (refresh every 8
    ticks) — the gossip-volume arm of benchmark E20. *)

module Make (_ : CONFIG) : sig
  include Mdst_sim.Node.AUTOMATON with type state = State.t and type msg = Msg.t
end

module Default : Mdst_sim.Node.AUTOMATON with type state = State.t and type msg = Msg.t

module No_deblock : Mdst_sim.Node.AUTOMATON with type state = State.t and type msg = Msg.t

module No_prune : Mdst_sim.Node.AUTOMATON with type state = State.t and type msg = Msg.t

module Tree_only : Mdst_sim.Node.AUTOMATON with type state = State.t and type msg = Msg.t

module Graceful : Mdst_sim.Node.AUTOMATON with type state = State.t and type msg = Msg.t

module Paper_faithful : Mdst_sim.Node.AUTOMATON with type state = State.t and type msg = Msg.t

module Suppressed : Mdst_sim.Node.AUTOMATON with type state = State.t and type msg = Msg.t
