(** Run-time invariant sampling: what happens {e between} legitimate
    configurations.

    Self-stabilization only constrains the limit; super-stabilization (the
    paper's closing open problem) also constrains the disruption along the
    way.  This module samples the global configuration at a fixed round
    cadence while a run executes and reports availability-style metrics:
    how often the parent pointers formed a spanning tree at all, the
    longest window without one, how many distinct trees were traversed, and
    the worst tree degree seen.  Used by experiments E16/E17 and the
    transient-behaviour tests.

    [Watch] works for any protocol variant (ablations, the graceful
    variant); the top-level [watch] is the default-protocol instance. *)

type report = {
  samples : int;
  spanning_samples : int;  (** samples where a spanning tree existed *)
  availability : float;  (** spanning_samples / samples *)
  longest_outage : int;  (** longest run of consecutive non-spanning samples *)
  distinct_trees : int;
      (** how many different edge sets were traversed, counted only over
          swap-quiescent samples (no node holding a pending swap lock) —
          mid-swap edge sets are Remove/Grant/Reverse construction
          intermediates, not trees the protocol chose *)
  max_degree_seen : int;  (** worst deg(T) over the spanning samples *)
  final_spanning : bool;
}

module Watch (A : Mdst_sim.Node.AUTOMATON with type state = State.t and type msg = Msg.t) : sig
  module Sim : module type of Mdst_sim.Pengine.Make (A)

  val watch :
    ?sample_every:int ->
    engine:Sim.t ->
    max_rounds:int ->
    stop:(Sim.t -> bool) ->
    unit ->
    report
end

val watch :
  ?sample_every:int ->
  engine:Run.Sim.t ->
  max_rounds:int ->
  stop:(Run.Sim.t -> bool) ->
  unit ->
  report
(** Drive [engine] until [stop] or [max_rounds], sampling every
    [sample_every] rounds (default 2). *)
