(** One-call harness around {!Proto} + the simulation engine.

    Convergence is declared when the configuration is {!Checker.legitimate},
    the protocol fingerprint has been stable for [quiet_rounds]
    asynchronous rounds, and the caller's [fixpoint] oracle accepts the
    extracted tree.  The oracle keeps the detector honest during the long
    gaps between improvements — without it, a still-improvable tree that
    happens to sit quiet would be declared final.  The experiment layer
    passes "not Fürer–Raghavachari-improvable"; the protocol itself never
    sees this information.

    Self-stabilizing algorithms never halt: after convergence the gossip
    and searches keep running, they just stop changing anything. *)

type init =
  [ `Clean  (** factory boot *)
  | `Random  (** the adversary: arbitrary states + corrupted channels *)
  | `Tree of Mdst_graph.Tree.t
    (** start from a prescribed spanning tree (cold degree bookkeeping);
        isolates the reduction modules from tree construction *) ]

type result = {
  converged : bool;
  rounds : int;  (** asynchronous rounds (causal depth) at stop *)
  time : float;  (** virtual time at stop *)
  deliveries : int;
  tree : Mdst_graph.Tree.t option;
  degree : int option;  (** [deg(T)] of the final tree, when legitimate *)
  messages : (string * int) list;  (** per message family *)
  total_messages : int;
  total_bits : int;
  max_state_bits : int;
  max_msg_bits : int;
}

type recovery = {
  first : result;  (** state of the run at first convergence *)
  corrupted : int;  (** nodes whose state was randomised *)
  recovery_rounds : int option;  (** rounds to re-convergence, if reached *)
}

val default_max_rounds : int

val state_of_tree :
  Mdst_graph.Tree.t -> Msg.t Mdst_sim.Node.ctx -> Mdst_util.Prng.t -> State.t
(** The [`Tree] initializer, exposed for custom engines. *)

(** The harness, generic over protocol variants (ablations in {!Proto}). *)
module Runner (A : Mdst_sim.Node.AUTOMATON with type state = State.t and type msg = Msg.t) : sig
  module Sim : module type of Mdst_sim.Pengine.Make (A)

  module Engine = Sim
  module Pengine = Sim

  val make_engine :
    ?latency:Mdst_sim.Latency.t ->
    ?seed:int ->
    ?init:init ->
    ?partition:int array ->
    ?domains:int ->
    Mdst_graph.Graph.t ->
    Sim.t
  (** The engine for [init] (one shard unless [domains] says otherwise). *)

  val make_pengine :
    ?latency:Mdst_sim.Latency.t ->
    ?seed:int ->
    ?init:init ->
    ?partition:int array ->
    ?domains:int ->
    Mdst_graph.Graph.t ->
    Sim.t

  val make_stop :
    ?quiet_rounds:int -> ?fixpoint:(Mdst_graph.Tree.t -> bool) -> unit -> Sim.t -> bool
  (** A fresh stateful stop predicate (tracks the fingerprint). *)

  val make_pstop :
    ?quiet_rounds:int -> ?fixpoint:(Mdst_graph.Tree.t -> bool) -> unit -> Sim.t -> bool
  (** [Engine], [Pengine], [make_pengine] and [make_pstop] are aliases of
      [Sim], [Sim], [make_engine] and [make_stop], kept because perfbench
      calls them. *)

  val snapshot : Sim.t -> converged:bool -> result
  (** The {!result} record of a custom engine run, for callers that drive
      {!Sim.run} themselves (tracing, fault injection). *)

  val converge :
    ?latency:Mdst_sim.Latency.t ->
    ?seed:int ->
    ?init:init ->
    ?max_rounds:int ->
    ?quiet_rounds:int ->
    ?fixpoint:(Mdst_graph.Tree.t -> bool) ->
    ?domains:int ->
    Mdst_graph.Graph.t ->
    result
  (** The stop is checked every 2 rounds event by event with one shard,
      at every window barrier with more (see {!Sim.run}). *)

  val converge_corrupt_recover :
    ?latency:Mdst_sim.Latency.t ->
    ?seed:int ->
    ?init:init ->
    ?max_rounds:int ->
    ?quiet_rounds:int ->
    ?fixpoint:(Mdst_graph.Tree.t -> bool) ->
    fraction:float ->
    Mdst_graph.Graph.t ->
    recovery
  (** Converge, corrupt [fraction] of the nodes (states + channels),
      measure rounds to re-convergence (experiment E4). *)
end

(** The default protocol instance, re-exported at the top level. *)
module Default_runner : module type of Runner (Proto.Default)

include module type of struct
  include Default_runner
end
