(** Convergence-under-adversity: the paper's self-stabilization claim as an
    executable, shrinkable property.

    A {!case} is a connected topology, a {!Mdst_sim.Fault.plan} and an
    engine seed — everything needed to replay one adversarial execution
    deterministically.  The property runs the protocol from an adversarial
    ([`Random]) start while the plan's faults are injected, and requires:

    + {b convergence}: within a round budget after the last fault, the
      configuration is legitimate ({!Mdst_core.Checker}), quiescent, and
      the tree admits no Fürer–Raghavachari improvement;
    + {b degree bound}: the final tree's degree is at most [deg_FR + 1]
      (which the paper's [Δ* + 1] guarantee implies, since [Δ* <= deg_FR]);
    + {b closure}: running an extra window after convergence changes
      neither legitimacy nor the protocol fingerprint — no further swap
      ever commits.

    Shrinking deletes fault events, then graph vertices (with the plan
    renumbered coherently), then non-bridge edges, and replays every
    candidate from the case seed, yielding a minimal reproducer. *)

type case = {
  graph : Mdst_graph.Graph.t;
  plan : Mdst_sim.Fault.plan;
  seed : int;  (** engine seed: latencies, tick phases, initial corruption *)
}

val case_to_string : case -> string
(** One-line reproducer:
    [n=7;ids=2,0,...;edges=0-1,1-2,...;seed=99;plan=seed=3|drop:...]. *)

val case_of_string : string -> case
(** @raise Invalid_argument on malformed input. *)

val gen_case :
  ?min_n:int -> ?max_n:int -> ?max_events:int -> ?horizon:int -> unit -> case Gen.t
(** Defaults follow {!Gen.connected_graph} and {!Gen.fault_plan}. *)

val shrink_case : case Shrink.t

(** Round budgets for the property (all counted in asynchronous rounds). *)
type budget = {
  settle_rounds : int;  (** flat allowance after the last fault *)
  per_node_rounds : int;  (** additional allowance per node *)
  closure_rounds : int;  (** extra window the closure check runs for *)
}

val default_budget : budget
(** [{ settle_rounds = 4000; per_node_rounds = 250; closure_rounds = 80 }] *)

type report = {
  converged : bool;
  rounds : int;  (** rounds at the first convergence check that held *)
  last_fault_round : int;
  outstanding : bool;
      (** convergence was declared while a scheduled fault was pending or
          a tampered message still in flight — only a stop check that
          races the adversary can do that *)
  degree : int option;  (** deg(T) of the final tree, when one exists *)
  fr_degree : int;  (** FR reference degree on the {e final} topology *)
  closure_ok : bool;
      (** true when not applicable (no convergence, or [outstanding]) *)
  stats : Mdst_sim.Fault.stats;  (** what the adversary actually did *)
}

val verdict : report -> (unit, string) result
(** The property's judgement of one run: [Error] on no convergence, an
    [outstanding] stop, a broken degree bound or a closure breach, in
    that order. *)

(** The harness, generic over protocol variants. *)
module Harness (A : Mdst_sim.Node.AUTOMATON
                  with type state = Mdst_core.State.t
                   and type msg = Mdst_core.Msg.t) : sig
  module Sim : module type of Mdst_sim.Pengine.Make (A)

  val run_case :
    ?budget:budget ->
    ?init:[ `Clean | `Random ] ->
    ?prefix:(Sim.t -> unit) ->
    ?domains:int ->
    case ->
    report
  (** [init] defaults to [`Random].  [prefix] runs on the engine after the
      plan is installed and before the convergence run — the schedule
      fuzzer drives its fuzzed prefix through it.  [domains] (default 1)
      splits the engine; scheduled fault events need one shard. *)

  val prop : ?budget:budget -> unit -> case Property.prop

  val property :
    ?budget:budget ->
    ?min_n:int ->
    ?max_n:int ->
    ?max_events:int ->
    ?horizon:int ->
    unit ->
    case Property.t
  (** The assembled property: generator, predicate, joint graph + plan
      shrinker, reproducer printer. *)
end

module Default : module type of Harness (Mdst_core.Proto.Default)
(** The paper's protocol. *)

module Suppressed : module type of Harness (Mdst_core.Proto.Suppressed)
(** The Info dirty-bit-suppression variant; the adversary also corrupts
    the suppression cache ([last_info] / [info_age]), so this validates
    that the periodic refresh preserves self-stabilization. *)

(** {!Default} with the ["grant-drop"] {!Mdst_util.Mutation} forced on
    for every run, on top of any mutants already active: every [Grant]
    is discarded on receipt, so no improvement ever commits.  Exists to
    prove the harness catches real protocol bugs.  Each call puts the
    previous set of active mutants back afterwards, also on exception. *)
module Broken : module type of Default
