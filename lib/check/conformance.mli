(** Reference-model conformance: the real automaton and {!Mdst_model.Model}
    driven in lockstep on the engine's own event sequence.

    The engine runs the real protocol as usual (arrival-time order, FIFO
    floors, random tick phases) and {!Lockstep} replays every executed
    event on the model with all of its checks.  Any mismatch is a
    {e divergence}; the property shrinks a diverging case to a one-line
    reproducer like the convergence harness does.

    Clean builds must show zero divergences on every fixture and generated
    case; the mutation suite ({!Mutants}) relies on reintroduced historical
    bugs surfacing here. *)

module Graph = Mdst_graph.Graph

type case = {
  graph : Graph.t;
  seed : int;
  init : [ `Clean | `Random ];
  events : int;  (** how many engine events to execute and replay *)
}

val case_to_string : case -> string
(** One-line reproducer, e.g.
    ["n=4;edges=0-1,0-2,1-3,2-3;seed=7;init=random;events=120"]. *)

val case_of_string : string -> case
(** @raise Invalid_argument on malformed input. *)

val gen_case : ?min_n:int -> ?max_n:int -> ?max_events:int -> unit -> case Gen.t

val shrink_case : case Shrink.t
(** Event-count bisection first (cheap), then graph shrinking. *)

(** What one automaton/model pairing exposes. *)
module type S = sig
  val run_case : case -> Lockstep.result
  (** The {!Lockstep} run under {!Lockstep.Engine_order}; a [failure] is
      a divergence. *)

  val prop : case Property.prop

  val property :
    ?min_n:int -> ?max_n:int -> ?max_events:int -> unit -> case Property.t
end

module Default : S
(** [Proto.Default] against [Model.default]. *)

module Suppressed : S
(** [Proto.Suppressed] against [Model.suppressed] — exercises the Info
    dirty-bit suppression and refresh-cadence rules. *)
