(** The engine-vs-model lockstep driver: the real automaton under the
    engine and {!Mdst_model.Model} stepped together, one event at a time.

    Every checker that compares the engine against the reference model
    goes through {!Make.run}; they differ only in the {!chooser}:
    {!Engine_order} for {!Conformance}, [Pick (uniform rng)] for
    {!Explore.S.walk}, [Pick (prefer ~fallback sched)] for {!Fuzz} and
    [Pick (strict sched)] for {!Fuzz} replay, and [Sync] for fuzz entries
    under the synchronous daemon.

    After every event the driver checks, in order: the delivered message
    equals the model's channel head on the full payload; the
    {!Mdst_core.Projection}s agree, then the full states (equal
    projections with unequal states mean a non-observable field drifted);
    and, when a [premise] is given, legitimacy closure.  At the end the
    in-flight messages must match channel by channel.  The first failed
    check ends the run. *)

module Graph = Mdst_graph.Graph
module Model = Mdst_model.Model

type chooser =
  | Engine_order  (** {!Mdst_sim.Pengine.Make.step}: arrival-time order *)
  | Sync  (** {!Mdst_sim.Pengine.Make.step_sync}: the synchronous daemon *)
  | Pick of (Model.event array -> int)
      (** {!Mdst_sim.Pengine.Make.step_with}: given the eligible events
          (armed ticks in node order, then channel heads in
          [(src * n) + dst] order), return an index *)

val uniform : Mdst_util.Prng.t -> Model.event array -> int
(** One uniform draw from the stream per step. *)

val strict : Model.event array -> Model.event array -> int
(** [strict sched] runs [sched.(i)] at step [i]; the partial application
    owns the step counter.
    @raise Failure when the scheduled event is not eligible (tick not
    armed, channel empty or purged) or the schedule is exhausted. *)

val prefer : fallback:Mdst_util.Prng.t -> Model.event array -> Model.event array -> int
(** [prefer ~fallback sched] runs the first eligible schedule entry at or
    after its cursor and moves the cursor past it; when none is eligible,
    one uniform draw from [fallback].  The partial application owns the
    cursor. *)

type kind = Divergence | Closure

type failure = {
  kind : kind;
  index : int;  (** 1-based event index *)
  event : string;  (** {!Mdst_model.Model.event_to_string}, or ["(end)"] *)
  detail : string;
}

val describe : failure -> string
(** [event I (E): DETAIL]. *)

type result = {
  events_run : int;
  executed : Model.event list;  (** what the engine ran, in order *)
  states : Mdst_core.State.t array;  (** the engine's final node states *)
  failure : failure option;
}

(** The two model parameterizations, for instantiating the functors of
    this library against [Proto.Default] and [Proto.Suppressed]. *)
module Default_params : sig val params : Model.params end

module Suppressed_params : sig val params : Model.params end

module Make (A : Mdst_sim.Node.AUTOMATON
               with type state = Mdst_core.State.t
                and type msg = Mdst_core.Msg.t) (_ : sig
  val params : Model.params
end) : sig
  val run :
    ?states:Mdst_core.State.t array ->
    ?premise:(Graph.t -> Mdst_core.State.t array -> Mdst_core.Msg.t list array -> bool) ->
    ?observe:(Mdst_core.State.t array -> unit) ->
    ?domains:int ->
    seed:int ->
    init:[ `Clean | `Random ] ->
    events:int ->
    chooser ->
    Graph.t ->
    result
  (** Create the engine from [seed], [init] and [domains] (default 1;
      stepping is sequential whatever the count) ([states], when given,
      replaces every node's state), seed the model from the engine's
      states and queued messages, and run up to [events] events.  The
      [premise] (e.g. {!Explore.premise}) is evaluated on every 4th event
      only; a closure breach is reported only where it provably held
      before the step, so throttling can miss one but never invent one.
      [observe] sees the node states after every conformant event (the
      fuzzer samples its fingerprints there).
      Exceptions from the chooser propagate. *)
end
