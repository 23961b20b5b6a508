(** Conformance checks for the sharded parallel engine ({!Mdst_sim.Pengine}).

    [run_case] records the merged [(time, shard, seq)] schedule of a
    k-shard run and replays it strictly through the sequential engine in
    {!Lockstep} with the pure reference model: every recorded event must
    be eligible, engine and model must agree after every event, and the
    final states must equal the sharded run's exactly — the two engines
    share handler code and per-node protocol streams, so acceptance means
    the sharding changed nothing about what executed.

    [fingerprint_equivalence] converges one (seed, init) under several
    shard counts and requires identical quiescence fingerprints: the
    sharded engine's timestamps do not depend on the shard count, so the
    stabilized configurations must agree bit for bit.  This is the
    standing cross-validation behind the [pardet] CLI command and the CI
    multi-domain smoke job. *)

type case = {
  graph : Mdst_graph.Graph.t;
  seed : int;
  init : [ `Clean | `Random ];
  domains : int;
  until : float;  (** virtual-time horizon of the recorded run *)
}

type report = {
  events : int;  (** events executed and replayed *)
  failure : string option;  (** [None] = conformant *)
}

type equiv = {
  per_domain : (int * bool * int) list;  (** (domains, converged, fingerprint) *)
  agree : bool;
}

module Make (A : Mdst_sim.Node.AUTOMATON
               with type state = Mdst_core.State.t
                and type msg = Mdst_core.Msg.t) (_ : sig
  val params : Mdst_model.Model.params
end) : sig
  val run_case : case -> report

  val replay :
    seed:int ->
    init:[ `Clean | `Random ] ->
    final:Mdst_core.State.t array ->
    Mdst_model.Model.event array ->
    Mdst_graph.Graph.t ->
    string option
  (** The replay behind [run_case]: the schedule, strictly, through the
      sequential engine in {!Lockstep} with the model, after which the
      engine's final states must equal [final].  [None] = conformant. *)

  val fingerprint_equivalence :
    ?quiet_rounds:int ->
    ?max_rounds:int ->
    ?window:float ->
    seed:int ->
    init:[ `Clean | `Random ] ->
    domains:int list ->
    Mdst_graph.Graph.t ->
    equiv
end

module Default : module type of Make (Mdst_core.Proto.Default) (Lockstep.Default_params)
