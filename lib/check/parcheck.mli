(** Shard-count invariance of the engine ({!Mdst_sim.Pengine}).

    [run_case] records the observer timeline (merged in [(time, key)]
    order at each barrier) and the final states of one window-driven run
    per shard count and requires them to be identical: the engine's trace
    does not depend on the number of shards,
    so any difference is a sharding bug (a lost or duplicated mailbox
    event, a racy tie-break, a window bound that let a shard run past a
    peer's send).

    [fingerprint_equivalence] converges one (seed, init) under several
    shard counts and requires identical quiescence fingerprints.  Both
    back the [pardet] CLI command and the CI multi-domain smoke job. *)

type case = {
  graph : Mdst_graph.Graph.t;
  seed : int;
  init : [ `Clean | `Random ];
  domains : int list;  (** shard counts compared, each against the first *)
  until : float;  (** virtual-time horizon of the recorded runs *)
}

type report = {
  events : int;  (** observations in the first shard count's timeline *)
  failure : string option;  (** [None] = identical at every shard count *)
}

type equiv = {
  per_domain : (int * bool * int) list;  (** (domains, converged, fingerprint) *)
  agree : bool;
}

module Make (A : Mdst_sim.Node.AUTOMATON
               with type state = Mdst_core.State.t
                and type msg = Mdst_core.Msg.t) : sig
  val run_case : case -> report

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

module Default : module type of Make (Mdst_core.Proto.Default)
