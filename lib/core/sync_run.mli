(** The protocol under the synchronous daemon
    ({!Mdst_sim.Pengine.Make.step_sync}, a round at a time).

    Same convergence detection as {!Run} (legitimacy + quiescence +
    optional fixpoint oracle), evaluated after every round, but rounds are
    lockstep rounds.  Used by experiment E12 to show the guarantees are
    daemon-independent. *)

type result = {
  converged : bool;
  rounds : int;
  tree : Mdst_graph.Tree.t option;
  degree : int option;
  total_messages : int;
  fingerprint : int;  (** {!Checker.fingerprint} of the final states *)
}

val converge :
  ?seed:int ->
  ?init:Run.init ->
  ?max_rounds:int ->
  ?quiet_rounds:int ->
  ?fixpoint:(Mdst_graph.Tree.t -> bool) ->
  Mdst_graph.Graph.t ->
  result
