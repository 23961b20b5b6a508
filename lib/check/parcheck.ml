(* Conformance for the sharded parallel engine.  See parcheck.mli for the
   two statements. *)

module Graph = Mdst_graph.Graph
module Model = Mdst_model.Model
module Checker = Mdst_core.Checker

type case = {
  graph : Graph.t;
  seed : int;
  init : [ `Clean | `Random ];
  domains : int;
  until : float;  (* virtual-time horizon of the recorded run *)
}

type report = { events : int; failure : string option }

type equiv = {
  per_domain : (int * bool * int) list;  (* domains, converged, fingerprint *)
  agree : bool;
}

module Make (A : Mdst_sim.Node.AUTOMATON
               with type state = Mdst_core.State.t
                and type msg = Mdst_core.Msg.t) (P : sig
  val params : Model.params
end) =
struct
  module PE = Mdst_sim.Pengine.Make (A)
  module L = Lockstep.Make (A) (P)
  module R = Mdst_core.Run.Runner (A)

  let replay ~seed ~init ~final sched graph =
    let events = Array.length sched in
    match L.run ~seed ~init ~events (Lockstep.Pick (Lockstep.strict sched)) graph with
    | exception Failure why -> Some ("sequential engine rejected the schedule: " ^ why)
    | { Lockstep.failure = Some f; _ } -> Some ("model divergence at " ^ Lockstep.describe f)
    | { Lockstep.states; _ } ->
        Array.find_index Fun.id (Array.map2 ( <> ) final states)
        |> Option.map (fun v ->
               Printf.sprintf
                 "sequential replay final state differs at node %d after %d events" v events)

  let run_case case =
    let pe =
      PE.create ~seed:case.seed ~init:(case.init :> PE.init) ~record:true
        ~domains:case.domains case.graph
    in
    PE.run_window pe ~until:case.until;
    let sched =
      Array.map
        (fun (_, (ev : PE.sched_event)) ->
          match ev with
          | PE.Sched_tick { node } -> Model.Tick node
          | PE.Sched_deliver { src; dst } -> Model.Deliver { src; dst })
        (PE.schedule pe)
    in
    {
      events = Array.length sched;
      failure = replay ~seed:case.seed ~init:case.init ~final:(PE.states pe) sched case.graph;
    }

  let fingerprint_equivalence ?quiet_rounds ?(max_rounds = 60_000) ?window ~seed ~init
      ~domains graph =
    let per_domain =
      List.map
        (fun d ->
          let e = R.make_pengine ~seed ~init:(init :> Mdst_core.Run.init) ~domains:d graph in
          let stop = R.make_pstop ?quiet_rounds () in
          let o = R.Pengine.run e ~max_rounds ?window ~stop () in
          (d, o.R.Pengine.converged, Checker.fingerprint (R.Pengine.states e)))
        domains
    in
    let agree =
      match per_domain with
      | [] -> true
      | (_, c0, fp0) :: rest -> List.for_all (fun (_, c, fp) -> c = c0 && fp = fp0) rest
    in
    { per_domain; agree }
end

module Default = Make (Mdst_core.Proto.Default) (Lockstep.Default_params)
