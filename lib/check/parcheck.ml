(* Shard-count invariance of the engine.  See parcheck.mli. *)

module Graph = Mdst_graph.Graph
module Checker = Mdst_core.Checker

type case = {
  graph : Graph.t;
  seed : int;
  init : [ `Clean | `Random ];
  domains : int list;
  until : float;
}

type report = { events : int; failure : string option }

type equiv = {
  per_domain : (int * bool * int) list;  (* domains, converged, fingerprint *)
  agree : bool;
}

module Make (A : Mdst_sim.Node.AUTOMATON
               with type state = Mdst_core.State.t
                and type msg = Mdst_core.Msg.t) =
struct
  module R = Mdst_core.Run.Runner (A)

  (* The observer timeline (every tick, delivery and fault action with
     its round and time) and the final states of a run to the horizon. *)
  let record case domains =
    let e =
      R.make_engine ~seed:case.seed ~init:(case.init :> Mdst_core.Run.init) ~domains case.graph
    in
    let timeline = ref [] in
    R.Sim.observe e (fun o -> timeline := o :: !timeline);
    R.Sim.run_window e ~until:case.until;
    (Array.of_list (List.rev !timeline), Array.copy (R.Sim.states e))

  let run_case case =
    match case.domains with
    | [] -> { events = 0; failure = None }
    | d0 :: rest ->
        let sched0, final0 = record case d0 in
        let differs d =
          let sched, final = record case d in
          let at = Seq.zip (Array.to_seq sched0) (Array.to_seq sched) in
          match Seq.find_index (fun (a, b) -> a <> b) at with
          | Some i ->
              Some (Printf.sprintf "domains=%d: timeline differs from domains=%d at event %d" d d0 i)
          | None when Array.length sched <> Array.length sched0 ->
              Some
                (Printf.sprintf "domains=%d: %d events, domains=%d: %d" d (Array.length sched) d0
                   (Array.length sched0))
          | None ->
              Array.find_index Fun.id (Array.map2 ( <> ) final0 final)
              |> Option.map (Printf.sprintf "domains=%d: final state of node %d differs" d)
        in
        { events = Array.length sched0; failure = List.find_map differs rest }

  let fingerprint_equivalence ?quiet_rounds ?(max_rounds = 60_000) ?window ~seed ~init
      ~domains graph =
    let per_domain =
      List.map
        (fun d ->
          let e = R.make_engine ~seed ~init:(init :> Mdst_core.Run.init) ~domains:d graph in
          let stop = R.make_stop ?quiet_rounds () in
          let o = R.Sim.run e ~max_rounds ?window ~stop () in
          (d, o.R.Sim.converged, Checker.fingerprint (R.Sim.states e)))
        domains
    in
    let agree =
      match per_domain with
      | [] -> true
      | (_, c0, fp0) :: rest -> List.for_all (fun (_, c, fp) -> c = c0 && fp = fp0) rest
    in
    { per_domain; agree }
end

module Default = Make (Mdst_core.Proto.Default)
