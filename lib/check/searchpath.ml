(* The fundamental-cycle detection invariant as a property: see the mli.

   The spy automaton wraps the default protocol and mirrors the responder
   guard of [Proto.handle_search] exactly — a completed search is one
   whose Search message reaches the responder endpoint while the node is
   locally stabilized and the closing edge is a non-tree edge.  At that
   moment the carried stack (most-recent-first, responder excluded) is the
   protocol's claim of the fundamental-cycle tree path, which we check
   against the actual parent pointers. *)

module Graph = Mdst_graph.Graph
module Prng = Mdst_util.Prng
module State = Mdst_core.State
module Msg = Mdst_core.Msg
module Run = Mdst_core.Run

(* Completed searches: (initiator, responder, forward path ids, initiator
   first and responder last).  Module-level because the automaton functor
   offers no instance state; the harness clears it per phase. *)
let completed : (int * int * int list) Queue.t = Queue.create ()

module Spy = struct
  module A = Mdst_core.Proto.Default

  type state = A.state

  type msg = A.msg

  let name = A.name ^ "-search-spy"

  let init = A.init

  let random_state = A.random_state

  let random_msg = A.random_msg

  let on_tick = A.on_tick

  let on_message ctx st ~src msg =
    (match msg with
    | Msg.Search { s_edge = initiator_id, responder_id; s_stack; _ }
      when ctx.Mdst_sim.Node.id = responder_id && State.locally_stabilized ctx st -> (
        match State.slot_of ctx initiator_id with
        | Some slot when not (State.is_tree_edge ctx st slot) ->
            let ids =
              List.rev_map (fun e -> e.Msg.e_id) s_stack @ [ ctx.Mdst_sim.Node.id ]
            in
            Queue.add (initiator_id, responder_id, ids) completed
        | Some _ | None -> ())
    | _ -> ());
    A.on_message ctx st ~src msg

  let msg_label = A.msg_label

  let msg_bits = A.msg_bits

  let state_bits = A.state_bits
end

module R = Run.Runner (Spy)

type case = { graph : Graph.t; seed : int }

let case_to_string c = String.concat ";" (Repro.common c.graph ~seed:c.seed)

let gen_case ?min_n ?max_n () rng =
  {
    graph = Gen.connected_graph ?min_n ?max_n () (Prng.split rng);
    seed = Prng.int rng 1_000_000;
  }

let shrink_case c = Seq.map (fun graph -> { c with graph }) (Shrink.graph c.graph)

(* The exact tree path u..v through their lowest common ancestor, walking a
   parent map.  [None] when the walk does not terminate within [n] hops —
   the parent pointers are then not a forest, which the legitimacy gate
   should have excluded. *)
let tree_path ~n ~parent_of u v =
  let exception Runaway in
  let depth = Hashtbl.create 16 in
  try
    let rec up fuel x =
      if fuel < 0 then raise Runaway;
      Hashtbl.replace depth x ();
      let p = parent_of x in
      if p <> x then up (fuel - 1) p
    in
    up n u;
    let rec from_v fuel acc x =
      if fuel < 0 then raise Runaway
      else if Hashtbl.mem depth x then (x, acc)
      else from_v (fuel - 1) (x :: acc) (parent_of x)
    in
    let lca, tail = from_v n [] v in
    let rec from_u fuel acc x =
      if fuel < 0 then raise Runaway
      else if x = lca then List.rev (x :: acc)
      else from_u (fuel - 1) (x :: acc) (parent_of x)
    in
    Some (from_u n [] u @ tail)
  with Runaway -> None

let rec distinct = function
  | [] -> true
  | x :: rest -> (not (List.mem x rest)) && distinct rest

(* Run one case: clean start to legitimacy + FR fixpoint, snapshot the (now
   final) parent pointers, then keep the self-stabilizing run going for a
   window with the spy recording.  Every search completing on the static
   tree must report the exact fundamental-cycle path. *)
let observe ?(extra_rounds = 400) case =
  let fixpoint t = not (Mdst_baseline.Fr.improvable t) in
  let engine = R.make_engine ~seed:case.seed ~init:`Clean case.graph in
  let stop = R.make_stop ~fixpoint () in
  let outcome = R.Sim.run engine ~max_rounds:30_000 ~check_every:2 ~stop () in
  if not outcome.converged then Error "no convergence from a clean start"
  else begin
    let parent_map () =
      let tbl = Hashtbl.create (Graph.n case.graph) in
      Array.iteri
        (fun v (st : State.t) -> Hashtbl.replace tbl (Graph.id case.graph v) st.State.parent)
        (R.Sim.states engine);
      tbl
    in
    let before = parent_map () in
    Queue.clear completed;
    let _ =
      R.Sim.run engine
        ~max_rounds:(R.Sim.rounds engine + extra_rounds)
        ~check_every:4
        ~stop:(fun _ -> false)
        ()
    in
    let after = parent_map () in
    if before <> after then Error "closure violated: parent pointers moved after convergence"
    else begin
      let recorded = List.of_seq (Queue.to_seq completed) in
      Queue.clear completed;
      Ok (recorded, before)
    end
  end

let check_recorded ~graph ~parents (initiator, responder, ids) =
  let n = Graph.n graph in
  let parent_of x = match Hashtbl.find_opt parents x with Some p -> p | None -> x in
  let adjacent u v =
    match Graph.index_of_id graph u with
    | iu -> Array.exists (fun s -> Graph.id graph s = v) (Graph.neighbors graph iu)
    | exception _ -> false
  in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let pp_ids ids = String.concat "," (List.map string_of_int ids) in
  match ids with
  | [] -> err "empty path for edge %d-%d" initiator responder
  | first :: _ ->
      let last = List.nth ids (List.length ids - 1) in
      if first <> initiator then err "path %s does not start at initiator %d" (pp_ids ids) initiator
      else if last <> responder then err "path %s does not end at responder %d" (pp_ids ids) responder
      else if not (distinct ids) then err "path %s revisits a node" (pp_ids ids)
      else if List.length ids > n then err "path %s longer than n = %d" (pp_ids ids) n
      else if not (adjacent initiator responder) then
        err "closing edge %d-%d not in the graph" initiator responder
      else if parent_of initiator = responder || parent_of responder = initiator then
        err "closing edge %d-%d is a tree edge" initiator responder
      else
        match tree_path ~n ~parent_of initiator responder with
        | None -> err "parent pointers are not a forest"
        | Some expected ->
            if ids = expected then Ok ()
            else err "path %s differs from the tree path %s" (pp_ids ids) (pp_ids expected)

let prop case =
  match observe case with
  | Error _ as e -> e
  | Ok (recorded, parents) ->
      let rec all = function
        | [] -> Ok ()
        | r :: rest -> (
            match check_recorded ~graph:case.graph ~parents r with
            | Ok () -> all rest
            | Error _ as e -> e)
      in
      all recorded

let property ?min_n ?max_n () =
  Property.make ~name:"proto:search-path-exact"
    ~gen:(gen_case ?min_n ?max_n ())
    ~shrink:shrink_case ~print:case_to_string prop

(* Non-vacuity helper for the bounded suite: how many searches actually
   completed on this case.  A property that silently observes nothing
   would pass for the wrong reason. *)
let completed_count case =
  match observe case with Ok (recorded, _) -> List.length recorded | Error _ -> -1
