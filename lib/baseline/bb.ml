module Node = Mdst_sim.Node
module Graph = Mdst_graph.Graph
module Tree = Mdst_graph.Tree
module P = Mdst_util.Prng
module Sizing = Mdst_util.Sizing

(* ------------------------------------------------------------------ *)
(* Types                                                                *)
(* ------------------------------------------------------------------ *)

type nbr = { b_deg : int; b_dist : int; b_parent : int; b_fresh : bool }

type entry = { p_id : int; p_deg : int; p_dist : int }

(* (initiator, responder, score): score = max endpoint degree, lower is a
   more comfortable improvement. *)
type cand = int * int * int

type up_payload = Done_phase | Failed of (int * int)

type msg =
  | Share of { s_deg : int; s_dist : int; s_parent : int }
  | Gather of { g_seq : int }
  | Sub of { u_seq : int; u_ids : int list; u_submax : int }
  | Query of { q_seq : int; q_k : int }
  | Cands of { c_seq : int; c_cands : cand list }
  | Route of { r_target : int; r_edge : int * int; r_k : int }
  | Bsearch of { b_edge : int * int; b_k : int; b_stack : entry list; b_visited : int list }
  | Exec of { e_edge : int * int; e_target : int * int; e_segment : int list }
  | Reorient of { o_dist : int; o_segment : int list }
  | Up of up_payload

type wave_kind = Wgather | Wquery

type wave = {
  w_kind : wave_kind;
  w_seq : int;
  w_waiting : int list;  (* child ids still to reply *)
  w_ids : (int * int list) list;  (* per replying child: its subtree ids *)
  w_submax : int;
  w_cands : cand list;
}

type root_phase = Cooldown of int | Gathering | Querying | Probing of (int * int) | Done

type state = {
  parent : int;
  dist : int;
  nbrs : nbr array;
  child_subtrees : (int * int list) list;  (* the membership tables of [3] *)
  wave : wave option;
  k : int;  (* tree degree as last broadcast by the root *)
  (* root bookkeeping *)
  phase : root_phase;
  candidates : cand list;
  failed : (int * int) list;
  seq : int;
  stall : int;
  phases_done : int;
  finished_flag : bool;
}

let finished st = st.finished_flag

let phases st = st.phases_done

(* ------------------------------------------------------------------ *)
(* Local helpers                                                        *)
(* ------------------------------------------------------------------ *)

let slot_of ctx uid =
  let rec find i =
    if i >= Array.length ctx.Node.neighbor_ids then None
    else if ctx.Node.neighbor_ids.(i) = uid then Some i
    else find (i + 1)
  in
  find 0

let send_to ctx uid m =
  match slot_of ctx uid with Some s -> ctx.Node.send ctx.Node.neighbors.(s) m | None -> ()

let is_root ctx st = st.parent = ctx.Node.id

let is_tree_edge ctx st slot =
  let uid = ctx.Node.neighbor_ids.(slot) in
  st.parent = uid || (st.nbrs.(slot).b_fresh && st.nbrs.(slot).b_parent = ctx.Node.id)

let tree_degree ctx st =
  let d = ref 0 in
  for slot = 0 to Array.length ctx.Node.neighbors - 1 do
    if is_tree_edge ctx st slot then incr d
  done;
  !d

let children_ids ctx st =
  let acc = ref [] in
  Array.iteri
    (fun slot uid ->
      if st.nbrs.(slot).b_fresh && st.nbrs.(slot).b_parent = ctx.Node.id then acc := uid :: !acc)
    ctx.Node.neighbor_ids;
  !acc

(* Candidate improving edges incident to this node, under degree bound k:
   both endpoints must stay strictly below k - 1 after the swap. *)
let local_candidates ctx st ~k =
  let own = tree_degree ctx st in
  let acc = ref [] in
  Array.iteri
    (fun slot uid ->
      let v = st.nbrs.(slot) in
      if
        v.b_fresh
        && (not (is_tree_edge ctx st slot))
        && ctx.Node.id < uid
        && max own v.b_deg <= k - 2
      then acc := (ctx.Node.id, uid, max own v.b_deg) :: !acc)
    ctx.Node.neighbor_ids;
  !acc

let merge_cands a b =
  List.sort_uniq compare (a @ b)

(* ------------------------------------------------------------------ *)
(* Waves (gather / query broadcast + convergecast)                      *)
(* ------------------------------------------------------------------ *)

let start_wave ctx st ~kind ~seq ~k =
  let waiting = children_ids ctx st in
  let msg = match kind with Wgather -> Gather { g_seq = seq } | Wquery -> Query { q_seq = seq; q_k = k } in
  List.iter (fun c -> send_to ctx c msg) waiting;
  let wave =
    {
      w_kind = kind;
      w_seq = seq;
      w_waiting = waiting;
      w_ids = [];
      w_submax = tree_degree ctx st;
      w_cands = (match kind with Wquery -> local_candidates ctx st ~k | Wgather -> []);
    }
  in
  { st with wave = Some wave; k = (match kind with Wquery -> k | Wgather -> st.k) }

(* All children have replied: fold the wave's result into this node. *)
let rec finish_wave ctx st wave =
  let subtree_ids = ctx.Node.id :: List.concat_map snd wave.w_ids in
  if is_root ctx st then begin
    match wave.w_kind with
    | Wgather ->
        let k = wave.w_submax in
        let st = { st with child_subtrees = wave.w_ids; wave = None } in
        let st = { st with phase = Querying; seq = st.seq + 1; stall = 0 } in
        start_wave ctx st ~kind:Wquery ~seq:st.seq ~k
    | Wquery ->
        let candidates =
          List.filter
            (fun (u, v, _) -> not (List.mem (u, v) st.failed))
            (List.sort (fun (_, _, a) (_, _, b) -> compare a b) wave.w_cands)
        in
        let st = { st with wave = None; candidates; stall = 0 } in
        next_candidate ctx st
  end
  else begin
    match wave.w_kind with
    | Wgather ->
        send_to ctx st.parent
          (Sub { u_seq = wave.w_seq; u_ids = subtree_ids; u_submax = wave.w_submax });
        (* Only gather waves carry membership; query completions must not
           wipe the routing tables. *)
        { st with child_subtrees = wave.w_ids; wave = None }
    | Wquery ->
        send_to ctx st.parent (Cands { c_seq = wave.w_seq; c_cands = wave.w_cands });
        { st with wave = None }
  end

(* Root: pop the next candidate and probe it, or declare the fixpoint. *)
and next_candidate ctx st =
  match st.candidates with
  | [] ->
      if st.phase = Done then st
      else { st with phase = Done; finished_flag = true }
  | (u, v, _) :: rest ->
      let st = { st with candidates = rest; phase = Probing (u, v); stall = 0 } in
      route_down ctx st ~target:u (Route { r_target = u; r_edge = (u, v); r_k = st.k })

(* Route a message towards [target] using the membership tables. *)
and route_down ctx st ~target msg =
  if target = ctx.Node.id then st (* caller handles local delivery *)
  else begin
    match List.find_opt (fun (_, ids) -> List.mem target ids) st.child_subtrees with
    | Some (child, _) ->
        send_to ctx child msg;
        st
    | None ->
        (* Stale tables: report failure upwards (or handle at root). *)
        if is_root ctx st then
          match msg with
          | Route { r_edge; _ } ->
              next_candidate ctx { st with failed = r_edge :: st.failed }
          | _ -> st
        else begin
          send_to ctx st.parent (Up (Failed (0, 0)));
          st
        end
  end

(* ------------------------------------------------------------------ *)
(* Cycle search (serialized DFS) and the swap                           *)
(* ------------------------------------------------------------------ *)

let self_entry ctx st = { p_id = ctx.Node.id; p_deg = tree_degree ctx st; p_dist = st.dist }

let continue_search ctx st ~edge ~k ~stack ~visited =
  let me = ctx.Node.id in
  let visited = if List.mem me visited then visited else me :: visited in
  let next = ref None in
  Array.iteri
    (fun slot uid ->
      if
        is_tree_edge ctx st slot
        && (not (List.mem uid visited))
        && (match !next with Some best -> uid < best | None -> true)
      then next := Some uid)
    ctx.Node.neighbor_ids;
  match !next with
  | Some uid ->
      send_to ctx uid
        (Bsearch { b_edge = edge; b_k = k; b_stack = stack @ [ self_entry ctx st ]; b_visited = visited })
  | None -> (
      match List.rev stack with
      | [] -> ()
      | last :: before_rev ->
          send_to ctx last.p_id
            (Bsearch { b_edge = edge; b_k = k; b_stack = List.rev before_rev; b_visited = visited }))

let send_up ctx st payload =
  if is_root ctx st then ()
  else send_to ctx st.parent (Up payload)

(* Execute a swap as [s]: adopt the improving edge, re-orient the segment. *)
let exec_swap ctx st ~edge ~segment =
  let _, t_id = edge in
  let t_dist =
    match slot_of ctx t_id with
    | Some slot when st.nbrs.(slot).b_fresh -> st.nbrs.(slot).b_dist
    | Some _ | None -> st.dist
  in
  let old_parent = st.parent in
  let st = { st with parent = t_id; dist = t_dist + 1 } in
  (match segment with
  | _ :: next :: _ when next = old_parent ->
      send_to ctx old_parent (Reorient { o_dist = st.dist; o_segment = segment })
  | _ ->
      (* Single-node segment: the old parent edge simply left the tree. *)
      send_up ctx st Done_phase);
  st

(* The responder decides on the discovered cycle. *)
let action_on_cycle ctx st ~edge ~k ~stack =
  let path = stack @ [ self_entry ctx st ] in
  let interior = match stack with [] -> [] | _ :: rest -> rest in
  let initiator_id = fst edge in
  let w_entry =
    List.fold_left
      (fun best e ->
        if e.p_deg < k then best
        else match best with Some b when b.p_id <= e.p_id -> best | _ -> Some e)
      None interior
  in
  match w_entry with
  | None ->
      send_up ctx st (Failed edge);
      st
  | Some w -> (
      let rec succ_of = function
        | a :: b :: _ when a.p_id = w.p_id -> Some b
        | _ :: rest -> succ_of rest
        | [] -> None
      in
      match succ_of path with
      | None ->
          send_up ctx st (Failed edge);
          st
      | Some z ->
          let lower = if w.p_dist > z.p_dist then w else z in
          let ids = List.map (fun e -> e.p_id) path in
          let pos id =
            let rec go i = function x :: r -> if x = id then i else go (i + 1) r | [] -> -1 in
            go 0 ids
          in
          let s_is_initiator = pos lower.p_id <= min (pos w.p_id) (pos z.p_id) in
          let rec take_until acc = function
            | [] -> None
            | x :: rest ->
                if x = lower.p_id then Some (List.rev (x :: acc)) else take_until (x :: acc) rest
          in
          let segment =
            if s_is_initiator then take_until [] ids else take_until [] (List.rev ids)
          in
          (match segment with
          | None | Some [] ->
              send_up ctx st (Failed edge);
              st
          | Some segment ->
              if s_is_initiator then begin
                send_to ctx initiator_id
                  (Exec
                     {
                       e_edge = (initiator_id, ctx.Node.id);
                       e_target = (lower.p_id, (if lower == w then z else w).p_id);
                       e_segment = segment;
                     });
                st
              end
              else exec_swap ctx st ~edge:(ctx.Node.id, initiator_id) ~segment))

(* ------------------------------------------------------------------ *)
(* Automaton                                                            *)
(* ------------------------------------------------------------------ *)

module Automaton = struct
  type nonrec state = state

  type nonrec msg = msg

  let name = "blin-butelle"

  let unknown = { b_deg = 0; b_dist = 0; b_parent = max_int; b_fresh = false }

  let init ctx =
    (* A proper configuration is normally installed via [state_of_tree];
       cold init treats every node as an isolated root, which this
       non-self-stabilizing algorithm does not repair — documented. *)
    {
      parent = ctx.Node.id;
      dist = 0;
      nbrs = Array.make (Array.length ctx.Node.neighbors) unknown;
      child_subtrees = [];
      wave = None;
      k = 0;
      phase = Cooldown 6;
      candidates = [];
      failed = [];
      seq = 0;
      stall = 0;
      phases_done = 0;
      finished_flag = false;
    }

  let random_state ctx rng =
    let st = init ctx in
    { st with dist = P.int rng ctx.Node.n }

  let random_msg _ _ = None

  let msg_label = function
    | Share _ -> "bb-share"
    | Gather _ | Sub _ -> "bb-gather"
    | Query _ | Cands _ -> "bb-query"
    | Route _ -> "bb-route"
    | Bsearch _ -> "bb-search"
    | Exec _ | Reorient _ -> "bb-swap"
    | Up _ -> "bb-up"

  let msg_bits ~n m =
    let id = Sizing.id_bits ~n in
    match m with
    | Share _ -> 3 * id
    | Gather _ | Query _ -> 2 * id
    | Sub { u_ids; _ } -> (2 * id) + Sizing.list_bits ~n id (List.length u_ids)
    | Cands { c_cands; _ } -> id + Sizing.list_bits ~n (3 * id) (List.length c_cands)
    | Route _ -> 4 * id
    | Bsearch { b_stack; b_visited; _ } ->
        (3 * id)
        + Sizing.list_bits ~n (3 * id) (List.length b_stack)
        + Sizing.list_bits ~n id (List.length b_visited)
    | Exec { e_segment; _ } -> (5 * id) + Sizing.list_bits ~n id (List.length e_segment)
    | Reorient { o_segment; _ } -> id + Sizing.list_bits ~n id (List.length o_segment)
    | Up _ -> 3 * id

  (* The membership tables dominate: Θ(n log n) on deep trees — the memory
     cost the paper's design avoids. *)
  let state_bits ~n st =
    let id = Sizing.id_bits ~n in
    let tables =
      List.fold_left
        (fun acc (_, ids) -> acc + id + Sizing.list_bits ~n id (List.length ids))
        0 st.child_subtrees
    in
    (5 * id) + (Array.length st.nbrs * 3 * id) + tables

  let on_tick ctx st =
    (* Gossip degrees / distances / parents. *)
    let payload = Share { s_deg = tree_degree ctx st; s_dist = st.dist; s_parent = st.parent } in
    Array.iter (fun nb -> ctx.Node.send nb payload) ctx.Node.neighbors;
    (* Distance repair after swaps. *)
    let st =
      if is_root ctx st then (if st.dist <> 0 then { st with dist = 0 } else st)
      else
        match slot_of ctx st.parent with
        | Some slot when st.nbrs.(slot).b_fresh && st.dist <> st.nbrs.(slot).b_dist + 1 ->
            { st with dist = st.nbrs.(slot).b_dist + 1 }
        | Some _ | None -> st
    in
    if not (is_root ctx st) then st
    else begin
      match st.phase with
      | Done -> st
      | Cooldown t when t > 0 -> { st with phase = Cooldown (t - 1) }
      | Cooldown _ ->
          (* Waves rely on the neighbour mirrors (children discovery); hold
             until the first gossip exchange completed. *)
          if not (Array.for_all (fun v -> v.b_fresh) st.nbrs) then { st with phase = Cooldown 1 }
          else begin
            let st = { st with phase = Gathering; seq = st.seq + 1; stall = 0 } in
            start_wave ctx st ~kind:Wgather ~seq:st.seq ~k:st.k
          end
      | Gathering | Querying | Probing _ ->
          let st = { st with stall = st.stall + 1 } in
          if st.stall > 8 * ctx.Node.n then
            (* Lost wave or probe: restart from a fresh gather. *)
            let st =
              match st.phase with
              | Probing edge -> { st with failed = edge :: st.failed }
              | Gathering | Querying | Cooldown _ | Done -> st
            in
            let st = { st with phase = Gathering; seq = st.seq + 1; stall = 0; wave = None } in
            start_wave ctx st ~kind:Wgather ~seq:st.seq ~k:st.k
          else st
    end

  let absorb_reply ctx st ~seq ~child ~ids ~submax ~cands =
    match st.wave with
    | Some w when w.w_seq = seq && List.mem child w.w_waiting ->
        let w =
          {
            w with
            w_waiting = List.filter (fun c -> c <> child) w.w_waiting;
            w_ids = (match ids with Some l -> (child, l) :: w.w_ids | None -> w.w_ids);
            w_submax = max w.w_submax submax;
            w_cands = merge_cands w.w_cands cands;
          }
        in
        let st = { st with wave = Some w; stall = 0 } in
        if w.w_waiting = [] then finish_wave ctx st w else st
    | Some _ | None -> st

  let on_message ctx st ~src m =
    let sender =
      let rec find k =
        if k >= Array.length ctx.Node.neighbors then -1
        else if ctx.Node.neighbors.(k) = src then ctx.Node.neighbor_ids.(k)
        else find (k + 1)
      in
      find 0
    in
    match m with
    | Share { s_deg; s_dist; s_parent } -> (
        match slot_of ctx sender with
        | Some slot ->
            let nbrs = Array.copy st.nbrs in
            nbrs.(slot) <- { b_deg = s_deg; b_dist = s_dist; b_parent = s_parent; b_fresh = true };
            { st with nbrs }
        | None -> st)
    | Gather { g_seq } ->
        if sender <> st.parent then st
        else begin
          let st = start_wave ctx st ~kind:Wgather ~seq:g_seq ~k:st.k in
          match st.wave with
          | Some w when w.w_waiting = [] -> finish_wave ctx st w
          | Some _ | None -> st
        end
    | Query { q_seq; q_k } ->
        if sender <> st.parent then st
        else begin
          let st = start_wave ctx st ~kind:Wquery ~seq:q_seq ~k:q_k in
          match st.wave with
          | Some w when w.w_waiting = [] -> finish_wave ctx st w
          | Some _ | None -> st
        end
    | Sub { u_seq; u_ids; u_submax } ->
        absorb_reply ctx st ~seq:u_seq ~child:sender ~ids:(Some u_ids) ~submax:u_submax ~cands:[]
    | Cands { c_seq; c_cands } ->
        absorb_reply ctx st ~seq:c_seq ~child:sender ~ids:None ~submax:0 ~cands:c_cands
    | Route { r_target; r_edge; r_k } ->
        if r_target = ctx.Node.id then begin
          (* We are the initiator: launch the serialized cycle search. *)
          continue_search ctx st ~edge:r_edge ~k:r_k ~stack:[] ~visited:[];
          st
        end
        else route_down ctx st ~target:r_target m
    | Bsearch { b_edge; b_k; b_stack; b_visited } ->
        if ctx.Node.id = snd b_edge then action_on_cycle ctx st ~edge:b_edge ~k:b_k ~stack:b_stack
        else begin
          continue_search ctx st ~edge:b_edge ~k:b_k ~stack:b_stack ~visited:b_visited;
          st
        end
    | Exec { e_edge; e_segment; _ } ->
        if fst e_edge = ctx.Node.id then exec_swap ctx st ~edge:e_edge ~segment:e_segment else st
    | Reorient { o_dist; o_segment } ->
        (* Flip towards the sender, then forward along the segment: the next
           segment element is our old parent unless we are [lower]. *)
        let old_parent = st.parent in
        let st = { st with parent = sender; dist = o_dist + 1 } in
        let rec next_after = function
          | a :: b :: rest -> if a = ctx.Node.id then Some b else next_after (b :: rest)
          | _ -> None
        in
        (match next_after o_segment with
        | Some next when next = old_parent ->
            send_to ctx old_parent (Reorient { o_dist = st.dist; o_segment })
        | Some _ | None -> send_up ctx st Done_phase);
        st
    | Up payload ->
        if not (is_root ctx st) then begin
          send_to ctx st.parent (Up payload);
          st
        end
        else begin
          match (payload, st.phase) with
          | Done_phase, Probing _ ->
              {
                st with
                phases_done = st.phases_done + 1;
                failed = [];
                phase = Cooldown (2 * ctx.Node.n);
                candidates = [];
              }
          | Failed edge, Probing current when edge = current || edge = (0, 0) ->
              next_candidate ctx { st with failed = current :: st.failed }
          | (Done_phase | Failed _), _ -> st
        end
end

(* ------------------------------------------------------------------ *)
(* Harness                                                              *)
(* ------------------------------------------------------------------ *)

let state_of_tree tree ctx _rng =
  let graph = Tree.graph tree in
  let v = Graph.index_of_id graph ctx.Node.id in
  let st = Automaton.init ctx in
  let parent = if Tree.parent tree v = v then ctx.Node.id else Graph.id graph (Tree.parent tree v) in
  { st with parent; dist = Tree.depth tree v }

let debug_dump st =
  let phase =
    match st.phase with
    | Cooldown t -> Printf.sprintf "cooldown(%d)" t
    | Gathering -> "gathering"
    | Querying -> "querying"
    | Probing (u, v) -> Printf.sprintf "probing(%d,%d)" u v
    | Done -> "done"
  in
  Printf.sprintf
    "parent=%d dist=%d k=%d phase=%s seq=%d cands=%d failed=%d phases=%d fresh=%d/%d kids=%d wave=%s tables=%d"
    st.parent st.dist st.k phase st.seq (List.length st.candidates) (List.length st.failed)
    st.phases_done
    (Array.fold_left (fun a v -> if v.b_fresh then a + 1 else a) 0 st.nbrs)
    (Array.length st.nbrs)
    (Array.fold_left (fun a v -> if v.b_fresh && v.b_parent <> max_int then a + 1 else a) 0 st.nbrs)
    (match st.wave with
    | None -> "-"
    | Some w -> Printf.sprintf "%s#%d(wait %d)" (match w.w_kind with Wgather -> "g" | Wquery -> "q") w.w_seq (List.length w.w_waiting))
    (List.length st.child_subtrees)

type result = {
  converged : bool;
  rounds : int;
  degree : int option;
  total_messages : int;
  max_state_bits : int;
  phases_run : int;
}

module Sim = Mdst_sim.Pengine.Make (Automaton)

let extract_degree graph states =
  let n = Graph.n graph in
  let parents = Array.make n (-1) in
  let root = ref None in
  let ok = ref true in
  Array.iteri
    (fun v (st : state) ->
      if st.parent = Graph.id graph v then begin
        parents.(v) <- v;
        match !root with None -> root := Some v | Some _ -> ok := false
      end
      else
        match Graph.index_of_id graph st.parent with
        | p when Graph.mem_edge graph v p -> parents.(v) <- p
        | _ -> ok := false
        | exception Not_found -> ok := false)
    states;
  match (!ok, !root) with
  | true, Some root -> (
      match Tree.of_parents graph ~root parents with
      | tree -> Some (Tree.max_degree tree)
      | exception Tree.Invalid _ -> None)
  | _ -> None

let converge ?(latency = Mdst_sim.Latency.uniform ()) ?(seed = 42) ?(max_rounds = 200_000) ?tree
    graph =
  let root = Graph.min_id_node graph in
  let tree = match tree with Some t -> t | None -> Mdst_graph.Algo.bfs_tree graph ~root in
  let root = Tree.root tree in
  let engine = Sim.create ~latency ~seed ~init:(`Custom (state_of_tree tree)) graph in
  let root_done t = finished (Sim.state t root) in
  let outcome = Sim.run engine ~max_rounds ~check_every:2 ~stop:root_done () in
  let metrics = Sim.metrics engine in
  {
    converged = outcome.converged;
    rounds = outcome.rounds;
    degree = extract_degree graph (Sim.states engine);
    total_messages = Mdst_sim.Metrics.total_messages metrics;
    max_state_bits = Mdst_sim.Metrics.max_state_bits metrics;
    phases_run = phases (Sim.state engine root);
  }
