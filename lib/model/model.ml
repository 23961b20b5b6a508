(* Executable reference model of the MDST protocol composition.

   Everything here follows docs/PROTOCOL.md in plain specification style:
   structural recursion over lists, no in-place scans, no fast paths, no
   sharing.  The one concession to the implementation is the per-node state
   type ([Mdst_core.State.t]) itself, reused so the conformance driver can
   diff real and model state field by field; the step logic is written from
   the rules, not from [Proto]'s handlers.

   Conventions shared with the real system that the rules depend on:
   - a node's neighbour slots follow [Graph.neighbors] order (sorted dense
     indices), and [slot_of] resolves a protocol identifier to the first
     matching slot;
   - messages a handler sends are appended to their channel in send-call
     order (the engine's per-channel FIFO floor guarantees the same);
   - the sender of a delivered message is identified by translating its
     dense index through the receiver's neighbour table. *)

module Graph = Mdst_graph.Graph
module Intset = Mdst_util.Intset
module State = Mdst_core.State
module Msg = Mdst_core.Msg

type params = {
  busy_ttl : int;
  deblock_ttl : int;
  eager_prune : bool;
  enable_deblock : bool;
  enable_reduction : bool;
  graceful_reattach : bool;
  search_on_info : bool;
  info_suppression : bool;
  info_refresh_every : int;
  search_refresh_every : int;
}

let default =
  {
    busy_ttl = 16;
    deblock_ttl = 24;
    eager_prune = true;
    enable_deblock = true;
    enable_reduction = true;
    graceful_reattach = false;
    search_on_info = false;
    info_suppression = false;
    info_refresh_every = 8;
    search_refresh_every = 32;
  }

let suppressed = { default with info_suppression = true }

type config = {
  graph : Graph.t;
  params : params;
  nodes : State.t array;
  channels : Msg.t list array;
}

type event = Tick of int | Deliver of { src : int; dst : int }

(* The node-local lens: what one rule application may read, plus the send
   effect collected by [step]. *)
type local = {
  p : params;
  id : int;  (* protocol identifier *)
  n : int;
  nbrs : int array;  (* dense indices, Graph.neighbors order *)
  nbr_ids : int array;  (* protocol identifiers, same order *)
  send : int -> Msg.t -> unit;  (* by slot *)
}

let slots l = List.init (Array.length l.nbrs) Fun.id

let slot_of l nid =
  let rec find k =
    if k >= Array.length l.nbr_ids then None
    else if l.nbr_ids.(k) = nid then Some k
    else find (k + 1)
  in
  find 0

let send_to_id l id msg = match slot_of l id with Some slot -> l.send slot msg | None -> ()

let lock_ttl l = l.p.busy_ttl + (8 * l.n)

(* ---------------------------------------------------------------- *)
(* Local tree structure and the paper predicates (§3.1)              *)
(* ---------------------------------------------------------------- *)

let is_tree_edge l (st : State.t) slot =
  let uid = l.nbr_ids.(slot) in
  st.State.parent = uid
  || (st.views.(slot).State.w_fresh && st.views.(slot).State.w_parent = l.id)

let tree_degree l st = List.length (List.filter (is_tree_edge l st) (slots l))

let tree_children_slots l (st : State.t) =
  List.filter
    (fun slot ->
      let v = st.State.views.(slot) in
      v.State.w_fresh && v.w_parent = l.id)
    (slots l)

let better_parent l (st : State.t) =
  List.exists
    (fun slot ->
      let v = st.State.views.(slot) in
      v.State.w_fresh && v.w_root < st.root && v.w_dist < l.n)
    (slots l)

let coherent_parent l (st : State.t) =
  if st.State.parent = l.id then st.root = l.id
  else
    match slot_of l st.State.parent with
    | None -> false
    | Some slot ->
        let v = st.views.(slot) in
        (not v.State.w_fresh) || v.w_root = st.root

let coherent_distance l (st : State.t) =
  if st.State.parent = l.id then st.dist = 0
  else
    st.State.dist >= 0
    && st.dist <= l.n
    &&
    match slot_of l st.State.parent with
    | None -> false
    | Some slot ->
        let v = st.views.(slot) in
        (not v.State.w_fresh) || st.dist = v.w_dist + 1

let new_root_candidate l st =
  (not (coherent_parent l st)) || (not (coherent_distance l st)) || st.State.root > l.id

let tree_stabilized l st = (not (better_parent l st)) && not (new_root_candidate l st)

let degree_stabilized (st : State.t) =
  Array.for_all (fun v -> v.State.w_fresh && v.w_dmax = st.dmax) st.State.views

let color_stabilized (st : State.t) =
  Array.for_all (fun v -> v.State.w_fresh && v.w_color = st.color) st.State.views

let locally_stabilized l st =
  tree_stabilized l st && degree_stabilized st && color_stabilized st

(* ---------------------------------------------------------------- *)
(* Gossip                                                            *)
(* ---------------------------------------------------------------- *)

let info_of l (st : State.t) =
  {
    Msg.i_root = st.root;
    i_parent = st.parent;
    i_dist = st.dist;
    i_deg = tree_degree l st;
    i_dmax = st.dmax;
    i_color = st.color;
    i_subtree_max = st.subtree_max;
  }

let broadcast_info l (st : State.t) =
  if not l.p.info_suppression then begin
    List.iter (fun slot -> l.send slot (Msg.Info (info_of l st))) (slots l);
    st
  end
  else
    (* Dirty-bit suppression: elide the broadcast while the public
       variables equal the last snapshot actually sent, refreshing
       unconditionally every [info_refresh_every] ticks. *)
    let unchanged = match st.State.last_info with Some last -> last = info_of l st | None -> false in
    if unchanged && st.State.info_age + 1 < l.p.info_refresh_every then
      { st with State.info_age = st.info_age + 1 }
    else begin
      let i = info_of l st in
      List.iter (fun slot -> l.send slot (Msg.Info i)) (slots l);
      { st with State.last_info = Some i; info_age = 0 }
    end

(* Writing a mirror slot restarts the Search window exactly when the
   written value differs from the one it replaces. *)
let write_view (st : State.t) slot view =
  let views = Array.copy st.State.views in
  views.(slot) <- view;
  let search_quiet = if st.State.views.(slot) = view then st.search_quiet else 0 in
  { st with State.views; search_quiet }

let update_view (st : State.t) slot (i : Msg.info) =
  write_view st slot
    {
      State.w_root = i.Msg.i_root;
      w_parent = i.i_parent;
      w_dist = i.i_dist;
      w_deg = i.i_deg;
      w_dmax = i.i_dmax;
      w_color = i.i_color;
      w_subtree_max = i.i_subtree_max;
      w_fresh = true;
    }

(* ---------------------------------------------------------------- *)
(* Spanning-tree module (rules R1 / R2)                              *)
(* ---------------------------------------------------------------- *)

let create_new_root l (st : State.t) = { st with State.root = l.id; parent = l.id; dist = 0 }

let try_graceful_reattach l (st : State.t) =
  if (not l.p.graceful_reattach) || st.State.parent = l.id || st.root > l.id then None
  else
    let orphaned =
      match slot_of l st.State.parent with
      | None -> true
      | Some slot ->
          let v = st.views.(slot) in
          v.State.w_fresh && v.w_root <> st.root && v.w_root = st.parent
    in
    if not orphaned then None
    else
      (* Fresh same-root neighbour at minimal (strictly improving) depth;
         earlier slot wins ties because only a strictly smaller distance
         replaces the candidate. *)
      let best =
        List.fold_left
          (fun best slot ->
            let v = st.State.views.(slot) in
            if
              v.State.w_fresh
              && l.nbr_ids.(slot) <> st.parent
              && v.w_root = st.root
              && v.w_dist <= st.dist
              && v.w_dist < l.n
              && (match best with Some (d, _) -> v.w_dist < d | None -> true)
            then Some (v.State.w_dist, l.nbr_ids.(slot))
            else best)
          None (slots l)
      in
      match best with
      | Some (dist, parent_id) -> Some { st with State.parent = parent_id; dist = dist + 1 }
      | None -> None

(* Distance-only defect: coherent parent, no better own root, and a fresh
   parent mirror whose distance plus one is below n — take that distance
   rather than resetting to root. *)
let repair_distance l (st : State.t) =
  if st.State.parent = l.id || st.root > l.id || not (coherent_parent l st) then None
  else
    match slot_of l st.State.parent with
    | Some slot ->
        let v = st.views.(slot) in
        if v.State.w_fresh && v.w_dist >= 0 && v.w_dist + 1 < l.n then
          Some { st with State.dist = v.w_dist + 1 }
        else None
    | None -> None

let apply_tree_rules l (st : State.t) =
  match try_graceful_reattach l st with
  | Some st -> st
  | None ->
      if new_root_candidate l st then
        match repair_distance l st with Some st -> st | None -> create_new_root l st
      else if better_parent l st then
        (* R1: adopt the fresh neighbour minimizing (claimed root, id). *)
        let best =
          List.fold_left
            (fun best slot ->
              let v = st.State.views.(slot) in
              if v.State.w_fresh && v.w_root < st.root && v.w_dist < l.n then
                match best with
                | None -> Some slot
                | Some b ->
                    let bv = st.views.(b) in
                    if
                      v.w_root < bv.State.w_root
                      || (v.w_root = bv.State.w_root && l.nbr_ids.(slot) < l.nbr_ids.(b))
                    then Some slot
                    else best
              else best)
            None (slots l)
        in
        (match best with
        | None -> st
        | Some slot ->
            let v = st.views.(slot) in
            { st with State.root = v.State.w_root; parent = l.nbr_ids.(slot); dist = v.w_dist + 1 })
      else st

(* ---------------------------------------------------------------- *)
(* Maximum-degree module (continuous PIF + colour wave)               *)
(* ---------------------------------------------------------------- *)

let apply_degree_rules l (st : State.t) =
  let stm =
    List.fold_left
      (fun acc slot ->
        let v = st.State.views.(slot) in
        if v.State.w_fresh && v.w_parent = l.id then max acc v.w_subtree_max else acc)
      (tree_degree l st) (slots l)
  in
  let st = { st with State.subtree_max = stm } in
  if st.State.parent = l.id then
    if st.dmax <> stm then { st with State.dmax = stm; color = not st.color } else st
  else
    match slot_of l st.State.parent with
    | Some slot when st.views.(slot).State.w_fresh ->
        let v = st.views.(slot) in
        { st with State.dmax = v.State.w_dmax; color = v.w_color }
    | Some _ | None -> st

let recompute l st = apply_degree_rules l (apply_tree_rules l st)

(* ---------------------------------------------------------------- *)
(* Fundamental-cycle detection (Search DFS)                          *)
(* ---------------------------------------------------------------- *)

let self_entry l (st : State.t) =
  { Msg.e_id = l.id; e_deg = tree_degree l st; e_dist = st.State.dist }

let continue_search l (st : State.t) ~edge ~idblock ~stack ~visited =
  let visited = Intset.add l.id visited in
  (* Advance to the smallest-id unvisited tree neighbour... *)
  let unvisited =
    List.filter
      (fun slot -> is_tree_edge l st slot && not (Intset.mem l.nbr_ids.(slot) visited))
      (slots l)
  in
  let best =
    List.fold_left
      (fun best slot ->
        match best with
        | Some b when l.nbr_ids.(b) <= l.nbr_ids.(slot) -> best
        | _ -> Some slot)
      None unvisited
  in
  match best with
  | Some slot ->
      l.send slot
        (Msg.Search
           { s_edge = edge; s_idblock = idblock; s_stack = self_entry l st :: stack; s_visited = visited })
  | None -> (
      (* ... or backtrack to the previous stack element over a still-valid
         tree edge; a dead end with an empty stack ends the walk. *)
      match stack with
      | [] -> ()
      | last :: before -> (
          match slot_of l last.Msg.e_id with
          | Some slot when is_tree_edge l st slot ->
              l.send slot
                (Msg.Search { s_edge = edge; s_idblock = idblock; s_stack = before; s_visited = visited })
          | Some _ | None -> ()))

let start_search l st ~responder_id ~idblock =
  continue_search l st ~edge:(l.id, responder_id) ~idblock ~stack:[] ~visited:Intset.empty

(* ---------------------------------------------------------------- *)
(* Improve: the three-pass edge swap                                  *)
(* ---------------------------------------------------------------- *)

let endpoints_ok l (st : State.t) ~t_slot ~deg_max =
  let v = st.State.views.(t_slot) in
  v.State.w_fresh
  && (not (is_tree_edge l st t_slot))
  && deg_max <= st.dmax
  &&
  let bound = if deg_max >= st.dmax then deg_max - 1 else deg_max in
  max (tree_degree l st) v.State.w_deg < bound

(* Segment position helpers, all with first-occurrence semantics (a
   corrupted segment may repeat identifiers). *)

let segment_pred me segment =
  let rec go prev = function
    | [] -> None
    | x :: rest -> if x = me then prev else go (Some x) rest
  in
  go None segment

let segment_succ me segment =
  let rec go = function
    | x :: next :: _ when x = me -> Some next
    | _ :: rest -> go rest
    | [] -> None
  in
  go segment

let segment_mem me segment = List.mem me segment

let segment_is_last me segment =
  match List.rev segment with x :: _ -> x = me | [] -> false

let fresh_deg_of l (st : State.t) id =
  match slot_of l id with
  | Some slot when st.State.views.(slot).State.w_fresh -> st.views.(slot).State.w_deg
  | Some _ | None -> -1

let push_update_dist l (st : State.t) =
  List.iter
    (fun slot -> l.send slot (Msg.Update_dist { u_dist = st.State.dist; u_ttl = l.n }))
    (tree_children_slots l st);
  broadcast_info l st

let commit_at_s l (st : State.t) ~edge ~target ~deg_max ~segment =
  let s_id, t_id = edge in
  if s_id <> l.id then None
  else
    match slot_of l t_id with
    | None -> None
    | Some t_slot ->
        if
          not
            (locally_stabilized l st && st.State.pending = None
            && endpoints_ok l st ~t_slot ~deg_max)
        then None
        else
          let v = st.State.views.(t_slot) in
          (match segment with
          | [] -> None
          | [ me ] ->
              let upper = if fst target = me then snd target else fst target in
              if
                me = fst target
                && st.State.parent = upper
                && fresh_deg_of l st upper >= deg_max
              then
                Some
                  { st with State.parent = t_id; dist = v.State.w_dist + 1; color = not st.color }
              else None
          | me :: next :: _ ->
              if me <> l.id || st.State.parent <> next then None
              else begin
                let st =
                  { st with State.parent = t_id; dist = v.State.w_dist + 1; color = not st.color }
                in
                send_to_id l next
                  (Msg.Reverse { v_edge = edge; v_dist = st.State.dist; v_segment = segment });
                Some st
              end)

let handle_swap_req l (st : State.t) ~edge ~target ~deg_max ~segment =
  match segment with
  | [ _ ] -> (
      match commit_at_s l st ~edge ~target ~deg_max ~segment with
      | Some st -> push_update_dist l st
      | None -> st)
  | me :: next :: _ when me = l.id -> (
      if (not (locally_stabilized l st)) || st.State.pending <> None || st.parent <> next then st
      else
        let _, t_id = edge in
        match slot_of l t_id with
        | Some t_slot when endpoints_ok l st ~t_slot ~deg_max ->
            let st =
              {
                st with
                State.pending = Some { p_edge = edge; p_target = target; p_ttl = lock_ttl l };
              }
            in
            send_to_id l next
              (Msg.Remove { m_edge = edge; m_target = target; m_deg_max = deg_max; m_segment = segment });
            st
        | Some _ | None -> st)
  | _ -> st

let handle_remove l (st : State.t) ~edge ~target ~deg_max ~segment =
  let me = l.id in
  if not (segment_mem me segment) then st
  else if st.State.pending <> None || not (locally_stabilized l st) then st
  else if segment_is_last me segment then begin
    let w, z = target in
    let upper = if me = w then z else w in
    let valid =
      (me = w || me = z)
      && st.State.parent = upper
      && max (tree_degree l st) (fresh_deg_of l st upper) >= deg_max
    in
    if not valid then st
    else begin
      let st =
        { st with State.pending = Some { p_edge = edge; p_target = target; p_ttl = lock_ttl l } }
      in
      (match segment_pred me segment with
      | Some prev ->
          send_to_id l prev
            (Msg.Grant { g_edge = edge; g_target = target; g_deg_max = deg_max; g_segment = segment })
      | None -> ());
      st
    end
  end
  else
    match segment_succ me segment with
    | Some next when st.State.parent = next ->
        let st =
          { st with State.pending = Some { p_edge = edge; p_target = target; p_ttl = lock_ttl l } }
        in
        send_to_id l next
          (Msg.Remove { m_edge = edge; m_target = target; m_deg_max = deg_max; m_segment = segment });
        st
    | Some _ | None -> st

let handle_grant l (st : State.t) ~edge ~target ~deg_max ~segment =
  let me = l.id in
  match st.State.pending with
  | Some p when p.State.p_edge = edge && p.p_target = target -> (
      match segment with
      | first :: _ when first = me -> (
          let st = { st with State.pending = None } in
          match commit_at_s l st ~edge ~target ~deg_max ~segment with
          | Some st -> push_update_dist l st
          | None -> st)
      | _ -> (
          match segment_pred me segment with
          | Some prev ->
              send_to_id l prev
                (Msg.Grant
                   { g_edge = edge; g_target = target; g_deg_max = deg_max; g_segment = segment });
              st
          | None -> st))
  | Some _ | None -> st

let patch_view l (st : State.t) ~nid ~parent ~dist =
  match slot_of l nid with
  | None -> st
  | Some slot ->
      let v = st.State.views.(slot) in
      let w_parent = match parent with Some p -> p | None -> v.State.w_parent in
      write_view st slot { v with State.w_parent; w_dist = dist; w_fresh = true }

let handle_reverse l (st : State.t) ~sender_id ~edge ~dist ~segment =
  let me = l.id in
  match st.State.pending with
  | Some p when p.State.p_edge = edge && segment_mem me segment && segment_pred me segment = Some sender_id
    ->
      let sender_parent =
        match segment_pred sender_id segment with Some p -> Some p | None -> Some (snd edge)
      in
      let st = patch_view l st ~nid:sender_id ~parent:sender_parent ~dist in
      let st =
        { st with State.parent = sender_id; dist = dist + 1; pending = None; color = not st.color }
      in
      (match segment_succ me segment with
      | Some next ->
          send_to_id l next
            (Msg.Reverse { v_edge = edge; v_dist = st.State.dist; v_segment = segment })
      | None -> ());
      push_update_dist l st
  | Some _ | None -> st

(* ---------------------------------------------------------------- *)
(* Action_on_Cycle                                                   *)
(* ---------------------------------------------------------------- *)

let send_deblock_flood l (st : State.t) ~idblock ~ttl =
  List.iter
    (fun slot -> l.send slot (Msg.Deblock { d_idblock = idblock; d_ttl = ttl }))
    (tree_children_slots l st)

let run_improve l (st : State.t) ~initiator_id ~path ~w_entry ~deg_max =
  let rec succ_of = function
    | a :: b :: _ when a.Msg.e_id = w_entry.Msg.e_id -> Some b
    | _ :: rest -> succ_of rest
    | [] -> None
  in
  match succ_of path with
  | None -> st
  | Some z_entry ->
      let lower, upper =
        if w_entry.Msg.e_dist > z_entry.Msg.e_dist then (w_entry, z_entry) else (z_entry, w_entry)
      in
      let target = (lower.Msg.e_id, upper.Msg.e_id) in
      let ids = List.map (fun e -> e.Msg.e_id) path in
      let pos id =
        let rec go i = function
          | [] -> -1
          | x :: rest -> if x = id then i else go (i + 1) rest
        in
        go 0 ids
      in
      let entry_of id = List.find_opt (fun e -> e.Msg.e_id = id) path in
      let lower_pos = pos lower.Msg.e_id in
      let s_is_initiator = lower_pos <= min (pos w_entry.Msg.e_id) (pos z_entry.Msg.e_id) in
      let rec take_until acc = function
        | [] -> None
        | x :: rest ->
            if x = lower.Msg.e_id then Some (List.rev (x :: acc)) else take_until (x :: acc) rest
      in
      let segment = if s_is_initiator then take_until [] ids else take_until [] (List.rev ids) in
      (match segment with
      | None | Some [] -> st
      | Some segment ->
          let dists = List.filter_map entry_of segment |> List.map (fun e -> e.Msg.e_dist) in
          let rec strictly_descending = function
            | a :: (b :: _ as rest) -> a = b + 1 && strictly_descending rest
            | _ -> true
          in
          if List.length dists <> List.length segment || not (strictly_descending dists) then st
          else if s_is_initiator then begin
            send_to_id l initiator_id
              (Msg.Swap_req
                 {
                   r_edge = (initiator_id, l.id);
                   r_target = target;
                   r_deg_max = deg_max;
                   r_segment = segment;
                 });
            st
          end
          else handle_swap_req l st ~edge:(l.id, initiator_id) ~target ~deg_max ~segment)

let action_on_cycle l (st : State.t) ~initiator_id ~idblock ~stack =
  let fwd = List.rev stack in
  let path = fwd @ [ self_entry l st ] in
  let interior = match fwd with [] -> [] | _ :: rest -> rest in
  let deg_i =
    match slot_of l initiator_id with
    | Some slot when st.State.views.(slot).State.w_fresh -> st.views.(slot).State.w_deg
    | Some _ | None -> max_int
  in
  let deg_me = tree_degree l st in
  let endpoint_max = if deg_i = max_int then max_int else max deg_me deg_i in
  let dmax = st.State.dmax in
  let deblock_endpoint () =
    if not l.p.enable_deblock then st
    else begin
      let st =
        if deg_me = dmax - 1 then
          match st.State.deblock with
          | Some (b, _) when b = l.id -> st
          | Some _ | None ->
              send_deblock_flood l st ~idblock:l.id ~ttl:l.n;
              { st with State.deblock = Some (l.id, l.p.deblock_ttl) }
        else st
      in
      if deg_i = dmax - 1 then
        send_to_id l initiator_id (Msg.Deblock { d_idblock = initiator_id; d_ttl = l.n });
      st
    end
  in
  (* An idblock that is not an interior node of this cycle is ignored: the
     search counts as a plain one. *)
  let b_entry =
    match idblock with
    | Some b -> List.find_opt (fun e -> e.Msg.e_id = b) interior
    | None -> None
  in
  match b_entry with
  | None ->
      let d_path = List.fold_left (fun acc e -> max acc e.Msg.e_deg) 0 interior in
      if d_path <> dmax || dmax < 3 then st
      else if endpoint_max = dmax - 1 then deblock_endpoint ()
      else if endpoint_max < dmax - 1 then
        (* w = interior max-degree node of minimum id (first on ties). *)
        let w_entry =
          List.fold_left
            (fun best e ->
              if e.Msg.e_deg <> d_path then best
              else
                match best with Some b when b.Msg.e_id <= e.Msg.e_id -> best | _ -> Some e)
            None interior
        in
        (match w_entry with
        | None -> st
        | Some w -> run_improve l st ~initiator_id ~path ~w_entry:w ~deg_max:dmax)
      else st
  | Some b_entry ->
      if endpoint_max = dmax - 1 then deblock_endpoint ()
      else if endpoint_max < dmax - 1 then
        run_improve l st ~initiator_id ~path ~w_entry:b_entry ~deg_max:b_entry.Msg.e_deg
      else st

let handle_search l (st : State.t) ~edge ~idblock ~stack ~visited =
  if not (locally_stabilized l st) then st
  else
    let initiator_id, responder_id = edge in
    if l.id = responder_id then
      match slot_of l initiator_id with
      | Some slot when not (is_tree_edge l st slot) ->
          action_on_cycle l st ~initiator_id ~idblock ~stack
      | Some _ | None -> st
    else begin
      continue_search l st ~edge ~idblock ~stack ~visited;
      st
    end

(* ---------------------------------------------------------------- *)
(* Deblock / UpdateDist receipt                                      *)
(* ---------------------------------------------------------------- *)

let handle_deblock l (st : State.t) ~idblock ~ttl =
  if ttl <= 0 || not l.p.enable_deblock then st
  else begin
    (* A Deblock already held is neither re-flooded nor refreshed: it
       expires, and the next one re-floods the subtree. *)
    match st.State.deblock with
    | Some (b, _) when b = idblock -> st
    | Some _ | None ->
        send_deblock_flood l st ~idblock ~ttl:(ttl - 1);
        { st with State.deblock = Some (idblock, l.p.deblock_ttl) }
  end

let handle_update_dist l (st : State.t) ~sender_id ~dist ~ttl =
  if st.State.parent = sender_id && ttl > 0 && st.State.dist <> dist + 1 then begin
    let st = patch_view l st ~nid:sender_id ~parent:None ~dist in
    let st = { st with State.dist = dist + 1 } in
    List.iter
      (fun slot -> l.send slot (Msg.Update_dist { u_dist = st.State.dist; u_ttl = ttl - 1 }))
      (tree_children_slots l st);
    st
  end
  else st

(* ---------------------------------------------------------------- *)
(* Search initiation policy                                          *)
(* ---------------------------------------------------------------- *)

(* One Search turn: rotate over the neighbour slots from the cursor, at
   most one full turn, starting the first worthwhile search found.
   Returns the number of slots scanned, 0 when no scan may run (the
   change-driven window is closed once [search_quiet] reaches the
   degree). *)
let search_scan l (st : State.t) =
  let deg = Array.length l.nbrs in
  if
    (not l.p.enable_reduction)
    || deg = 0
    || st.State.search_quiet >= deg
    || st.State.pending <> None
    || not (locally_stabilized l st)
  then 0
  else begin
    let idblock = match st.State.deblock with Some (b, _) -> Some b | None -> None in
    let own_deg = tree_degree l st in
    let rec loop tried =
      if tried >= deg then tried
      else
        let slot = (st.State.search_cursor + tried) mod deg in
        let uid = l.nbr_ids.(slot) in
        let v = st.State.views.(slot) in
        let worth =
          match idblock with
          | Some _ -> true
          | None -> (not l.p.eager_prune) || st.State.dmax >= max own_deg v.State.w_deg + 1
        in
        if (not (is_tree_edge l st slot)) && l.id < uid && v.State.w_fresh && worth then begin
          start_search l st ~responder_id:uid ~idblock;
          tried + 1
        end
        else loop (tried + 1)
    in
    loop 0
  end

let cursor_after l (st : State.t) tried =
  if tried = 0 then st.State.search_cursor
  else (st.State.search_cursor + tried) mod Array.length l.nbrs

(* The [search_on_info] turn: moves the cursor, is no tick of the window. *)
let maybe_start_search l (st : State.t) =
  { st with State.search_cursor = cursor_after l st (search_scan l st) }

(* No slot could ever start a Search (every edge a tree edge, initiated
   by the other endpoint or unheard): the tick leaves the state alone,
   counter included, once counter and cursor are in range. *)
let nothing_to_search l (st : State.t) =
  let deg = Array.length l.nbrs in
  let q = st.State.search_quiet and c = st.State.search_cursor in
  0 <= q && q < l.p.search_refresh_every
  && (deg = 0 || (0 <= c && c < deg))
  && List.for_all
       (fun slot ->
         is_tree_edge l st slot || l.id > l.nbr_ids.(slot) || not st.State.views.(slot).State.w_fresh)
       (slots l)

(* The tick's turn: the quiet counter advances by the slots scanned (one
   when no scan ran) and wraps to 0 outside [0, search_refresh_every). *)
let tick_search l (st : State.t) =
  if nothing_to_search l st then st
  else begin
    let tried = search_scan l st in
    let q = st.State.search_quiet + max 1 tried in
    {
      st with
      State.search_cursor = cursor_after l st tried;
      search_quiet = (if 0 <= q && q < l.p.search_refresh_every then q else 0);
    }
  end

(* ---------------------------------------------------------------- *)
(* Event handlers                                                    *)
(* ---------------------------------------------------------------- *)

let decay (st : State.t) =
  let pending =
    match st.State.pending with
    | Some p when p.State.p_ttl > 1 -> Some { p with State.p_ttl = p.p_ttl - 1 }
    | Some _ | None -> None
  in
  let deblock =
    match st.State.deblock with
    | Some (b, ttl) when ttl > 1 -> Some (b, ttl - 1)
    | Some _ | None -> None
  in
  { st with State.pending; deblock }

(* Change-driven Search: a local change — own tree or degree variables,
   a swap lock or a Deblock set or cleared (a TTL ticking down is none),
   or a mirror value (see [write_view]) — resets the quiet counter;
   [tick_search] advances it, and Search starts need it below the node's
   degree. *)
let locally_changed (a : State.t) (b : State.t) =
  let deblock_id (st : State.t) = Option.map fst st.State.deblock in
  a.State.root <> b.State.root
  || a.parent <> b.parent
  || a.dist <> b.dist
  || a.dmax <> b.dmax
  || a.color <> b.color
  || a.subtree_max <> b.subtree_max
  || Option.is_some a.pending <> Option.is_some b.pending
  || deblock_id a <> deblock_id b

let note_change ~before (st : State.t) =
  if locally_changed before st then { st with State.search_quiet = 0 } else st

let on_tick l before =
  let st = note_change ~before (recompute l (decay before)) in
  broadcast_info l (tick_search l st)

(* Sender identification: translate the dense source index through the
   receiver's neighbour table, as Graph_id.of_src does. *)
let id_of_src l ~src_node ~nbrs_nodes =
  let rec find k =
    if k >= Array.length nbrs_nodes then invalid_arg "Model: sender is not a neighbour"
    else if nbrs_nodes.(k) = src_node then l.nbr_ids.(k)
    else find (k + 1)
  in
  find 0

(* Every family but Info, which [on_message] handles itself. *)
let handle_protocol_message l (st : State.t) ~sender_id msg =
  match msg with
  | Msg.Info _ -> st
  | ( Msg.Search _ | Msg.Swap_req _ | Msg.Remove _ | Msg.Grant _ | Msg.Reverse _
    | Msg.Update_dist _ | Msg.Deblock _ )
    when not l.p.enable_reduction ->
      st
  | Msg.Search { s_edge; s_idblock; s_stack; s_visited } ->
      handle_search l st ~edge:s_edge ~idblock:s_idblock ~stack:s_stack ~visited:s_visited
  | Msg.Swap_req { r_edge; r_target; r_deg_max; r_segment } ->
      handle_swap_req l st ~edge:r_edge ~target:r_target ~deg_max:r_deg_max ~segment:r_segment
  | Msg.Remove { m_edge; m_target; m_deg_max; m_segment } ->
      handle_remove l st ~edge:m_edge ~target:m_target ~deg_max:m_deg_max ~segment:m_segment
  | Msg.Grant { g_edge; g_target; g_deg_max; g_segment } ->
      handle_grant l st ~edge:g_edge ~target:g_target ~deg_max:g_deg_max ~segment:g_segment
  | Msg.Reverse { v_edge; v_dist; v_segment } ->
      handle_reverse l st ~sender_id ~edge:v_edge ~dist:v_dist ~segment:v_segment
  | Msg.Update_dist { u_dist; u_ttl } ->
      handle_update_dist l st ~sender_id ~dist:u_dist ~ttl:u_ttl
  | Msg.Deblock { d_idblock; d_ttl } -> handle_deblock l st ~idblock:d_idblock ~ttl:d_ttl

let on_message l (st : State.t) ~src_node msg =
  let sender_id = id_of_src l ~src_node ~nbrs_nodes:l.nbrs in
  match msg with
  | Msg.Info info -> (
      match slot_of l sender_id with
      | Some slot ->
          let st = note_change ~before:st (recompute l (update_view st slot info)) in
          if l.p.search_on_info then maybe_start_search l st else st
      | None -> st)
  | _ -> note_change ~before:st (handle_protocol_message l st ~sender_id msg)

(* ---------------------------------------------------------------- *)
(* The global configuration and its step                             *)
(* ---------------------------------------------------------------- *)

let chan_key ~n ~src ~dst = (src * n) + dst

let make ~params ~states ~in_flight graph =
  let n = Graph.n graph in
  let channels = Array.make (n * n) [] in
  List.iter
    (fun (src, dst, msg) ->
      if not (Graph.mem_edge graph src dst) then
        invalid_arg (Printf.sprintf "Model.make: %d -> %d is not a channel" src dst);
      let k = chan_key ~n ~src ~dst in
      channels.(k) <- channels.(k) @ [ msg ])
    in_flight;
  { graph; params; nodes = Array.copy states; channels }

let local_of config ~send v =
  let nbrs = Graph.neighbors config.graph v in
  {
    p = config.params;
    id = Graph.id config.graph v;
    n = Graph.n config.graph;
    nbrs;
    nbr_ids = Array.map (Graph.id config.graph) nbrs;
    send;
  }

let step config event =
  let n = Graph.n config.graph in
  let nodes = Array.copy config.nodes in
  let channels = Array.copy config.channels in
  let check_node v =
    if v < 0 || v >= n then invalid_arg (Printf.sprintf "Model.step: node %d out of range" v)
  in
  let run v handler =
    (* Sends are collected in call order, then appended to their channels:
       per-channel FIFO in send order, exactly the engine's guarantee. *)
    let sent = ref [] in
    let l =
      local_of config v ~send:(fun slot msg ->
          let dst = (Graph.neighbors config.graph v).(slot) in
          sent := (v, dst, msg) :: !sent)
    in
    nodes.(v) <- handler l nodes.(v);
    List.iter
      (fun (src, dst, msg) ->
        let k = chan_key ~n ~src ~dst in
        channels.(k) <- channels.(k) @ [ msg ])
      (List.rev !sent)
  in
  (match event with
  | Tick v ->
      check_node v;
      run v on_tick
  | Deliver { src; dst } -> (
      check_node src;
      check_node dst;
      match channels.(chan_key ~n ~src ~dst) with
      | [] -> invalid_arg (Printf.sprintf "Model.step: deliver on empty channel %d -> %d" src dst)
      | msg :: rest ->
          channels.(chan_key ~n ~src ~dst) <- rest;
          run dst (fun l st -> on_message l st ~src_node:src msg)));
  { config with nodes; channels }

let channel config ~src ~dst = config.channels.(chan_key ~n:(Graph.n config.graph) ~src ~dst)

let peek config ~src ~dst = match channel config ~src ~dst with [] -> None | m :: _ -> Some m

let nonempty_channels config =
  let n = Graph.n config.graph in
  let acc = ref [] in
  for k = (n * n) - 1 downto 0 do
    if config.channels.(k) <> [] then acc := (k / n, k mod n) :: !acc
  done;
  !acc

let event_to_string = function
  | Tick v -> Printf.sprintf "t%d" v
  | Deliver { src; dst } -> Printf.sprintf "%d>%d" src dst

let event_of_string s =
  let fail () = failwith (Printf.sprintf "Model.event_of_string: bad event %S" s) in
  if s = "" then fail ()
  else if s.[0] = 't' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some v -> Tick v
    | None -> fail ()
  else
    match String.index_opt s '>' with
    | None -> fail ()
    | Some i -> (
        match
          ( int_of_string_opt (String.sub s 0 i),
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
        with
        | Some src, Some dst -> Deliver { src; dst }
        | _ -> fail ())

let equal a b = a.nodes = b.nodes && a.channels = b.channels
