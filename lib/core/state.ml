(* Per-node protocol state and the predicates of paper §3.1.

   The send/receive atomicity model gives every node a mirror of its
   neighbours' public variables, refreshed by Info messages; [view] is that
   mirror.  Everything a predicate reads comes either from the node's own
   variables or from this mirror — never from global knowledge. *)

module Sizing = Mdst_util.Sizing

type view = {
  w_root : int;
  w_parent : int;
  w_dist : int;
  w_deg : int;
  w_dmax : int;
  w_color : bool;
  w_subtree_max : int;
  w_fresh : bool;  (* has an Info arrived from this neighbour yet *)
}

(* A pending swap this node is a segment participant of.  [busy_ttl] decays
   every tick so a corrupted or abandoned lock always clears. *)
type pending = { p_edge : int * int; p_target : int * int; p_ttl : int }

type t = {
  root : int;  (* believed tree-root identifier *)
  parent : int;  (* parent id; own id when (believed) root *)
  dist : int;
  dmax : int;  (* believed degree of the tree, deg(T) *)
  color : bool;  (* flips at the root whenever dmax changes *)
  subtree_max : int;  (* PIF feedback: max tree-degree in my subtree *)
  views : view array;  (* one slot per neighbour, same order as ctx.neighbors *)
  pending : pending option;
  deblock : (int * int) option;  (* (idblock, remaining ticks) *)
  search_cursor : int;  (* rotates over neighbour slots for Search starts *)
  search_quiet : int;  (* Search steps since the last local change, modulo the refresh period *)
  (* Info dirty-bit suppression bookkeeping (inert — None/0 — unless the
     config enables suppression): the public-variable snapshot last
     gossiped and the ticks elapsed since, driving the periodic refresh
     that keeps stabilization under a corrupted cache. *)
  last_info : Msg.info option;
  info_age : int;
}

let unknown_view = {
  w_root = max_int;
  w_parent = max_int;
  w_dist = 0;
  w_deg = 0;
  w_dmax = 0;
  w_color = false;
  w_subtree_max = 0;
  w_fresh = false;
}

(* --- Local tree structure, derived from own vars + mirror ---------------- *)

let slot_of ctx nid =
  let rec find k =
    if k >= Array.length ctx.Mdst_sim.Node.neighbor_ids then None
    else if ctx.neighbor_ids.(k) = nid then Some k
    else find (k + 1)
  in
  find 0

(* is_tree_edge(v, u) = parent_v = ID_u or parent_u = ID_v (paper §3.1). *)
let is_tree_edge ctx st slot =
  let uid = ctx.Mdst_sim.Node.neighbor_ids.(slot) in
  st.parent = uid || (st.views.(slot).w_fresh && st.views.(slot).w_parent = ctx.id)

let tree_degree ctx st =
  let d = ref 0 in
  for slot = 0 to Array.length ctx.Mdst_sim.Node.neighbors - 1 do
    if is_tree_edge ctx st slot then incr d
  done;
  !d

let tree_children_slots ctx st =
  let acc = ref [] in
  for slot = Array.length ctx.Mdst_sim.Node.neighbors - 1 downto 0 do
    let v = st.views.(slot) in
    if v.w_fresh && v.w_parent = ctx.Mdst_sim.Node.id then acc := slot :: !acc
  done;
  !acc

(* --- Paper predicates ----------------------------------------------------- *)

(* paper-gap: the paper's simplified BFS module is vulnerable to
   count-to-infinity — a cluster of nodes can sustain a phantom root claim
   while their distances grow without bound (we reproduced this livelock
   before adding the guard).  The standard repair, consistent with the
   paper's O(log n)-bit distance fields, is to bound distances by the known
   upper bound on the network size: claims with dist >= n are ignored and
   holding one makes the node a new-root candidate. *)

(* The stabilization predicates run on every tick and every Search hop;
   the scans are top-level tail-recursive functions (not closures passed
   to Array.exists/for_all, nor local recursion capturing the state) so
   the hot path allocates nothing. *)
let rec better_parent_from views root n i =
  i < Array.length views
  &&
  let v = views.(i) in
  (v.w_fresh && v.w_root < root && v.w_dist < n) || better_parent_from views root n (i + 1)

let better_parent ctx st = better_parent_from st.views st.root ctx.Mdst_sim.Node.n 0

let coherent_parent ctx st =
  if st.parent = ctx.Mdst_sim.Node.id then st.root = ctx.id
  else
    match slot_of ctx st.parent with
    | None -> false
    | Some slot ->
        let v = st.views.(slot) in
        (not v.w_fresh) || v.w_root = st.root

let coherent_distance ctx st =
  if st.parent = ctx.Mdst_sim.Node.id then st.dist = 0
  else
    st.dist >= 0
    && st.dist <= ctx.Mdst_sim.Node.n
    &&
    match slot_of ctx st.parent with
    | None -> false
    | Some slot ->
        let v = st.views.(slot) in
        (not v.w_fresh) || st.dist = v.w_dist + 1

let new_root_candidate ctx st =
  (not (coherent_parent ctx st))
  || (not (coherent_distance ctx st))
  || st.root > ctx.Mdst_sim.Node.id (* own id would already be a better root *)

let tree_stabilized ctx st = (not (better_parent ctx st)) && not (new_root_candidate ctx st)

let rec degree_stabilized_from views dmax i =
  i >= Array.length views
  ||
  let v = views.(i) in
  v.w_fresh && v.w_dmax = dmax && degree_stabilized_from views dmax (i + 1)

let degree_stabilized st = degree_stabilized_from st.views st.dmax 0

let rec color_stabilized_from views color i =
  i >= Array.length views
  ||
  let v = views.(i) in
  v.w_fresh && v.w_color = color && color_stabilized_from views color (i + 1)

let color_stabilized st = color_stabilized_from st.views st.color 0

let locally_stabilized ctx st =
  tree_stabilized ctx st && degree_stabilized st && color_stabilized st

(* --- Construction --------------------------------------------------------- *)

let clean ctx =
  let deg = Array.length ctx.Mdst_sim.Node.neighbors in
  {
    root = ctx.Mdst_sim.Node.id;
    parent = ctx.id;
    dist = 0;
    dmax = 0;
    color = false;
    subtree_max = 0;
    views = Array.make deg unknown_view;
    pending = None;
    deblock = None;
    search_cursor = 0;
    search_quiet = 0;
    last_info = None;
    info_age = 0;
  }

(* The self-stabilization adversary: any variable can hold any (type-correct)
   value, mirrors included. *)
let random ?(suppression = false) ctx rng =
  let module P = Mdst_util.Prng in
  let deg = Array.length ctx.Mdst_sim.Node.neighbors in
  let rand_id () = P.int rng (max 1 (2 * ctx.Mdst_sim.Node.n)) in
  let rand_view () =
    {
      w_root = rand_id ();
      w_parent = rand_id ();
      w_dist = P.int rng (2 * ctx.n);
      w_deg = P.int rng (deg + 2);
      w_dmax = P.int rng (ctx.n + 1);
      w_color = P.bool rng;
      w_subtree_max = P.int rng (ctx.n + 1);
      w_fresh = P.bool rng;
    }
  in
  let st =
    {
      root = rand_id ();
      parent =
        (if deg > 0 && P.bool rng then ctx.neighbor_ids.(P.int rng deg)
         else if P.bool rng then ctx.id
         else rand_id ());
      dist = P.int rng (2 * ctx.n);
      dmax = P.int rng (ctx.n + 1);
      color = P.bool rng;
      subtree_max = P.int rng (ctx.n + 1);
      views = Array.init deg (fun _ -> rand_view ());
      pending =
        (if P.bool rng then None
         else
           Some
             {
               p_edge = (rand_id (), rand_id ());
               p_target = (rand_id (), rand_id ());
               p_ttl = P.int rng 8;
             });
      deblock = (if P.bool rng then None else Some (rand_id (), P.int rng 8));
      search_cursor = (if deg = 0 then 0 else P.int rng deg);
      (* Extra draws ONLY in suppression mode, and placed after every other
         field: configurations without suppression keep a bit-identical
         draw sequence, which the exact-replay fault goldens depend on. *)
      last_info =
        (if suppression && P.bool rng then
           Some
             {
               Msg.i_root = rand_id ();
               i_parent = rand_id ();
               i_dist = P.int rng (2 * ctx.n);
               i_deg = P.int rng (deg + 2);
               i_dmax = P.int rng (ctx.n + 1);
               i_color = P.bool rng;
               i_subtree_max = P.int rng (ctx.n + 1);
             }
         else None);
      info_age = (if suppression then P.int rng 16 else 0);
      search_quiet = 0;
    }
  in
  (* Drawn after every other field (record fields have no evaluation
     order), so the rest of the node's state is what it was before the
     counter existed. *)
  { st with search_quiet = rand_id () }

(* --- Metering (experiment E5) --------------------------------------------- *)

let bits ~n st =
  let id = Sizing.id_bits ~n in
  let own = (5 * id) + Sizing.bool_bits + (4 * id) (* pending + deblock + cursor + quiet *) in
  let per_view = (6 * id) + (2 * Sizing.bool_bits) in
  (* Suppression cache: the snapshot (6 ids + colour) plus the age
     counter, only when the mode is on and a snapshot is held. *)
  let suppression =
    match st.last_info with None -> 0 | Some _ -> (7 * id) + Sizing.bool_bits
  in
  own + (Array.length st.views * per_view) + suppression

let pp ctx ppf st =
  Format.fprintf ppf "{id=%d root=%d parent=%d dist=%d deg=%d dmax=%d stm=%d%s%s}"
    ctx.Mdst_sim.Node.id st.root st.parent st.dist (tree_degree ctx st) st.dmax st.subtree_max
    (match st.pending with Some _ -> " busy" | None -> "")
    (match st.deblock with Some (w, _) -> Printf.sprintf " deblock=%d" w | None -> "")
