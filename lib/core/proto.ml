(* The self-stabilizing MDST protocol (paper §3), as a {!Mdst_sim.Node}
   automaton.

   Module structure follows the paper:
   - spanning-tree module: rules R1 ("correction parent") and R2
     ("correction root") — [apply_tree_rules];
   - maximum-degree module: a continuous PIF over the believed tree —
     [apply_degree_rules];
   - fundamental-cycle detection: a DFS walk carried inside Search
     messages — [start_search] / [handle_search];
   - degree reduction: Action_on_Cycle, Improve and Deblock.

   paper-gap: the paper's Figures 1–2 correct cycle orientation with a pair
   of Remove/Back messages chosen by comparing endpoint identifiers, and
   repair distances afterwards with UpdateDist.  We implement the same
   exchange as an explicit three-pass commit over the ascending tree
   segment between the re-rooting endpoint [s] of the improving edge and
   the deeper endpoint [lower] of the removed edge:

     Remove  (s -> lower)  validate and lock every segment node;
     Grant   (lower -> s)  acknowledge that the removal may commit;
     Reverse (s -> lower)  flip parent pointers one hop at a time,
                           each hop carrying the already-correct distance.

   Every intermediate configuration of the Reverse pass is a spanning tree
   (each hop exchanges exactly one edge for another), which is the
   invariant the paper's prose relies on; off-path subtrees learn their new
   distances through UpdateDist exactly as in the paper.  Aborted attempts
   leave only TTL'd locks behind, mirroring the paper's "the Remove message
   is discarded". *)

module Node = Mdst_sim.Node
module P = Mdst_util.Prng
module Intset = Mdst_util.Intset

module type CONFIG = sig
  val busy_ttl : int
  (** Base number of ticks a swap lock survives without progress; the
      protocol adds a term linear in the network size so long segments can
      complete (nodes are assumed to know an upper bound on n, a standard
      assumption also implicit in the paper's O(log n)-bits counters). *)

  val deblock_ttl : int
  (** Ticks a node keeps answering searches on behalf of a blocking node. *)

  val eager_prune : bool
  (** Skip Search starts that cannot possibly satisfy the improvement
      precondition given the local dmax estimate.  [false] reproduces the
      paper's behaviour (every non-tree edge searches repeatedly); [true]
      converges to the same trees with far fewer messages. *)

  val enable_deblock : bool
  (** The paper's Deblock machinery.  Disabling it is the ablation of
      benchmark E11: the algorithm then stops at local optima where every
      improving candidate has a blocking endpoint. *)

  val enable_reduction : bool
  (** The whole degree-reduction stack (modules 3 and 4).  Disabling it
      leaves the self-stabilizing spanning-tree + max-degree layers alone
      (paper §3.2.1 and §3.2.3) — the layer-isolation ablation E15. *)

  val graceful_reattach : bool
  (** Prototype of the paper's open problem (super-stabilization): a node
      whose parent edge vanished re-attaches directly to a fresh neighbour
      with the same root and a strictly smaller distance — such a
      neighbour cannot be its own descendant while the pre-fault distances
      are still legitimate — instead of resetting to its own root and
      cascading R2 through its subtree.  [false] is the paper's behaviour;
      [true] is the E17 variant. *)

  val search_on_info : bool
  (** Paper Figure 2 line 2 starts Cycle_Search upon {e every} Info
      receipt; our default rate-limits starts to one rotating candidate
      per tick (same convergence, δ× less Search traffic).  [true] restores
      the paper's literal cadence. *)

  val info_suppression : bool
  (** Dirty-bit suppression of the periodic gossip: skip the tick's Info
      broadcast when the public variables are unchanged since the last
      one actually sent.  [false] is the paper's literal "send every
      tick"; [true] trades gossip volume for a bounded staleness window
      (see [info_refresh_every]). *)

  val info_refresh_every : int
  (** With suppression on, force a broadcast every this many ticks even
      without change.  The refresh is what preserves self-stabilization:
      a corrupted [last_info] cache can suppress at most this many ticks
      of gossip before the real variables are re-advertised. *)

  val search_refresh_every : int
  (** Change-driven Search.  A node starts Searches only during one full
      rotation of its Search cursor over its neighbour slots after a local
      change — a mirror value, its own tree or degree variables, a swap
      lock or a Deblock being set or cleared — and during one such
      rotation at least every this many ticks.  The refresh bounds how
      long a corrupted [search_quiet] counter, or a change the node cannot
      see (a swap elsewhere on one of its cycles), can hold a search back.
      [1] searches on every tick. *)
end

module Default_config : CONFIG = struct
  let busy_ttl = 16
  let deblock_ttl = 24
  let eager_prune = true
  let enable_deblock = true
  let enable_reduction = true
  let graceful_reattach = false
  let search_on_info = false
  let info_suppression = false
  let info_refresh_every = 8
  let search_refresh_every = 32
end

module No_deblock_config : CONFIG = struct
  include Default_config

  let enable_deblock = false
end

module No_prune_config : CONFIG = struct
  include Default_config

  let eager_prune = false
end

module Tree_only_config : CONFIG = struct
  include Default_config

  let enable_reduction = false
end

module Graceful_config : CONFIG = struct
  include Default_config

  let graceful_reattach = true
end

(* The paper's literal behaviour: no pruning, searches on every gossip and
   on every tick. *)
module Paper_faithful_config : CONFIG = struct
  include Default_config

  let eager_prune = false
  let search_on_info = true
  let search_refresh_every = 1
end

module Suppressed_config : CONFIG = struct
  include Default_config

  let info_suppression = true
end

module Make (C : CONFIG) : sig
  include Node.AUTOMATON with type state = State.t and type msg = Msg.t
end = struct
  type state = State.t

  type msg = Msg.t

  let name = "ss-mdst"

  let init = State.clean

  let random_state ctx rng = State.random ~suppression:C.info_suppression ctx rng

  let random_msg ctx rng =
    let rand_id () = P.int rng (max 1 (2 * ctx.Node.n)) in
    match P.int rng 5 with
    | 0 ->
        Some
          (Msg.Info
             {
               i_root = rand_id ();
               i_parent = rand_id ();
               i_dist = P.int rng ctx.n;
               i_deg = P.int rng 6;
               i_dmax = P.int rng ctx.n;
               i_color = P.bool rng;
               i_subtree_max = P.int rng ctx.n;
             })
    | 1 ->
        Some
          (Msg.Search
             {
               s_edge = (rand_id (), rand_id ());
               s_idblock = (if P.bool rng then None else Some (rand_id ()));
               s_stack =
                 [ { Msg.e_id = rand_id (); e_deg = P.int rng 6; e_dist = P.int rng ctx.n } ];
               s_visited = Intset.singleton (rand_id ());
             })
    | 2 ->
        Some
          (Msg.Remove
             {
               m_edge = (rand_id (), rand_id ());
               m_target = (rand_id (), rand_id ());
               m_deg_max = P.int rng ctx.n;
               m_segment = [ rand_id (); rand_id () ];
             })
    | 3 -> Some (Msg.Update_dist { u_dist = P.int rng ctx.n; u_ttl = P.int rng ctx.n })
    | _ -> Some (Msg.Deblock { d_idblock = rand_id (); d_ttl = P.int rng 4 })

  let msg_label = Msg.label

  let msg_bits = Msg.bits

  let lock_ttl ctx = C.busy_ttl + (8 * ctx.Node.n)

  let state_bits = State.bits

  (* ---------------------------------------------------------------- *)
  (* Gossip                                                            *)
  (* ---------------------------------------------------------------- *)

  let info_of ctx (st : State.t) =
    {
      Msg.i_root = st.root;
      i_parent = st.parent;
      i_dist = st.dist;
      i_deg = State.tree_degree ctx st;
      i_dmax = st.dmax;
      i_color = st.color;
      i_subtree_max = st.subtree_max;
    }

  (* Would this tick's gossip repeat [last] exactly?  Field-by-field so
     the suppressed path allocates nothing. *)
  let info_unchanged ctx (st : State.t) (last : Msg.info) =
    last.Msg.i_root = st.root
    && last.i_parent = st.parent
    && last.i_dist = st.dist
    && last.i_dmax = st.dmax
    && last.i_color = st.color
    && last.i_subtree_max = st.subtree_max
    && last.i_deg = State.tree_degree ctx st

  (* One payload per tick, shared across all neighbour sends.  Under
     suppression the broadcast is elided while nothing changed, with a
     forced refresh every [info_refresh_every] ticks: a corrupted cache
     can therefore silence a node only for a bounded window, after which
     the true variables are re-advertised — the stabilization argument is
     otherwise untouched.  Returns the state because the suppression
     bookkeeping lives in it (identity when the mode is off). *)
  let broadcast_info ctx (st : State.t) =
    if not C.info_suppression then begin
      let payload = Msg.Info (info_of ctx st) in
      Array.iter (fun nb -> ctx.Node.send nb payload) ctx.Node.neighbors;
      st
    end
    else
      let unchanged =
        match st.last_info with Some last -> info_unchanged ctx st last | None -> false
      in
      (* Mutant "suppression-no-refresh" reintroduces the staleness bug the
         periodic refresh exists to prevent: an unchanged (possibly
         corrupted) cache suppresses forever, never re-advertising the real
         variables. *)
      if
        unchanged
        && (st.info_age + 1 < C.info_refresh_every
           || Mdst_util.Mutation.enabled "suppression-no-refresh")
      then begin
        Mdst_util.Mutation.probe "proto:info-suppress";
        ctx.Node.note_suppressed (Array.length ctx.Node.neighbors);
        { st with State.info_age = st.info_age + 1 }
      end
      else begin
        if unchanged then Mdst_util.Mutation.probe "proto:info-refresh";
        let i = info_of ctx st in
        let payload = Msg.Info i in
        Array.iter (fun nb -> ctx.Node.send nb payload) ctx.Node.neighbors;
        { st with State.last_info = Some i; info_age = 0 }
      end

  (* Steady-state gossip overwhelmingly repeats the mirror it refreshes;
     copying the views array (plus a view and a state record) on every
     receipt made Info delivery the dominant allocation term at n in the
     thousands (Θ(δ) words per receipt — ~n words per receipt on a star
     hub).  When the incoming payload matches the already-fresh mirror the
     result is value-identical to the input, so returning it unchanged is
     observationally equivalent: no draw, send or fingerprint can tell. *)
  let view_matches (v : State.view) (i : Msg.info) =
    v.State.w_fresh
    && v.w_root = i.Msg.i_root
    && v.w_parent = i.i_parent
    && v.w_dist = i.i_dist
    && v.w_deg = i.i_deg
    && v.w_dmax = i.i_dmax
    && v.w_color = i.i_color
    && v.w_subtree_max = i.i_subtree_max

  let update_view (st : State.t) slot (i : Msg.info) =
    if view_matches st.views.(slot) i then st
    else begin
      let views = Array.copy st.views in
      views.(slot) <-
        {
          State.w_root = i.i_root;
          w_parent = i.i_parent;
          w_dist = i.i_dist;
          w_deg = i.i_deg;
          w_dmax = i.i_dmax;
          w_color = i.i_color;
          w_subtree_max = i.i_subtree_max;
          w_fresh = true;
        };
      { st with views; search_quiet = 0 }
    end

  let send_to_id ctx id msg =
    match State.slot_of ctx id with
    | Some slot -> ctx.Node.send ctx.Node.neighbors.(slot) msg
    | None -> ()

  (* ---------------------------------------------------------------- *)
  (* Spanning-tree module (rules R1 / R2, paper §3.2.1)                *)
  (* ---------------------------------------------------------------- *)

  (* Coverage probes ([Mdst_util.Mutation.probe]) mark the rare protocol
     phases — rule firings, search progress, the three-pass swap — so the
     schedule fuzzer can tell executions apart by which branches they
     reached, not only by which states they visited.  A probe site is a
     single load-and-branch unless a harness is collecting. *)

  let create_new_root ctx (st : State.t) =
    Mdst_util.Mutation.probe "proto:r1-new-root";
    { st with State.root = ctx.Node.id; parent = ctx.id; dist = 0 }

  (* E17 variant: the node's attachment to the tree broke — either the
     parent edge vanished (topology change) or the parent defected to its
     own root (it is itself recovering) — but the surroundings still carry
     legitimate pre-fault state.  Adopt a fresh same-root neighbour at a
     depth at most ours: under legitimate distances every descendant is
     strictly deeper, so the adoption cannot close a cycle.  When stale
     views make the heuristic misfire, the ordinary rules repair the result
     exactly as they repair any transient fault. *)
  let try_graceful_reattach ctx (st : State.t) =
    if (not C.graceful_reattach) || st.parent = ctx.Node.id || st.root > ctx.Node.id then None
    else begin
      let orphaned =
        match State.slot_of ctx st.parent with
        | None -> true (* parent edge no longer exists *)
        | Some slot ->
            let v = st.views.(slot) in
            v.State.w_fresh && v.w_root <> st.root && v.w_root = st.parent
            (* parent reset itself and now claims its own identifier *)
      in
      if not orphaned then None
      else begin
        let best = ref None in
        Array.iteri
          (fun slot (v : State.view) ->
            if
              v.State.w_fresh
              && ctx.Node.neighbor_ids.(slot) <> st.parent
              && v.w_root = st.root
              && v.w_dist <= st.dist
              && v.w_dist < ctx.Node.n
              &&
              match !best with
              | Some (d, _) -> v.w_dist < d
              | None -> true
            then best := Some (v.State.w_dist, ctx.Node.neighbor_ids.(slot)))
          st.views;
        match !best with
        | Some (dist, parent_id) ->
            Mdst_util.Mutation.probe "proto:reattach";
            Some { st with State.parent = parent_id; dist = dist + 1 }
        | None -> None
      end
    end

  (* The distance is the only defect: the parent is coherent, no better
     root is claimed, and the parent's fresh mirror offers a distance
     below n.  Adopt it instead of resetting to root — a reset would cut
     the whole subtree off a tree that is otherwise sound (swap races and
     stale UpdateDists leave exactly this), and R1 would rebuild the same
     tree only for the race to repeat.  A real parent cycle still resets:
     the distances climb around it until they reach n. *)
  let repair_distance ctx (st : State.t) =
    if st.State.parent = ctx.Node.id || st.root > ctx.Node.id || not (State.coherent_parent ctx st)
    then None
    else
      match State.slot_of ctx st.parent with
      | Some slot ->
          let v = st.views.(slot) in
          if v.State.w_fresh && v.w_dist >= 0 && v.w_dist + 1 < ctx.Node.n then begin
            Mdst_util.Mutation.probe "proto:r1-repair-dist";
            Some { st with State.dist = v.w_dist + 1 }
          end
          else None
      | None -> None

  let apply_tree_rules ctx (st : State.t) =
    match try_graceful_reattach ctx st with
    | Some st -> st
    | None ->
    if State.new_root_candidate ctx st then
      match repair_distance ctx st with Some st -> st | None -> create_new_root ctx st
    else if State.better_parent ctx st then begin
      (* argmin over (root, neighbour id) among fresh mirrors, tracked as a
         slot index so the scan allocates nothing. *)
      let views = st.views in
      let best = ref (-1) in
      for slot = 0 to Array.length views - 1 do
        let v = views.(slot) in
        if v.State.w_fresh && v.w_root < st.root && v.w_dist < ctx.Node.n then
          if
            !best < 0
            ||
            let b = views.(!best) in
            v.w_root < b.State.w_root
            || (v.w_root = b.State.w_root
               && ctx.Node.neighbor_ids.(slot) < ctx.Node.neighbor_ids.(!best))
          then best := slot
      done;
      if !best < 0 then st
      else begin
        Mdst_util.Mutation.probe "proto:r2-adopt";
        let v = views.(!best) in
        {
          st with
          State.root = v.State.w_root;
          parent = ctx.Node.neighbor_ids.(!best);
          dist = v.w_dist + 1;
        }
      end
    end
    else st

  (* ---------------------------------------------------------------- *)
  (* Maximum-degree module (continuous PIF + colour wave, §3.2.3)      *)
  (* ---------------------------------------------------------------- *)

  (* Runs on every tick and every Info receipt, so it allocates only when
     a variable actually moves: the children fold reads the views array
     directly (no slot list), and each record update is skipped when the
     new values equal the old. *)
  let apply_degree_rules ctx (st : State.t) =
    let stm = ref (State.tree_degree ctx st) in
    Array.iter
      (fun (v : State.view) ->
        if v.State.w_fresh && v.w_parent = ctx.Node.id && v.w_subtree_max > !stm then
          stm := v.w_subtree_max)
      st.views;
    let stm = !stm in
    let st = if stm = st.State.subtree_max then st else { st with State.subtree_max = stm } in
    if st.parent = ctx.Node.id then
      if st.dmax <> stm then begin
        Mdst_util.Mutation.probe "proto:pif-flip";
        { st with State.dmax = stm; color = not st.color }
      end
      else st
    else
      match State.slot_of ctx st.parent with
      | Some slot when st.views.(slot).State.w_fresh ->
          let v = st.views.(slot) in
          if st.dmax = v.State.w_dmax && st.color = v.w_color then st
          else { st with State.dmax = v.w_dmax; color = v.w_color }
      | Some _ | None -> st

  let recompute ctx st = apply_degree_rules ctx (apply_tree_rules ctx st)

  (* ---------------------------------------------------------------- *)
  (* Fundamental-cycle detection (Search DFS, §3.2.2)                  *)
  (* ---------------------------------------------------------------- *)

  let self_entry ctx (st : State.t) =
    { Msg.e_id = ctx.Node.id; e_deg = State.tree_degree ctx st; e_dist = st.dist }

  (* Continue a DFS currently standing at this node; [stack] excludes us
     and is carried most-recent-first (see {!Msg}): advancing pushes our
     entry with a cons, dead-ending pops the head to backtrack — each hop
     costs O(1) in list cells where the forward-ordered representation
     re-copied the whole path (O(L) per hop, O(L²) per search). *)
  let continue_search ctx (st : State.t) ~edge ~idblock ~stack ~visited =
    let me = ctx.Node.id in
    let visited = Intset.add me visited in
    (* Smallest-id unvisited tree neighbour, tracked as a slot index so the
       per-hop scan allocates nothing (runs on every Search delivery). *)
    let ids = ctx.Node.neighbor_ids in
    let best = ref (-1) in
    for slot = 0 to Array.length ids - 1 do
      let uid = ids.(slot) in
      if
        State.is_tree_edge ctx st slot
        && (not (Intset.mem uid visited))
        && (!best < 0 || uid < ids.(!best))
      then best := slot
    done;
    match !best with
    | slot when slot >= 0 ->
        Mdst_util.Mutation.probe "proto:search-advance";
        ctx.Node.send ctx.Node.neighbors.(slot)
          (Msg.Search
             {
               s_edge = edge;
               s_idblock = idblock;
               s_stack = self_entry ctx st :: stack;
               s_visited = visited;
             })
    | _ -> (
        (* Dead end: backtrack to the previous stack element, if any. *)
        match stack with
        | [] ->
            Mdst_util.Mutation.probe "proto:search-deadend"
            (* whole tree explored without reaching the responder *)
        | last :: before -> (
            match State.slot_of ctx last.Msg.e_id with
            | Some slot when State.is_tree_edge ctx st slot ->
                Mdst_util.Mutation.probe "proto:search-backtrack";
                ctx.Node.send ctx.Node.neighbors.(slot)
                  (Msg.Search
                     { s_edge = edge; s_idblock = idblock; s_stack = before; s_visited = visited })
            | Some _ | None -> ()))

  let start_search ctx (st : State.t) ~responder_id ~idblock =
    continue_search ctx st
      ~edge:(ctx.Node.id, responder_id)
      ~idblock ~stack:[] ~visited:Intset.empty

  (* ---------------------------------------------------------------- *)
  (* Improve: the three-pass edge swap                                 *)
  (* ---------------------------------------------------------------- *)

  (* Endpoint safety at commit time.  For a swap relieving a node at the
     believed tree degree (deg_max = dmax) the paper's Eq. 1 requires both
     endpoints strictly below dmax - 1; a Deblock-initiated swap
     (deg_max = dmax - 1) only requires them below deg_max. *)
  let endpoints_ok ctx (st : State.t) ~t_slot ~deg_max =
    let v = st.views.(t_slot) in
    v.State.w_fresh
    && (not (State.is_tree_edge ctx st t_slot))
    && deg_max <= st.dmax
    &&
    let bound = if deg_max >= st.dmax then deg_max - 1 else deg_max in
    max (State.tree_degree ctx st) v.State.w_deg < bound

  (* Everything a segment handler needs to know about its own position,
     gathered in ONE traversal (the handlers used to rescan the list once
     per question).  First-occurrence semantics for [pred]/[succ] — under
     corruption a segment may carry duplicate ids, and the behaviour must
     match the original left-to-right scans exactly. *)
  type seg_scan = {
    sc_present : bool;
    sc_pred : int option;  (* element before the first occurrence *)
    sc_succ : int option;  (* element after the first occurrence *)
    sc_is_last : bool;  (* the physically last element equals the probe *)
  }

  let scan_segment me segment =
    let rec go prev pred succ found last = function
      | [] ->
          {
            sc_present = found;
            sc_pred = pred;
            sc_succ = succ;
            sc_is_last = (match last with Some x -> x = me | None -> false);
          }
      | x :: rest ->
          if found then
            (* the first element seen after the first occurrence is succ *)
            let succ = match succ with None -> Some x | s -> s in
            go (Some x) pred succ true (Some x) rest
          else if x = me then go (Some x) prev succ true (Some x) rest
          else go (Some x) pred succ false (Some x) rest
    in
    go None None None false None segment

  let segment_pred me segment = (scan_segment me segment).sc_pred

  (* After any re-parenting, descendants must refresh their distances.
     Returns the state: the closing gossip may update the suppression
     bookkeeping. *)
  let push_update_dist ctx (st : State.t) =
    let payload = Msg.Update_dist { u_dist = st.State.dist; u_ttl = ctx.Node.n } in
    List.iter
      (fun slot -> ctx.Node.send ctx.Node.neighbors.(slot) payload)
      (State.tree_children_slots ctx st);
    broadcast_info ctx st

  (* Commit at [s]: adopt the non-tree edge towards [t], then launch the
     Reverse pass up the segment.  Returns [None] to abort. *)
  let commit_at_s ctx (st : State.t) ~edge ~target ~deg_max ~segment =
    let s_id, t_id = edge in
    if s_id <> ctx.Node.id then None
    else
      match State.slot_of ctx t_id with
      | None -> None
      | Some t_slot ->
          if
            not
              (State.locally_stabilized ctx st
              && st.pending = None
              && endpoints_ok ctx st ~t_slot ~deg_max)
          then None
          else begin
            let v = st.views.(t_slot) in
            match segment with
            | [] -> None
            | [ me ] ->
                (* s = lower: the removed edge is our own parent link and the
                   swap is a single local exchange.  The relieved node is
                   [upper] — check it still carries deg_max. *)
                let upper = if fst target = me then snd target else fst target in
                let upper_deg =
                  match State.slot_of ctx upper with
                  | Some slot when st.views.(slot).State.w_fresh -> st.views.(slot).State.w_deg
                  | Some _ | None -> -1
                in
                if me = fst target && st.parent = upper && upper_deg >= deg_max then begin
                  (* paper Fig. 2 line 5: flip the colour after a swap so the
                     neighbourhood freezes until it re-agrees — this is what
                     keeps concurrent swaps in one clique from weaving a
                     transient parent cycle. *)
                  Mdst_util.Mutation.probe "proto:swap-commit-local";
                  Some
                    {
                      st with
                      State.parent = t_id;
                      dist = v.State.w_dist + 1;
                      color = not st.color;
                    }
                end
                else None
            | me :: next :: _ ->
                if me <> ctx.Node.id || st.parent <> next then None
                else begin
                  Mdst_util.Mutation.probe "proto:swap-commit-chain";
                  let st =
                    {
                      st with
                      State.parent = t_id;
                      dist = v.State.w_dist + 1;
                      color = not st.color;
                    }
                  in
                  send_to_id ctx next
                    (Msg.Reverse { v_edge = edge; v_dist = st.State.dist; v_segment = segment });
                  Some st
                end
          end

  (* Entry point at [s] (either on Swap_req receipt, or locally when the
     responder itself is s). *)
  let handle_swap_req ctx (st : State.t) ~edge ~target ~deg_max ~segment =
    match segment with
    | [ _ ] -> (
        match commit_at_s ctx st ~edge ~target ~deg_max ~segment with
        | Some st -> push_update_dist ctx st
        | None -> st)
    | me :: next :: _ when me = ctx.Node.id -> (
        if
          (not (State.locally_stabilized ctx st))
          || st.pending <> None
          || st.parent <> next
        then st
        else
          let _, t_id = edge in
          match State.slot_of ctx t_id with
          | Some t_slot when endpoints_ok ctx st ~t_slot ~deg_max ->
              Mdst_util.Mutation.probe "proto:swap-lock";
              let st =
                {
                  st with
                  State.pending =
                    Some { p_edge = edge; p_target = target; p_ttl = lock_ttl ctx };
                }
              in
              send_to_id ctx next
                (Msg.Remove
                   { m_edge = edge; m_target = target; m_deg_max = deg_max; m_segment = segment });
              st
          | Some _ | None -> st)
    | _ -> st

  let handle_remove ctx (st : State.t) ~edge ~target ~deg_max ~segment =
    let me = ctx.Node.id in
    let scan = scan_segment me segment in
    if not scan.sc_present then st
    else if st.pending <> None || not (State.locally_stabilized ctx st) then st
    else if scan.sc_is_last then begin
      (* We are [lower]: final validation (paper's target_remove), then
         grant. *)
      let w, z = target in
      let upper = if me = w then z else w in
      let upper_deg =
        match State.slot_of ctx upper with
        | Some slot when st.views.(slot).State.w_fresh -> st.views.(slot).State.w_deg
        | Some _ | None -> -1
      in
      let valid =
        (me = w || me = z)
        && st.parent = upper
        && max (State.tree_degree ctx st) upper_deg >= deg_max
      in
      if not valid then st
      else begin
        Mdst_util.Mutation.probe "proto:remove-grant";
        let st =
          {
            st with
            State.pending = Some { p_edge = edge; p_target = target; p_ttl = lock_ttl ctx };
          }
        in
        (match scan.sc_pred with
        | Some prev ->
            send_to_id ctx prev
              (Msg.Grant
                 { g_edge = edge; g_target = target; g_deg_max = deg_max; g_segment = segment })
        | None -> ());
        st
      end
    end
    else
      (* Interior hop: the chain must still ascend through us. *)
      match scan.sc_succ with
      | Some next when st.parent = next ->
          Mdst_util.Mutation.probe "proto:remove-forward";
          let st =
            {
              st with
              State.pending = Some { p_edge = edge; p_target = target; p_ttl = lock_ttl ctx };
            }
          in
          send_to_id ctx next
            (Msg.Remove
               { m_edge = edge; m_target = target; m_deg_max = deg_max; m_segment = segment });
          st
      | Some _ | None -> st

  let handle_grant ctx (st : State.t) ~edge ~target ~deg_max ~segment =
    let me = ctx.Node.id in
    match st.State.pending with
    | Some p when p.p_edge = edge && p.p_target = target -> (
        match segment with
        | first :: _ when first = me -> (
            (* We are s: commit or abort (the lock clears either way). *)
            Mdst_util.Mutation.probe "proto:grant-commit";
            let st = { st with State.pending = None } in
            match commit_at_s ctx st ~edge ~target ~deg_max ~segment with
            | Some st -> push_update_dist ctx st
            | None -> st)
        | _ -> (
            match segment_pred me segment with
            | Some prev ->
                Mdst_util.Mutation.probe "proto:grant-forward";
                send_to_id ctx prev
                  (Msg.Grant
                     { g_edge = edge; g_target = target; g_deg_max = deg_max; g_segment = segment });
                st
            | None -> st))
    | Some _ | None -> st

  (* Optimistically refresh a neighbour's mirror from facts a protocol
     message proves, so the R2 rule does not fire on staleness the next
     Info would repair anyway. *)
  let patch_view (st : State.t) ctx ~nid ~parent ~dist =
    match State.slot_of ctx nid with
    | None -> st
    | Some slot ->
        let v = st.State.views.(slot) in
        let w_parent = match parent with Some p -> p | None -> v.State.w_parent in
        if v.State.w_fresh && v.w_parent = w_parent && v.w_dist = dist then st
        else begin
          let views = Array.copy st.State.views in
          views.(slot) <- { v with State.w_parent; w_dist = dist; w_fresh = true };
          { st with State.views = views; search_quiet = 0 }
        end

  let handle_reverse ctx (st : State.t) ~src ~edge ~dist ~segment =
    let me = ctx.Node.id in
    let sender_id = Graph_id.of_src ctx src in
    (* One scan answers presence, pred and succ for us; the sender's own
       pred needs a second scan — a corrupt segment can repeat ids, so it
       cannot be derived from ours. *)
    let scan = scan_segment me segment in
    match st.State.pending with
    | Some p when p.p_edge = edge && scan.sc_present && scan.sc_pred = Some sender_id ->
        Mdst_util.Mutation.probe "proto:reverse-flip";
        (* Flip: the sender (previous segment node) becomes our parent.  Its
           own parent is the node before it on the segment (or the anchor
           endpoint of the improving edge when it is s). *)
        let sender_parent =
          match segment_pred sender_id segment with
          | Some p -> Some p
          | None -> Some (snd edge)
        in
        let st = patch_view st ctx ~nid:sender_id ~parent:sender_parent ~dist in
        let st =
          {
            st with
            State.parent = sender_id;
            dist = dist + 1;
            pending = None;
            color = not st.color (* paper Fig. 2 line 5 *);
          }
        in
        (match scan.sc_succ with
        | Some next ->
            send_to_id ctx next
              (Msg.Reverse { v_edge = edge; v_dist = st.State.dist; v_segment = segment })
        | None -> () (* we are lower: our old parent edge just left the tree *));
        push_update_dist ctx st
    | Some _ | None -> st

  (* ---------------------------------------------------------------- *)
  (* Action_on_Cycle (paper Figure 1)                                  *)
  (* ---------------------------------------------------------------- *)

  let send_deblock_flood ctx (st : State.t) ~idblock ~ttl =
    (* paper-gap: the paper floods Deblock over the whole tree minus the
       sender; Fürer–Raghavachari show searching the blocking node's
       subtree suffices, so we restrict the flood there. *)
    let payload = Msg.Deblock { d_idblock = idblock; d_ttl = ttl } in
    List.iter
      (fun slot -> ctx.Node.send ctx.Node.neighbors.(slot) payload)
      (State.tree_children_slots ctx st)

  (* Decide and launch an improvement removing the cycle edge (w, z), where
     z is w's successor on the cycle path.  [path] lists the whole cycle,
     initiator first, us (the responder) last. *)
  let run_improve ctx (st : State.t) ~initiator_id ~path ~w_entry ~deg_max =
    let rec succ_of = function
      | a :: b :: _ when a.Msg.e_id = w_entry.Msg.e_id -> Some b
      | _ :: rest -> succ_of rest
      | [] -> None
    in
    match succ_of path with
    | None -> st
    | Some z_entry ->
        let lower =
          if w_entry.Msg.e_dist > z_entry.Msg.e_dist then w_entry else z_entry
        in
        let upper = if lower == w_entry then z_entry else w_entry in
        let target = (lower.Msg.e_id, upper.Msg.e_id) in
        let ids = List.map (fun e -> e.Msg.e_id) path in
        (* Index the path once: position and entry of the FIRST occurrence
           of each id (a corrupt path can repeat ids, and every lookup
           below must behave like the left-to-right scan it replaces). *)
        let index : (int, int * Msg.entry) Hashtbl.t = Hashtbl.create 16 in
        List.iteri
          (fun i e ->
            if not (Hashtbl.mem index e.Msg.e_id) then Hashtbl.add index e.Msg.e_id (i, e))
          path;
        let pos id = match Hashtbl.find_opt index id with Some (i, _) -> i | None -> -1 in
        let entry_of id = Option.map snd (Hashtbl.find_opt index id) in
        let lower_pos = pos lower.Msg.e_id in
        let s_is_initiator = lower_pos <= min (pos w_entry.Msg.e_id) (pos z_entry.Msg.e_id) in
        let rec take_until acc = function
          | [] -> None
          | x :: rest ->
              if x = lower.Msg.e_id then Some (List.rev (x :: acc))
              else take_until (x :: acc) rest
        in
        let segment = if s_is_initiator then take_until [] ids else take_until [] (List.rev ids) in
        (match segment with
        | None | Some [] -> st
        | Some segment ->
            (* Ascending sanity: distances along the segment must decrease by
               exactly one per hop, otherwise our picture is stale. *)
            let dists = List.filter_map entry_of segment |> List.map (fun e -> e.Msg.e_dist) in
            let rec strictly_descending = function
              | a :: (b :: _ as rest) -> a = b + 1 && strictly_descending rest
              | _ -> true
            in
            if List.length dists <> List.length segment || not (strictly_descending dists) then st
            else if s_is_initiator then begin
              Mdst_util.Mutation.probe "proto:improve";
              send_to_id ctx initiator_id
                (Msg.Swap_req
                   {
                     r_edge = (initiator_id, ctx.Node.id);
                     r_target = target;
                     r_deg_max = deg_max;
                     r_segment = segment;
                   });
              st
            end
            else begin
              Mdst_util.Mutation.probe "proto:improve";
              handle_swap_req ctx st
                ~edge:(ctx.Node.id, initiator_id)
                ~target ~deg_max ~segment
            end)

  let action_on_cycle ctx (st : State.t) ~initiator_id ~idblock ~stack =
    (* [stack] arrives most-recent-first; one List.rev here rebuilds the
       forward path (initiator first, us last) so every fold below keeps
       the original left-to-right, first-occurrence semantics. *)
    let fwd = List.rev stack in
    let path = fwd @ [ self_entry ctx st ] in
    let interior = match fwd with [] -> [] | _ :: rest -> rest in
    let deg_i =
      match State.slot_of ctx initiator_id with
      | Some slot when st.State.views.(slot).State.w_fresh -> st.State.views.(slot).State.w_deg
      | Some _ | None -> max_int
    in
    let deg_me = State.tree_degree ctx st in
    let endpoint_max = if deg_i = max_int then max_int else max deg_me deg_i in
    let dmax = st.State.dmax in
    let deblock_endpoint () =
      if not C.enable_deblock then st
      else begin
      (* paper Figure 1, procedure Deblock: the endpoint(s) at dmax - 1 are
         blocking; reduce their degree first. *)
      let st =
        if deg_me = dmax - 1 then begin
          Mdst_util.Mutation.probe "proto:deblock-launch";
          (* Held already: left to expire, as in [handle_deblock]. *)
          match st.State.deblock with
          | Some (b, _) when b = ctx.Node.id -> st
          | Some _ | None ->
              send_deblock_flood ctx st ~idblock:ctx.Node.id ~ttl:ctx.Node.n;
              { st with State.deblock = Some (ctx.Node.id, C.deblock_ttl) }
        end
        else st
      in
      if deg_i = dmax - 1 then
        send_to_id ctx initiator_id (Msg.Deblock { d_idblock = initiator_id; d_ttl = ctx.Node.n });
      st
      end
    in
    (* A Search carrying an [idblock] that is not on this cycle cannot
       relieve the blocking node; it is handled as a plain search, so a
       Deblock that keeps being re-launched does not shut out every
       ordinary improvement elsewhere. *)
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
        else if endpoint_max < dmax - 1 then begin
          (* w = interior max-degree node of minimum id (paper line 13). *)
          let w_entry =
            List.fold_left
              (fun best e ->
                if e.Msg.e_deg <> d_path then best
                else
                  match best with
                  | Some b when b.Msg.e_id <= e.Msg.e_id -> best
                  | _ -> Some e)
              None interior
          in
          match w_entry with None -> st | Some w -> run_improve ctx st ~initiator_id ~path ~w_entry:w ~deg_max:dmax
        end
        else st
    | Some b_entry ->
        if endpoint_max = dmax - 1 then deblock_endpoint ()
        else if endpoint_max < dmax - 1 then
          run_improve ctx st ~initiator_id ~path ~w_entry:b_entry ~deg_max:b_entry.Msg.e_deg
        else st

  let handle_search ctx (st : State.t) ~edge ~idblock ~stack ~visited =
    if not (State.locally_stabilized ctx st) then st
    else begin
      let initiator_id, responder_id = edge in
      if ctx.Node.id = responder_id then begin
        match State.slot_of ctx initiator_id with
        | Some slot when not (State.is_tree_edge ctx st slot) ->
            action_on_cycle ctx st ~initiator_id ~idblock ~stack
        | Some _ | None -> st
      end
      else begin
        continue_search ctx st ~edge ~idblock ~stack ~visited;
        st
      end
    end

  (* ---------------------------------------------------------------- *)
  (* Deblock / UpdateDist receipt                                      *)
  (* ---------------------------------------------------------------- *)

  let handle_deblock ctx (st : State.t) ~idblock ~ttl =
    if ttl <= 0 || not C.enable_deblock then st
    else begin
      (* Re-flood only when the request is news to us: repeated Deblocks for
         a blocking node we are already serving would otherwise amplify
         exponentially down the subtree.  Nor is a held Deblock refreshed:
         it expires after [deblock_ttl] ticks, and the next request
         re-floods.  Refreshing it let a blocking node that keeps being
         asked hold its flag forever after a single flood, while the copies
         down its subtree expired — and with them the only Searches that
         could relieve it. *)
      match st.State.deblock with
      | Some (b, _) when b = idblock -> st
      | Some _ | None ->
          Mdst_util.Mutation.probe "proto:deblock-flood";
          send_deblock_flood ctx st ~idblock ~ttl:(ttl - 1);
          { st with State.deblock = Some (idblock, C.deblock_ttl) }
    end

  let handle_update_dist ctx (st : State.t) ~src ~dist ~ttl =
    let sender_id = Graph_id.of_src ctx src in
    if st.State.parent = sender_id && ttl > 0 && st.State.dist <> dist + 1 then begin
      Mdst_util.Mutation.probe "proto:updatedist-apply";
      let st = patch_view st ctx ~nid:sender_id ~parent:None ~dist in
      let st = { st with State.dist = dist + 1 } in
      let payload = Msg.Update_dist { u_dist = st.State.dist; u_ttl = ttl - 1 } in
      List.iter
        (fun slot -> ctx.Node.send ctx.Node.neighbors.(slot) payload)
        (State.tree_children_slots ctx st);
      st
    end
    else st

  (* ---------------------------------------------------------------- *)
  (* Search initiation policy                                          *)
  (* ---------------------------------------------------------------- *)

  (* One Search turn: scan the neighbour slots from the cursor and start
     at most one Search, on the first worthwhile non-tree edge.  Returns
     the number of slots scanned; 0 when no scan may run (reductions off,
     a swap lock held, not locally stabilized, or the change-driven window
     closed: [search_quiet] at or past the degree). *)
  let search_scan ctx (st : State.t) =
    let deg = Array.length ctx.Node.neighbors in
    if
      (not C.enable_reduction)
      || deg = 0
      || st.State.search_quiet >= deg
      || st.State.pending <> None
      || not (State.locally_stabilized ctx st)
    then 0
    else begin
      let idblock = match st.State.deblock with Some (b, _) -> Some b | None -> None in
      let own_deg = State.tree_degree ctx st in
      let tried = ref 0 in
      let cursor = ref st.State.search_cursor in
      let started = ref false in
      while (not !started) && !tried < deg do
        let slot = !cursor mod deg in
        cursor := (!cursor + 1) mod deg;
        incr tried;
        let uid = ctx.Node.neighbor_ids.(slot) in
        let v = st.State.views.(slot) in
        if (not (State.is_tree_edge ctx st slot)) && ctx.Node.id < uid && v.State.w_fresh
        then begin
          (* Prune only edges that can neither improve (endpoints <= dmax-2,
             paper Eq. 1) nor expose a blocking endpoint (= dmax-1, which
             must be discovered for Deblock to ever fire). *)
          let worth =
            match idblock with
            | Some _ -> true
            | None -> (not C.eager_prune) || st.State.dmax >= max own_deg v.State.w_deg + 1
          in
          if worth then begin
            Mdst_util.Mutation.probe "proto:search-start";
            start_search ctx st ~responder_id:uid ~idblock;
            started := true
          end
        end
      done;
      !tried
    end

  let cursor_after ctx (st : State.t) tried =
    if tried = 0 then st.State.search_cursor
    else (st.State.search_cursor + tried) mod Array.length ctx.Node.neighbors

  (* The [search_on_info] turn (paper Fig. 2 line 2): a scan on an Info
     receipt, which moves the cursor but is no tick of the window. *)
  let maybe_start_search ctx (st : State.t) =
    let cursor = cursor_after ctx st (search_scan ctx st) in
    if cursor = st.State.search_cursor then st else { st with State.search_cursor = cursor }

  (* Can no slot ever start a Search from here?  Every edge is a tree edge,
     initiated by the other endpoint or not yet heard from.  Anything that
     would give the node a candidate writes a mirror or its own tree
     variables, which resets [search_quiet] anyway, so advancing the
     counter meanwhile changes nothing.  Counter and cursor must be in
     range: a corrupted value still goes through one normal tick. *)
  let nothing_to_search ctx (st : State.t) =
    let deg = Array.length ctx.Node.neighbors in
    let q = st.State.search_quiet and c = st.State.search_cursor in
    0 <= q && q < C.search_refresh_every
    && (deg = 0 || (0 <= c && c < deg))
    &&
    let rec none slot =
      slot >= deg
      || (State.is_tree_edge ctx st slot
         || ctx.Node.id > ctx.Node.neighbor_ids.(slot)
         || not st.State.views.(slot).State.w_fresh)
         && none (slot + 1)
    in
    none 0

  (* The tick's Search turn.  [search_quiet] advances by the slots the scan
     visited, or by one when no scan ran, so the window a local change
     opens closes once the cursor has made one full rotation.  On reaching
     [search_refresh_every] — or when corrupted out of range — it wraps to
     0, which reopens the window at least once every that many ticks. *)
  let tick_search ctx (st : State.t) =
    if nothing_to_search ctx st then st
    else begin
      let tried = search_scan ctx st in
      let cursor = cursor_after ctx st tried in
      let q = st.State.search_quiet + max 1 tried in
      let q = if q < 0 || q >= C.search_refresh_every then 0 else q in
      if cursor = st.State.search_cursor && q = st.State.search_quiet then st
      else { st with State.search_cursor = cursor; search_quiet = q }
    end

  (* ---------------------------------------------------------------- *)
  (* Event handlers                                                    *)
  (* ---------------------------------------------------------------- *)

  let decay (st : State.t) =
    match (st.State.pending, st.State.deblock) with
    | None, None -> st (* nothing ticking down: the common case, no copy *)
    | _ ->
        let pending =
          match st.State.pending with
          | Some p when p.p_ttl > 1 -> Some { p with State.p_ttl = p.p_ttl - 1 }
          | Some _ | None -> None
        in
        let deblock =
          match st.State.deblock with
          | Some (b, ttl) when ttl > 1 -> Some (b, ttl - 1)
          | Some _ | None -> None
        in
        { st with State.pending; deblock }

  (* Did a step move anything this node's cycles, or its view of them,
     depend on?  Its own tree and degree variables, a swap lock or a
     Deblock being set or cleared.  Mirror values are compared where they
     are written ([update_view], [patch_view]).  Lock and Deblock TTLs
     ticking down are no change. *)
  let locally_changed (a : State.t) (b : State.t) =
    a.root <> b.root
    || a.parent <> b.parent
    || a.dist <> b.dist
    || a.dmax <> b.dmax
    || a.color <> b.color
    || a.subtree_max <> b.subtree_max
    || (a.pending = None) <> (b.pending = None)
    ||
    match (a.deblock, b.deblock) with
    | None, None -> false
    | Some (x, _), Some (y, _) -> x <> y
    | Some _, None | None, Some _ -> true

  (* Restart the search window after a local change.  Allocates only when
     the counter actually moves. *)
  let note_change ~before (st : State.t) =
    if st == before || st.State.search_quiet = 0 || not (locally_changed before st) then st
    else { st with State.search_quiet = 0 }

  let on_tick ctx (before : State.t) =
    let st = note_change ~before (recompute ctx (decay before)) in
    broadcast_info ctx (tick_search ctx st)

  (* Every family but Info; Info receipts go through [on_message]'s own
     arm. *)
  let handle_protocol_message ctx (st : State.t) ~src msg =
    match msg with
    | Msg.Info _ -> st
    | ( Msg.Search _ | Msg.Swap_req _ | Msg.Remove _ | Msg.Grant _ | Msg.Reverse _
      | Msg.Update_dist _ | Msg.Deblock _ )
      when not C.enable_reduction ->
        st
    | Msg.Search { s_edge; s_idblock; s_stack; s_visited } ->
        handle_search ctx st ~edge:s_edge ~idblock:s_idblock ~stack:s_stack ~visited:s_visited
    | Msg.Swap_req { r_edge; r_target; r_deg_max; r_segment } ->
        handle_swap_req ctx st ~edge:r_edge ~target:r_target ~deg_max:r_deg_max
          ~segment:r_segment
    | Msg.Remove { m_edge; m_target; m_deg_max; m_segment } ->
        handle_remove ctx st ~edge:m_edge ~target:m_target ~deg_max:m_deg_max ~segment:m_segment
    | Msg.Grant _ when Mdst_util.Mutation.enabled "grant-drop" ->
        (* Mutant: the PR-1 lossy-variant bug — Grants acknowledging a
           validated swap are discarded, so commits at [s] never happen and
           segment locks only ever clear by TTL. *)
        st
    | Msg.Grant { g_edge; g_target; g_deg_max; g_segment } ->
        handle_grant ctx st ~edge:g_edge ~target:g_target ~deg_max:g_deg_max ~segment:g_segment
    | Msg.Reverse { v_edge; v_dist; v_segment } ->
        handle_reverse ctx st ~src ~edge:v_edge ~dist:v_dist ~segment:v_segment
    | Msg.Update_dist { u_dist; u_ttl } -> handle_update_dist ctx st ~src ~dist:u_dist ~ttl:u_ttl
    | Msg.Deblock { d_idblock; d_ttl } -> handle_deblock ctx st ~idblock:d_idblock ~ttl:d_ttl

  let on_message ctx (st : State.t) ~src msg =
    match msg with
    | Msg.Info info -> (
        match State.slot_of ctx (Graph_id.of_src ctx src) with
        | Some slot ->
            let st = note_change ~before:st (recompute ctx (update_view st slot info)) in
            (* paper Fig. 2 line 2: Cycle_Search(NIL) on every receipt. *)
            if C.search_on_info then maybe_start_search ctx st else st
        | None -> st)
    | _ -> note_change ~before:st (handle_protocol_message ctx st ~src msg)
end

module Default = Make (Default_config)
module No_deblock = Make (No_deblock_config)
module No_prune = Make (No_prune_config)
module Tree_only = Make (Tree_only_config)
module Graceful = Make (Graceful_config)
module Paper_faithful = Make (Paper_faithful_config)
module Suppressed = Make (Suppressed_config)
